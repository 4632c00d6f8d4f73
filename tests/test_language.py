import math
from array import array

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import examples
from oracles import (
    oracle_cosine_float,
    oracle_feature_counts,
    oracle_summary_slots,
    oracle_tokenize,
)
from swarmreid.errors import EmptyClusterError, EmptyDescriptionError
from swarmreid.language import (
    EMBEDDING_DIM,
    SlotTally,
    cached_tokens,
    cosine,
    embed,
    summarize,
    tokenize,
    vocabulary_collision_report,
    vocabulary_words,
)
from swarmreid.vocab import (
    ACCESSORIES,
    NOUNS,
    PALETTE,
    UPPER_TYPES,
    parse_description,
    render_description,
)
from swarmreid.perception import (DescriptionNoise, DescriptionRecord,
                                  describe, sample_attributes)
from swarmreid.reid import ClusterDatabase


class TestTokenize:
    def test_query_form(self):
        assert tokenize("a lady with a green t-shirt") == ["lady", "green", "t", "shirt"]

    def test_empty(self):
        assert tokenize("") == []

    def test_case_folding_and_stopwords(self):
        assert tokenize("A Person WEARING a RED shirt") == ["person", "red", "shirt"]

    def test_matches_oracle_on_punctuation(self):
        text = "a man, with a blue-green jacket... and 2 bags!"
        assert tokenize(text) == oracle_tokenize(text)

    def test_cached_tokens_shared_by_records(self):
        text = "a lady wearing a green t-shirt"
        assert cached_tokens(text) == tuple(tokenize(text))
        record = DescriptionRecord.create(text=text, robot_id=0, tick=0,
                                          track_id=0, person_id=0)
        assert record.tokens is cached_tokens(text)


class TestEmbed:
    def test_self_cosine_one(self):
        v = embed(["woman", "red", "shirt"])
        assert cosine(v, v) == 1.0

    def test_unit_norm(self):
        v = embed(["red", "shirt"])
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-9
        assert v.shape == (EMBEDDING_DIM,)

    def test_empty_tokens_raise(self):
        with pytest.raises(EmptyDescriptionError):
            embed([])

    def test_overlap_ordering(self):
        base = embed(["red", "shirt"])
        closer = cosine(base, embed(["red", "shirt", "hat"]))
        farther = cosine(base, embed(["blue", "jeans"]))
        assert closer > farther
        # frozen oracle values: shared {red, shirt, red-shirt} of 3 vs 5
        # features gives sqrt(3/5); disjoint bags are orthogonal here
        assert closer == pytest.approx(0.7745966692414834, abs=1e-12)
        assert farther == 0.0

    def test_matches_exact_oracle(self):
        a = tokenize("a woman wearing a red shirt and black skirt")
        b = tokenize("a person with red shirt and black skirt")
        assert cosine(embed(a), embed(b)) == pytest.approx(7 / 9, abs=1e-12)
        assert cosine(embed(a), embed(b)) == pytest.approx(
            oracle_cosine_float(a, b), abs=1e-12
        )

    def test_deterministic_across_processes(self):
        import subprocess
        import sys

        code = (
            "from swarmreid.language import embed; "
            "print(embed(['lady','green','t','shirt']).tobytes().hex())"
        )
        outs = {
            subprocess.run([sys.executable, "-c", code],
                           capture_output=True, text=True).stdout
            for _ in range(2)
        }
        assert len(outs) == 1
        assert outs.pop().strip() == embed(["lady", "green", "t", "shirt"]).tobytes().hex()

    def test_result_not_writable(self):
        v = embed(["red", "shirt"])
        with pytest.raises(ValueError):
            v[0] = 1.0


class TestCosine:
    def test_orthogonal_basis(self):
        a = np.zeros(EMBEDDING_DIM)
        b = np.zeros(EMBEDDING_DIM)
        a[0] = 1.0
        b[1] = 1.0
        assert cosine(a, b) == 0.0

    def test_hand_value(self):
        a = np.zeros(EMBEDDING_DIM)
        b = np.zeros(EMBEDDING_DIM)
        a[0], a[1] = 0.6, 0.8
        b[0], b[1] = 0.8, 0.6
        assert cosine(a, b) == pytest.approx(0.96, abs=1e-12)

    def test_clamped(self):
        a = np.zeros(EMBEDDING_DIM)
        a[0] = 1.0
        assert cosine(a * (1 + 1e-12), a) <= 1.0


class TestSummarize:
    def test_singleton_identity(self):
        text = "a woman wearing a red shirt and black skirt"
        assert summarize([text]) == text

    def test_majority_lower_color(self):
        members = (
            ["a man wearing a green t-shirt and blue jeans"] * 3
            + ["a man wearing a green t-shirt and black jeans"]
        )
        out = summarize(members)
        assert "green t-shirt" in out
        assert "blue jeans" in out

    def test_tie_breaks_lexicographically(self):
        out = summarize([
            "a woman wearing a red shirt and black skirt",
            "a woman wearing a rose shirt and black skirt",
        ])
        assert "red shirt" in out
        assert "rose" not in out

    def test_empty_raises(self):
        with pytest.raises(EmptyClusterError):
            summarize([])
        with pytest.raises(EmptyClusterError):
            SlotTally().render()

    def test_quorum_drops_rare_slot(self):
        # hair mentioned once among 5 members: 1 < ceil(5/4) = 2
        members = ["a man wearing a blue shirt and gray pants"] * 4 + [
            "a man wearing a blue shirt and gray pants, red hair"
        ]
        assert "hair" not in summarize(members)

    def test_accessory_survives_quorum(self):
        members = ["a man wearing a blue shirt and gray pants"] * 2 + [
            "a man wearing a blue shirt and gray pants, with hat"
        ] * 2
        assert "with hat" in summarize(members)


def _template_text(draw_tuple):
    noun, uc, ut, lc, lt, accs, hair = draw_tuple
    lower = None if lt is None else (lc, lt)
    return render_description(
        noun, upper=(uc, ut), lower=lower, accessories=accs, hair_color=hair
    )


_template_strategy = st.tuples(
    st.sampled_from(NOUNS),
    st.sampled_from(PALETTE),
    st.sampled_from(UPPER_TYPES),
    st.sampled_from(PALETTE),
    st.sampled_from(["jeans", "pants", "skirt", "shorts", None]),
    st.lists(st.sampled_from(ACCESSORIES), unique=True, max_size=3).map(tuple),
    st.sampled_from(list(PALETTE) + [None]),
).map(_template_text)


class TestSummarizeProperties:
    @given(st.lists(_template_strategy, min_size=1, max_size=12),
           st.randoms(use_true_random=False))
    @examples(200)
    def test_permutation_invariance(self, texts, rnd):
        shuffled = list(texts)
        rnd.shuffle(shuffled)
        assert summarize(shuffled) == summarize(texts)

    @given(st.lists(_template_strategy, min_size=1, max_size=10))
    @examples(200)
    def test_duplication_invariance(self, texts):
        assert summarize(texts + texts) == summarize(texts)

    @given(st.lists(_template_strategy, min_size=1, max_size=10))
    @examples(300)
    def test_matches_slot_oracle(self, texts):
        expected = oracle_summary_slots(texts)
        got = parse_description(summarize(texts))
        assert got.noun == (expected["noun"] or "person")
        if expected["upper_type"] is None:
            assert got.upper_type is None and got.upper_color is None
        else:
            assert got.upper_type == expected["upper_type"]
            assert got.upper_color == expected["upper_color"]
        if expected["upper_type"] is None or expected["lower_type"] is None:
            # the template cannot carry a lower garment without an upper one
            assert got.lower_type is None
        else:
            assert got.lower_type == expected["lower_type"]
            assert got.lower_color == expected["lower_color"]
        assert set(got.accessories) == set(expected["accessories"])
        assert got.hair_color == expected["hair"]


# Captioner-noisy renderings (synonyms, dropped slots, confused colors) and
# texts outside the template family, which parse to partial slots.
_NOISY = tuple(
    describe(p, DescriptionNoise(p_drop=0.4, p_synonym=0.4, p_color_confusion=0.4),
             np.random.default_rng(i))
    for i, p in enumerate(sample_attributes(8, np.random.default_rng(11))))
_OFF_TEMPLATE = ("a lad", "someone", "a person with a black outfit",
                 "a guy wearing a crimson top and blue trousers, with hat")
_member_text = st.one_of(_template_strategy, st.sampled_from(_NOISY + _OFF_TEMPLATE))

RED = "a man wearing a red shirt and gray pants"
BLUE = "a man wearing a blue shirt and gray pants"


@st.composite
def _member_batches(draw):
    """4k or 4k + 1 member texts, cut into consecutive batches: the two
    member counts on either side of a ceil(n/4) quorum step."""
    n = 4 * draw(st.integers(1, 4)) + draw(st.integers(0, 1))
    texts = draw(st.lists(_member_text, min_size=n, max_size=n))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))))
    bounds = [0, *cuts, n]
    return [texts[i:j] for i, j in zip(bounds, bounds[1:])]


class TestSlotTally:
    @given(_member_batches())
    # "blue" catches up with the leader "red" and wins the tie as the
    # smaller value, then pulls ahead.
    @example([[RED, RED], [BLUE], [BLUE], [BLUE]])
    @example([[RED], [RED, BLUE, BLUE]])
    # hair named once: kept at n = 4 (quorum 1), dropped at n = 5 (quorum 2)
    @example([[RED + ", brown hair", BLUE, RED], [BLUE], [BLUE]])
    @examples(300)
    def test_batched_tally_renders_summarize(self, batches):
        tally = SlotTally()
        members = []
        for batch in batches:
            tally = tally.plus(batch)
            members += batch
            # Sorting changes which text is tallied first, so a leader rule
            # that depends on arrival order shows.
            assert (tally.render() == summarize(members)
                    == summarize(sorted(members)))
        assert tally == SlotTally(members)

    @given(_member_batches())
    @examples(100)
    def test_plus_is_the_tally_of_all_and_leaves_the_original(self, batches):
        first, rest = batches[0], [t for batch in batches[1:] for t in batch]
        tally = SlotTally(first)
        grown = tally.plus(rest)
        assert grown == SlotTally(first + rest)
        assert grown.render() == summarize(first + rest)
        assert tally == SlotTally(first)

    @given(_member_batches(),
           st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=4, max_size=10),
           st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=4, max_size=10))
    # A noun and a hair word that no other test names, so their (slot,
    # value) pairs are first parsed after ``tally`` is built.
    @example([[RED, BLUE]], "wizard", "auburn")
    @examples(100)
    def test_value_first_seen_later_is_counted_by_plus(self, batches, noun, hair):
        """A later ``plus`` counts a (slot, value) that no text had named when
        the tally was built; the new noun and hair word then lead."""
        members = [t for batch in batches for t in batch]
        tally = SlotTally(members)
        more = [f"a {noun} wearing a red shirt and gray pants, {hair} hair"] * (len(members) + 1)
        grown = tally.plus(more)
        assert grown == SlotTally(members + more)
        assert grown.render() == summarize(members + more)
        parsed = parse_description(grown.render())
        assert (parsed.noun, parsed.hair_color) == (noun, hair)

    def test_equal_counts_of_other_lengths_are_equal(self):
        """Tallies equal in every count are equal however far their arrays
        reach, so ``check_invariants`` accepts a tally longer than a rebuilt one."""
        db = ClusterDatabase(owner=0)
        for tick, text in enumerate([RED, BLUE]):
            db.assign_description(DescriptionRecord.create(
                text=text, robot_id=0, tick=tick, track_id=0, person_id=0), 0.5)
        (cluster,) = db.clusters.values()
        padded = SlotTally()
        padded.counts = cluster.summary.tally.counts + array("I", [0] * 3)
        assert padded == SlotTally([RED, BLUE]) == padded
        cluster.summary = cluster.summary._replace(tally=padded)
        db.check_invariants()
        padded.counts[-1] = 1
        assert padded != SlotTally([RED, BLUE])


class TestVocabularyHashing:
    def test_embedding_matches_feature_count_oracle(self):
        tokens = ["woman", "green", "t", "shirt", "blue", "jeans"]
        counts = oracle_feature_counts(tokens)
        raw = np.zeros(EMBEDDING_DIM)
        for idx, c in counts.items():
            raw[idx] = c
        raw /= np.linalg.norm(raw)
        assert np.allclose(embed(tokens), raw, atol=1e-12)

    def test_collision_report_is_stable(self):
        report = vocabulary_collision_report()
        assert report["dim"] == EMBEDDING_DIM
        assert report["word_count"] == len(vocabulary_words())
        # frozen under the v1 hash seed; a seed bump must revisit these
        aligned = {tuple(p) for p in report["aligned_collisions"]}
        assert aligned == {("brown", "gray"), ("guy", "t"), ("individual", "pants")}

    def test_template_monotonicity_sample(self):
        # one extra matching slot never lowers similarity; brute-forced on a
        # deterministic sub-corpus (the full corpus runs in the acceptance suite)
        violations = 0
        for noun in NOUNS[:2]:
            for uc in PALETTE[:4]:
                for lc in PALETTE[:4]:
                    target = render_description(
                        noun, upper=(uc, "shirt"), lower=(lc, "jeans"),
                        accessories=("hat",), hair_color=None,
                    )
                    t = embed(tokenize(target))
                    chain = [
                        render_description(noun, upper=None, lower=None,
                                           accessories=(), hair_color=None),
                        render_description(noun, upper=(uc, "shirt"), lower=None,
                                           accessories=(), hair_color=None),
                        render_description(noun, upper=(uc, "shirt"),
                                           lower=(lc, "jeans"),
                                           accessories=(), hair_color=None),
                        target,
                    ]
                    sims = [cosine(t, embed(tokenize(c))) for c in chain]
                    violations += sum(
                        1 for a, b in zip(sims, sims[1:]) if b < a - 1e-12
                    )
        assert violations == 0
