import copy
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import examples
from swarmreid.errors import ContractError, EmptyDescriptionError
from swarmreid.language import cosine, embed, tokenize
from swarmreid.perception import (
    NO_NOISE,
    DescriptionNoise,
    DescriptionRecord,
    TrackTable,
    canonical_description,
    describe,
    sample_attributes,
)
from swarmreid.vocab import NOUNS, PersonAttributes

WOMAN = PersonAttributes(
    noun="woman", upper_color="red", upper_type="shirt",
    lower_type="skirt", lower_color="black",
    accessories=frozenset(), hair_color=None,
)
MAN = PersonAttributes(
    noun="man", upper_color="blue", upper_type="shirt",
    lower_type="pants", lower_color="gray",
    accessories=frozenset(), hair_color=None,
)


class TestDescribe:
    def test_noise_free_woman(self):
        assert describe(WOMAN) == "a woman wearing a red shirt and black skirt"

    def test_noise_free_man(self):
        assert describe(MAN) == "a man wearing a blue shirt and gray pants"

    def test_full_dropout_keeps_noun(self):
        noise = DescriptionNoise(p_drop=1.0, p_synonym=0.0, p_color_confusion=0.0)
        rng = np.random.default_rng(0)
        assert describe(WOMAN, noise, rng) == "a woman"

    def test_synonyms_applied_deterministically_at_p1(self):
        noise = DescriptionNoise(p_drop=0.0, p_synonym=1.0, p_color_confusion=0.0)
        rng = np.random.default_rng(0)
        assert describe(WOMAN, noise, rng) == (
            "a lady wearing a red top and black miniskirt"
        )

    def test_color_confusion_at_p1(self):
        noise = DescriptionNoise(p_drop=0.0, p_synonym=0.0, p_color_confusion=1.0)
        rng = np.random.default_rng(0)
        assert describe(WOMAN, noise, rng) == (
            "a woman wearing a pink shirt and gray skirt"
        )

    def test_noise_requires_rng(self):
        noise = DescriptionNoise(p_drop=0.5, p_synonym=0.0, p_color_confusion=0.0)
        with pytest.raises(ContractError):
            describe(WOMAN, noise, None)

    def test_probabilities_validated(self):
        with pytest.raises(ContractError):
            DescriptionNoise(p_drop=1.5, p_synonym=0.0, p_color_confusion=0.0)

    def test_canonical_is_pure(self):
        assert canonical_description(WOMAN) == canonical_description(WOMAN)
        assert canonical_description(WOMAN) == describe(WOMAN, NO_NOISE, None)

    @given(st.integers(0, 10_000))
    @examples(200)
    def test_every_text_tokenizes_with_a_noun(self, seed):
        rng = np.random.default_rng(seed)
        attrs = sample_attributes(1, rng)[0]
        noise = DescriptionNoise(p_drop=0.3, p_synonym=0.3, p_color_confusion=0.3)
        text = describe(attrs, noise, rng)
        tokens = tokenize(text)
        assert tokens
        nounish = set(NOUNS) | {"guy", "lady", "individual", "woman", "lad", "lass"}
        assert tokens[0] in nounish


class TestDescriptionRecord:
    def test_create_tokenizes(self):
        r = DescriptionRecord.create(
            text="a woman wearing a red shirt and black skirt",
            robot_id=1, tick=7, track_id=3, person_id=2,
        )
        assert r.tokens == ("woman", "red", "shirt", "black", "skirt")
        assert r.key == (1, 3, 7)

    def test_stopword_only_text_rejected(self):
        with pytest.raises(EmptyDescriptionError):
            DescriptionRecord.create(text="a the an", robot_id=0, tick=0,
                                     track_id=0, person_id=0)

    def test_slotted_frozen_hashable_copyable_picklable(self):
        r = DescriptionRecord.create(text="a man wearing a blue shirt",
                                     robot_id=2, tick=5, track_id=4, person_id=1)
        assert not hasattr(r, "__dict__")
        with pytest.raises(AttributeError):
            r.tick = 6
        for twin in (copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert twin == r and twin is not r
            assert hash(twin) == hash(r) and len({r, twin}) == 1
            assert (twin.key, twin.track, twin.tokens) == ((2, 4, 5), (2, 4), r.tokens)


class TestTracking:
    def test_continuous_visibility_single_track(self):
        table = TrackTable()
        ids = set()
        for tick in range(1, 11):
            out = table.update_tracks([5], tick, max_gap_ticks=5,
                                      p_track_break=0.0, rng=None)
            assert len(out) == 1
            ids.add(out[0][0])
            assert out[0][1] == 5
        assert len(ids) == 1

    def test_gap_beyond_max_starts_new_track(self):
        table = TrackTable()
        first = table.update_tracks([5], 1, 5, 0.0, None)[0][0]
        second = table.update_tracks([5], 9, 5, 0.0, None)[0][0]
        assert first != second

    def test_gap_within_max_keeps_track(self):
        table = TrackTable()
        first = table.update_tracks([5], 1, 5, 0.0, None)[0][0]
        second = table.update_tracks([5], 6, 5, 0.0, None)[0][0]
        assert first == second

    def test_break_probability_one_means_new_track_each_tick(self):
        table = TrackTable()
        rng = np.random.default_rng(0)
        ids = [table.update_tracks([5], t, 5, 1.0, rng)[0][0]
               for t in range(1, 6)]
        assert len(set(ids)) == len(ids)

    def test_track_ids_unique_across_people(self):
        table = TrackTable()
        out = table.update_tracks([1, 2, 3], 1, 5, 0.0, None)
        assert len({tid for tid, _ in out}) == 3

    def test_ticks_must_increase(self):
        table = TrackTable()
        table.update_tracks([1], 5, 5, 0.0, None)
        with pytest.raises(ContractError):
            table.update_tracks([1], 5, 5, 0.0, None)

    def test_person_ids_do_not_leak_into_behavior(self):
        # permuting sealed ids must permute outputs, nothing else
        visibility = [[1, 2], [2], [1, 2], [], [2, 1]]
        perm = {1: 7, 2: 4}

        def stream(mapping):
            table = TrackTable()
            rng = np.random.default_rng(99)
            out = []
            for tick, vis in enumerate(visibility, start=1):
                mapped = [mapping.get(p, p) for p in vis]
                out.append(table.update_tracks(mapped, tick, 5, 0.5, rng))
            return out

        plain = stream({})
        permuted = stream(perm)
        unmapped = [[(tid, {7: 1, 4: 2}.get(p, p)) for tid, p in tick_out]
                    for tick_out in permuted]
        assert plain == unmapped


class TestAttributeSampling:
    def test_deterministic(self):
        a = sample_attributes(5, np.random.default_rng(42))
        b = sample_attributes(5, np.random.default_rng(42))
        assert a == b

    def test_lower_none_only_with_dress(self):
        for seed in range(50):
            for attrs in sample_attributes(4, np.random.default_rng(seed)):
                if attrs.lower_type == "none":
                    assert attrs.upper_type == "dress"
                    assert attrs.lower_color is None

    def test_distinct_outfits_are_separated(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            people = sample_attributes(6, rng, distinct=True)
            vecs = [embed(tokenize(canonical_description(a))) for a in people]
            for va, vb in itertools.combinations(vecs, 2):
                assert cosine(va, vb) < 0.75

    def test_impossible_distinct_request_fails(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ContractError):
            sample_attributes(200, rng, distinct=True, max_similarity=0.01)
