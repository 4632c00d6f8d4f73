"""End-to-end acceptance gate.

Each test prints one ``[acceptance] <name>: PASS/FAIL`` line (visible under
``pytest -s``). Thresholds and scenario constants are frozen here on purpose;
they are the contract, not tunables.
"""

import contextlib
import itertools
import statistics
import time

import numpy as np
import pytest

from swarmreid import metrics, vocab
from swarmreid.config import SimConfig, set_value
from swarmreid.language import (cosine, embed, summarize, tokenize,
                                vocabulary_collision_report)
from swarmreid.metrics import GalleryItem, Probe, compute_report
from swarmreid.perception import (DescriptionNoise, DescriptionRecord,
                                  canonical_description, describe,
                                  sample_attributes)
from swarmreid.reid import ClusterDatabase, exchange
from swarmreid.runner import run_experiment, sweep
from swarmreid.vocab import PersonAttributes

from oracles import oracle_cmc, oracle_map


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def _configure(pairs):
    c = SimConfig()
    for key, value in pairs:
        c = set_value(c, key, value)
    return c


_NOISE_TRIPLE = (("noise.p_drop", 0.1), ("noise.p_synonym", 0.1),
                 ("noise.p_color_confusion", 0.05))


def test_ranking_metrics_match_exhaustive_oracle():
    with criterion("oracle equivalence (200 random instances, 0 tolerance)"):
        rng = np.random.default_rng(11)
        started = time.perf_counter()
        for _ in range(200):
            n_probes = int(rng.integers(1, 31))
            n_gallery = int(rng.integers(1, 101))
            probes = [Probe(int(pid), rng.normal(size=32))
                      for pid in rng.integers(0, 8, size=n_probes)]
            gallery = [
                GalleryItem((int(rng.integers(0, 4)), j),
                            int(rng.integers(0, 4)), int(pid),
                            rng.normal(size=32))
                for j, pid in enumerate(rng.integers(0, 8, size=n_gallery))
            ]
            oracle_probes = [
                (p.person_id,
                 [cosine(p.embedding, g.embedding) for g in gallery])
                for p in probes
            ]
            oracle_gallery = [(g.uid, g.owner, g.person_id) for g in gallery]
            cmc, ap = metrics._rank_metrics(probes, gallery)
            assert list(cmc) == oracle_cmc(oracle_probes, oracle_gallery,
                                           n_gallery)
            assert ap == oracle_map(oracle_probes, oracle_gallery)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


def _db_from_groups(owner, groups, texts):
    db = ClusterDatabase(owner=owner)
    tick = 0
    for track, ids in enumerate(groups):
        for pid in ids:
            db.assign_description(DescriptionRecord.create(
                text=texts[track], robot_id=owner, tick=tick,
                track_id=track, person_id=pid), 1.0)
            tick += 1
    return db


def _avg_purity(dbs, gt):
    return metrics._purities(metrics._labeled(dbs), sorted(gt))[0]


def test_purity_rules_and_fragmentation_divergence():
    with criterion("purity rules + fragmentation divergence"):
        fillers = ["a man wearing a red shirt and blue jeans",
                   "a woman wearing a green dress",
                   "a boy wearing a yellow hoodie and black shorts"]
        # majority proportion with the undetected penalty
        db = _db_from_groups(0, [[1, 1, 2]], fillers)
        assert abs(_avg_purity([db], {1, 2}) - 1 / 3) < 1e-12
        # largest-cluster retention
        db = _db_from_groups(0, [[1, 1, 1, 1, 2], [1, 1, 1]], fillers)
        assert _avg_purity([db], {1}) == 0.8
        # fully separated case
        db = _db_from_groups(0, [[1], [2]], fillers)
        assert _avg_purity([db], {1, 2}) == 1.0

        # locally pure shards, globally confusable neighbor
        db = ClusterDatabase(owner=0)
        for track, text in enumerate(["a woman", "a lady",
                                      "a woman with a hat"]):
            db.assign_description(DescriptionRecord.create(
                text=text, robot_id=0, tick=track, track_id=track,
                person_id=1), 1.0)
        db.assign_description(DescriptionRecord.create(
            text="a woman wearing a red shirt and gray skirt", robot_id=0,
            tick=9, track_id=9, person_id=2), 1.0)
        people = [
            (1, PersonAttributes(noun="woman", upper_color="red",
                                 upper_type="shirt", lower_type="skirt",
                                 lower_color="black")),
            (2, PersonAttributes(noun="woman", upper_color="red",
                                 upper_type="shirt", lower_type="skirt",
                                 lower_color="gray")),
        ]
        report = compute_report([db], people, {1, 2}, "0" * 64)
        assert report.normalized_purity == 1.0
        assert report.cmc[0] < 1.0


def test_noise_free_distinct_people_separate_perfectly():
    with criterion("noise-free separation (10 seeds, rank-1 queries 100%)"):
        base = _configure([("people.distinct_outfits", True)])
        for seed in range(10):
            art = run_experiment(set_value(base, "seed", seed))
            m = art.metrics
            assert m.avg_purity == 1.0, f"seed {seed}: purity {m.avg_purity}"
            assert m.cmc[0] == 1.0, f"seed {seed}: cmc1 {m.cmc[0]}"
            detected = {
                member.person_id
                for db in art.databases
                for c in db.clusters.values()
                for member in c.members
            }
            attrs = dict(art.people)
            for db in art.databases:
                assert len(db.clusters) == len(detected), (
                    f"seed {seed}: robot {db.owner} has {len(db.clusters)} "
                    f"clusters for {len(detected)} detected people")
                for pid in detected:
                    hits = db.query(canonical_description(attrs[pid]), k=1)
                    top = db.clusters[hits[0].uid]
                    majority = metrics._label(top)[0]
                    assert majority == pid, (
                        f"seed {seed}: robot {db.owner} ranked person "
                        f"{majority} first for person {pid}")


_SCARCE_SIGHTINGS = [
    ("arena.width", 40.0), ("arena.height", 40.0), ("duration_ticks", 1000),
    ("perception.description_period", 100), ("perception.p_track_break", 0.0),
    ("thresholds.theta_merge", 0.7), ("robots.comm_range", 12.0),
    ("people.count", 6), *_NOISE_TRIPLE,
]


def test_communication_improves_all_reid_metrics():
    with criterion("communication benefit (20 seeds, mean over cmc1/mAP/purity)"):
        base = _configure(_SCARCE_SIGHTINGS)
        scores = {True: [], False: []}
        for comm, seed in itertools.product((True, False), range(20)):
            c = set_value(base, "communication_enabled", comm)
            c = set_value(c, "seed", seed)
            started = time.perf_counter()
            m = run_experiment(c).metrics
            assert time.perf_counter() - started < 30.0
            scores[comm].append((m.cmc[0], m.map_score, m.avg_purity))
        for i, name in enumerate(("cmc1", "mAP", "avg_purity")):
            with_comm = statistics.fmean(s[i] for s in scores[True])
            without = statistics.fmean(s[i] for s in scores[False])
            assert with_comm >= without, (
                f"{name}: {with_comm:.5f} with communication vs "
                f"{without:.5f} without")


def test_crowding_overfragments_and_degrades_map():
    with criterion("over-fragmentation trend (6 -> 50 people, 10 seeds)"):
        few, many = (row.means for row in sweep(
            _configure(_NOISE_TRIPLE), "people.count", [6, 50],
            seeds=range(10), workers=2))
        growth = many["total_clusters"] / few["total_clusters"]
        assert growth > 50 / 6, (
            f"cluster growth {growth:.2f}x is not super-linear "
            f"(person growth {50 / 6:.2f}x)")
        assert many["map"] < few["map"], (
            f"mAP did not decline: {few['map']:.4f} -> {many['map']:.4f}")


def _random_exchange_sequence(mode):
    rng = np.random.default_rng(123)
    people = sample_attributes(8, np.random.default_rng(5), distinct=True)
    noise = DescriptionNoise(p_drop=0.2, p_synonym=0.2,
                             p_color_confusion=0.1)
    noise_rng = np.random.default_rng(6)
    dbs = {r: ClusterDatabase(owner=r, mode=mode) for r in range(4)}
    assigned = {r: set() for r in range(4)}
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    tick = 0
    for _ in range(1000):
        for _ in range(int(rng.integers(0, 2))):
            robot = int(rng.integers(0, 4))
            person = int(rng.integers(0, 8))
            text = describe(people[person], noise, noise_rng)
            record = DescriptionRecord.create(
                text=text, robot_id=robot, tick=tick, track_id=person,
                person_id=person)
            dbs[robot].assign_description(record, 0.9)
            assigned[robot].add(record.key)
            tick += 1
        i, j = pairs[int(rng.integers(0, len(pairs)))]
        union = dbs[i].record_keys() | dbs[j].record_keys()
        exchange(dbs[i], dbs[j], 0.8)
        assert dbs[i].record_keys() == union, "records lost in exchange"
        assert dbs[j].record_keys() == union, "records lost in exchange"
        snapshot = (dbs[i].to_json(), dbs[j].to_json())
        exchange(dbs[i], dbs[j], 0.8)
        assert (dbs[i].to_json(), dbs[j].to_json()) == snapshot, (
            "second exchange was not a no-op")
    every_assigned = set().union(*assigned.values())
    final_union = set().union(*(db.record_keys() for db in dbs.values()))
    assert final_union == every_assigned, "records lost over the run"
    for db in dbs.values():
        assert db.record_keys() >= assigned[db.owner]
        db.check_invariants()


def test_exchange_invariants_over_random_sequences():
    for mode in ("text", "vector-baseline"):
        with criterion(f"merge protocol invariants, {mode} mode "
                       "(1000 exchanges, 0 violations)"):
            _random_exchange_sequence(mode)


_DETERMINISM_CONFIGS = [
    [("duration_ticks", 1200)],
    [("duration_ticks", 1200),
     ("arena.obstacles", ((-6.0, -6.0, -2.0, -2.0), (2.0, 3.0, 7.0, 8.0)))],
    [("duration_ticks", 600), ("people.count", 50), *_NOISE_TRIPLE],
    [("duration_ticks", 1200), ("communication_enabled", False),
     *_NOISE_TRIPLE],
    [("duration_ticks", 1200), ("mode", "vector-baseline"),
     ("people.distinct_outfits", True)],
]


def test_runs_are_byte_deterministic(tmp_path):
    with criterion("determinism (5 configs x 3 seeds, byte-identical)"):
        for ci, pairs in enumerate(_DETERMINISM_CONFIGS):
            for seed in range(3):
                c = _configure([*pairs, ("seed", seed)])
                first = run_experiment(c).save(tmp_path / f"{ci}_{seed}_a")
                second = run_experiment(c).save(tmp_path / f"{ci}_{seed}_b")
                names = sorted(p.name for p in first.iterdir())
                assert names == sorted(p.name for p in second.iterdir())
                for name in names:
                    assert ((first / name).read_bytes()
                            == (second / name).read_bytes()), (
                        f"config {ci} seed {seed}: {name} differs")


def _random_attributes(rng):
    upper = vocab.UPPER_TYPES[int(rng.integers(0, len(vocab.UPPER_TYPES)))]
    if upper == "dress" and rng.random() < 0.5:
        lower, lower_color = "none", None
    else:
        lower = vocab.LOWER_TYPES[int(rng.integers(0, 4))]
        lower_color = vocab.PALETTE[int(rng.integers(0, 12))]
    accessories = frozenset(
        a for a in vocab.ACCESSORIES if rng.random() < 0.3)
    hair = (vocab.PALETTE[int(rng.integers(0, 12))]
            if rng.random() < 0.4 else None)
    return PersonAttributes(
        noun=vocab.NOUNS[int(rng.integers(0, len(vocab.NOUNS)))],
        upper_color=vocab.PALETTE[int(rng.integers(0, 12))],
        upper_type=upper, lower_type=lower, lower_color=lower_color,
        accessories=accessories, hair_color=hair)


def test_summarizer_order_and_multiplicity_invariance():
    with criterion("summarizer invariance (1000 multisets, 0 violations)"):
        rng = np.random.default_rng(77)
        noise = DescriptionNoise(p_drop=0.3, p_synonym=0.3,
                                 p_color_confusion=0.2)
        for _ in range(1000):
            texts = [
                describe(_random_attributes(rng), noise, rng)
                for _ in range(int(rng.integers(1, 8)))
            ]
            reference = summarize(texts)
            shuffled = [texts[i] for i in rng.permutation(len(texts))]
            assert summarize(shuffled) == reference, "order changed the summary"
            # whole-multiset replication keeps every slot proportion intact
            copies = int(rng.integers(2, 5))
            replicated = texts * copies
            assert summarize(replicated) == reference, (
                "replication changed the summary")
            shuffled_replica = [replicated[i]
                                for i in rng.permutation(len(replicated))]
            assert summarize(shuffled_replica) == reference, (
                "replication plus permutation changed the summary")


def test_embedding_monotone_over_full_template_corpus():
    with criterion("token-overlap monotonicity (full template corpus)"):
        cache = {}

        def vec(text):
            if text not in cache:
                cache[text] = embed(tokenize(text))
            return cache[text]

        violations = 0
        pairs = 0
        lowers = [t for t in vocab.LOWER_TYPES if t != "none"]
        for noun in vocab.NOUNS:
            for uc, ut in itertools.product(vocab.PALETTE, vocab.UPPER_TYPES):
                for lc, lt in itertools.product(vocab.PALETTE, lowers):
                    chain = [
                        f"a {noun}",
                        f"a {noun} wearing a {uc} {ut}",
                        f"a {noun} wearing a {uc} {ut} and {lc} {lt}",
                        f"a {noun} wearing a {uc} {ut} and {lc} {lt}, with a hat",
                    ]
                    target = vec(chain[-1])
                    sims = [cosine(target, vec(t)) for t in chain]
                    for a, b in zip(sims, sims[1:]):
                        pairs += 1
                        if b < a:
                            violations += 1
        assert pairs == 51840
        assert violations == 0, f"{violations} of {pairs} pairs regressed"


def test_vocabulary_collisions_are_enumerated_and_harmless():
    with criterion("vocabulary collision report (aligned pairs frozen)"):
        report = vocabulary_collision_report()
        assert report["dim"] == 256
        aligned = {tuple(p) for p in report["aligned_collisions"]}
        assert aligned == {("brown", "gray"), ("guy", "t"),
                           ("individual", "pants")}
        vocabulary = set()
        for entry in report["bucket_collisions"]:
            vocabulary.update(entry["words"])
        assert report["word_count"] >= len(vocabulary)
