import numpy as np
import pytest

from swarmreid.errors import ContractError
from swarmreid.language import cosine, embed, tokenize
from swarmreid.metrics import (GalleryItem, Probe, _labeled, _probe_gallery,
                               _purities, _rank_metrics, compute_report)
from swarmreid.perception import DescriptionRecord
from swarmreid.reid import REFERENCE_OPS, ClusterDatabase
from swarmreid.vocab import PersonAttributes

from oracles import oracle_cmc, oracle_map

# distinct filler texts so every track becomes its own cluster at theta 1.0
_FILLER = [
    "a man wearing a red shirt and blue jeans",
    "a woman wearing a green dress",
    "a boy wearing a yellow hoodie and black shorts",
    "a girl wearing a purple sweater and white pants",
    "a man wearing an orange jacket and brown trousers",
    "a woman wearing a pink coat and gray leggings",
    "a boy wearing a white polo and beige chinos",
    "a girl wearing a blue blouse and red skirt",
]


def _db_from_groups(owner, groups, texts=None):
    """One cluster per group; members carry the given sealed person ids."""
    db = ClusterDatabase(owner=owner)
    tick = 0
    for track, ids in enumerate(groups):
        text = texts[track] if texts else _FILLER[track]
        for pid in ids:
            db.assign_description(DescriptionRecord.create(
                text=text, robot_id=owner, tick=tick,
                track_id=track, person_id=pid), 1.0)
            tick += 1
    assert len(db.clusters) == len(groups)
    return db


def _purity(dbs, gt):
    """(average purity, normalized purity), as ``compute_report`` takes them."""
    return _purities(_labeled(dbs), sorted(gt))


class TestClusterPurity:
    def test_majority_proportion_and_undetected_penalty(self):
        db = _db_from_groups(0, [[1, 1, 2]])
        assert abs(_purity([db], {1, 2})[0] - 1 / 3) < 1e-12

    def test_largest_cluster_retained(self):
        db = _db_from_groups(0, [[1, 1, 1, 1, 2], [1, 1, 1]])
        assert _purity([db], {1})[0] == 0.8

    def test_all_pure_scores_one(self):
        db = _db_from_groups(0, [[1], [2]])
        assert _purity([db], {1, 2}) == (1.0, 1.0)

    def test_size_tie_broken_by_recency(self):
        # both majority-1 clusters have two members; ticks 2,3 beat 0,1
        db = _db_from_groups(0, [[1, 1], [1, 2]])
        assert _purity([db], {1})[0] == 0.5

    def test_empty_ground_truth_rejected(self):
        db = _db_from_groups(0, [[1]])
        with pytest.raises(ContractError, match="ground_truth_ids"):
            compute_report([db], [(1, _P1)], set(), "f" * 16)

    def test_database_order_irrelevant(self):
        a = _db_from_groups(0, [[1, 1, 2]])
        b = _db_from_groups(1, [[2, 2], [1]])
        assert _purity([a, b], {1, 2}) == _purity([b, a], {1, 2})


class TestNormalizedPurity:
    def test_mean_over_all_majority_clusters(self):
        # id 1 holds a pure pair and a 50/50 pair (tie labels toward 1)
        db = _db_from_groups(0, [[1, 1], [1, 2]])
        assert _purity([db], {1})[1] == 0.75

    def test_equals_average_purity_for_single_clusters(self):
        db = _db_from_groups(0, [[1, 1, 2], [3]])
        average, normalized = _purity([db], {1, 3})
        assert normalized == average


_P1 = PersonAttributes(noun="woman", upper_color="red", upper_type="shirt",
                       lower_type="skirt", lower_color="black")
_P2 = PersonAttributes(noun="woman", upper_color="red", upper_type="shirt",
                       lower_type="skirt", lower_color="gray")


class TestFragmentationDivergence:
    def _fragmented_dbs(self):
        # person 1 shredded into weak pure singletons; person 2 intact and
        # textually closer to person 1's canonical description than any shard
        db = ClusterDatabase(owner=0)
        shards = ["a woman", "a lady", "a woman with a hat"]
        for track, text in enumerate(shards):
            db.assign_description(DescriptionRecord.create(
                text=text, robot_id=0, tick=track, track_id=track,
                person_id=1), 1.0)
        db.assign_description(DescriptionRecord.create(
            text="a woman wearing a red shirt and gray skirt", robot_id=0,
            tick=10, track_id=9, person_id=2), 1.0)
        assert len(db.clusters) == 4
        return [db]

    def test_locally_pure_globally_confused(self):
        dbs = self._fragmented_dbs()
        report = compute_report(dbs, [(1, _P1), (2, _P2)], {1, 2}, "f" * 16)
        assert report.normalized_purity == 1.0
        assert report.cmc[0] < 1.0
        assert report.map_score < 1.0


class TestProbeGallery:
    def test_counts_by_construction(self):
        people = [(i, a) for i, a in enumerate(
            [_P1, _P2,
             PersonAttributes(noun="man", upper_color="blue",
                              upper_type="shirt", lower_type="pants",
                              lower_color="gray"),
             PersonAttributes(noun="boy", upper_color="green",
                              upper_type="hoodie", lower_type="shorts",
                              lower_color="black"),
             PersonAttributes(noun="girl", upper_color="yellow",
                              upper_type="dress", lower_type="none",
                              lower_color=None),
             PersonAttributes(noun="man", upper_color="purple",
                              upper_type="jacket", lower_type="jeans",
                              lower_color="blue")])]
        dbs = [_db_from_groups(r, [[pid] for pid, _ in people])
               for r in range(4)]
        probes, gallery = _probe_gallery(_labeled(dbs), people, REFERENCE_OPS)
        assert len(probes) == 6
        assert len(gallery) == 24
        assert [p.person_id for p in probes] == [0, 1, 2, 3, 4, 5]

    def test_undetected_person_absent_from_probes(self):
        db = _db_from_groups(0, [[1], [2]])
        people = [(1, _P1), (2, _P2),
                  (7, PersonAttributes(noun="man", upper_color="blue",
                                       upper_type="shirt", lower_type="pants",
                                       lower_color="gray"))]
        probes, _ = _probe_gallery(_labeled([db]), people, REFERENCE_OPS)
        assert [p.person_id for p in probes] == [1, 2]
        report = compute_report([db], people, {1, 2, 7}, "f" * 16)
        assert report.detected_identity_count == 2

    def test_empty_databases(self):
        probes, gallery = _probe_gallery(
            _labeled([ClusterDatabase(owner=0)]), [], REFERENCE_OPS)
        assert probes == [] and gallery == []

    def test_missing_attributes_rejected(self):
        db = _db_from_groups(0, [[1]])
        with pytest.raises(ContractError):
            _probe_gallery(_labeled([db]), [], REFERENCE_OPS)


def _basis(i):
    v = np.zeros(8)
    v[i] = 1.0
    return v


def _cmc(probes, gallery):
    return _rank_metrics(probes, gallery)[0]


def _ap(probes, gallery):
    return _rank_metrics(probes, gallery)[1]


class TestCmcCurve:
    def test_hand_ranked_example(self):
        gallery = [GalleryItem((0, 0), 0, 2, _basis(0)),
                   GalleryItem((0, 1), 0, 1, _basis(1)),
                   GalleryItem((0, 2), 0, 3, _basis(2))]
        probe = Probe(1, 0.9 * _basis(0) + 0.8 * _basis(1) + 0.1 * _basis(2))
        assert _cmc([probe], gallery) == (0.0, 1.0, 1.0)

    def test_perfect_top_one(self):
        gallery = [GalleryItem((0, i), 0, i, _basis(i)) for i in range(4)]
        probes = [Probe(i, _basis(i)) for i in range(4)]
        assert _cmc(probes, gallery) == (1.0, 1.0, 1.0, 1.0)

    def test_similarity_tie_goes_to_lower_uid(self):
        gallery = [GalleryItem((0, 5), 0, 1, _basis(0)),
                   GalleryItem((0, 2), 0, 2, _basis(0))]
        probe_two = Probe(2, _basis(0))
        assert _cmc([probe_two], gallery) == (1.0, 1.0)
        probe_one = Probe(1, _basis(0))
        assert _cmc([probe_one], gallery) == (0.0, 1.0)


class TestMeanAp:
    def test_single_correct_at_rank_one(self):
        gallery = [GalleryItem((0, 0), 0, 1, _basis(0)),
                   GalleryItem((0, 1), 0, 2, _basis(1)),
                   GalleryItem((0, 2), 0, 3, _basis(2))]
        probe = Probe(1, 0.9 * _basis(0) + 0.8 * _basis(1) + 0.1 * _basis(2))
        assert _ap([probe], gallery) == 1.0

    def test_correct_at_ranks_one_and_three(self):
        gallery = [GalleryItem((0, 0), 0, 1, _basis(0)),
                   GalleryItem((0, 1), 0, 2, _basis(1)),
                   GalleryItem((0, 2), 0, 1, _basis(2))]
        probe = Probe(1, 0.9 * _basis(0) + 0.8 * _basis(1) + 0.1 * _basis(2))
        assert abs(_ap([probe], gallery) - 5 / 6) < 1e-15

    def test_absent_identity_scores_zero(self):
        gallery = [GalleryItem((0, 0), 0, 2, _basis(0))]
        assert _ap([Probe(1, _basis(0))], gallery) == 0.0


def _random_instance(rng, max_probes=12, max_gallery=40, dim=16):
    n_probes = int(rng.integers(1, max_probes + 1))
    n_gallery = int(rng.integers(1, max_gallery + 1))
    ids = lambda n: rng.integers(0, 6, size=n)
    probes = [Probe(int(pid), rng.normal(size=dim)) for pid in ids(n_probes)]
    gallery = [
        GalleryItem((int(rng.integers(0, 4)), j), int(rng.integers(0, 4)),
                    int(pid), rng.normal(size=dim))
        for j, pid in enumerate(ids(n_gallery))
    ]
    return probes, gallery


class TestOracleEquivalence:
    def test_random_instances_match_exactly(self):
        rng = np.random.default_rng(20240)
        for _ in range(60):
            probes, gallery = _random_instance(rng)
            oracle_probes = [
                (p.person_id,
                 [cosine(p.embedding, g.embedding) for g in gallery])
                for p in probes
            ]
            oracle_gallery = [(g.uid, g.owner, g.person_id) for g in gallery]
            cmc, ap = _rank_metrics(probes, gallery)
            assert list(cmc) == oracle_cmc(oracle_probes, oracle_gallery,
                                           len(gallery))
            assert ap == oracle_map(oracle_probes, oracle_gallery)

    def test_cmc_monotone_and_bounded_by_map(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            probes, gallery = _random_instance(rng)
            curve, ap = _rank_metrics(probes, gallery)
            assert all(a <= b for a, b in zip(curve, curve[1:]))
            assert 0.0 <= ap <= curve[-1]
