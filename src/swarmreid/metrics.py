"""Swarm-level re-identification evaluation.

Probes are noise-free canonical description embeddings, one per ground-truth
person that shows up in any database. The gallery pools every cluster from
every database, labeled by the majority sealed person id of its members.
This is the only place the sealed ids are read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import language
from .errors import ContractError
from .perception import PersonAttributes, canonical_description
from .reid import ClusterDatabase, Cluster, ClusterUid, LanguageOps, REFERENCE_OPS, canonical_json


class Probe(NamedTuple):
    person_id: int
    embedding: np.ndarray


class GalleryItem(NamedTuple):
    uid: ClusterUid
    owner: int
    person_id: int
    embedding: np.ndarray


@dataclass(frozen=True)
class MetricsReport:
    cmc: tuple[float, ...]
    map_score: float
    avg_purity: float
    normalized_purity: float
    clusters_per_robot: tuple[int, ...]
    detected_identity_count: int
    config_fingerprint: str

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    def cmc_csv(self) -> str:
        lines = ["rank,cmc"]
        lines.extend(f"{k + 1},{v!r}" for k, v in enumerate(self.cmc))
        return "\n".join(lines) + "\n"


def majority_person(cluster: Cluster) -> int:
    """Most frequent sealed person id among members; ties to the lower id."""
    counts = Counter(m.person_id for m in cluster.members)
    top = max(counts.values())
    return min(pid for pid, c in counts.items() if c == top)


def _purity_value(cluster: Cluster) -> float:
    counts = Counter(m.person_id for m in cluster.members)
    return max(counts.values()) / len(cluster.members)


def _pooled(dbs: Sequence[ClusterDatabase]) -> list[tuple[int, Cluster]]:
    return [(db.owner, c) for db in dbs for c in db.clusters.values()]


def cluster_purity(dbs: Sequence[ClusterDatabase],
                   ground_truth_ids: Iterable[int]) -> float:
    """Mean largest-cluster purity over ground-truth ids.

    For each id, keep only the largest cluster whose majority is that id
    (ties: more recent last member tick, then lower uid) and score its
    purity; ids with no majority cluster anywhere score 0.
    """
    gt = sorted(set(ground_truth_ids))
    if not gt:
        raise ContractError("ground_truth_ids must be non-empty")
    by_id: dict[int, list[tuple[int, Cluster]]] = {}
    for owner, c in _pooled(dbs):
        by_id.setdefault(majority_person(c), []).append((owner, c))
    total = 0.0
    for pid in gt:
        candidates = by_id.get(pid)
        if not candidates:
            continue
        retained = min(
            candidates,
            key=lambda oc: (-len(oc[1].members), -oc[1].last_member_tick(),
                            oc[1].uid, oc[0]),
        )
        total += _purity_value(retained[1])
    return total / len(gt)


def normalized_purity(dbs: Sequence[ClusterDatabase],
                      ground_truth_ids: Iterable[int]) -> float:
    """Mean over ids of the mean purity of all their majority clusters."""
    gt = sorted(set(ground_truth_ids))
    if not gt:
        raise ContractError("ground_truth_ids must be non-empty")
    by_id: dict[int, list[float]] = {}
    for _owner, c in _pooled(dbs):
        by_id.setdefault(majority_person(c), []).append(_purity_value(c))
    total = 0.0
    for pid in gt:
        values = by_id.get(pid)
        if values:
            total += sum(values) / len(values)
    return total / len(gt)


def build_probe_gallery(
    dbs: Sequence[ClusterDatabase],
    people: Sequence[tuple[int, PersonAttributes]],
    ops: LanguageOps = REFERENCE_OPS,
) -> tuple[list[Probe], list[GalleryItem]]:
    """Probe and gallery sets for CMC/mAP computation.

    One probe per detected person (appearing in any database), embedded from
    its canonical noise-free description; the gallery holds every cluster
    from every database.
    """
    attrs = dict(people)
    detected = sorted({
        m.person_id for db in dbs for c in db.clusters.values() for m in c.members
    })
    missing = [pid for pid in detected if pid not in attrs]
    if missing:
        raise ContractError(f"no attributes supplied for detected ids {missing}")
    probes = [
        Probe(pid, ops.embed(language.tokenize(canonical_description(attrs[pid]))))
        for pid in detected
    ]
    gallery = [
        GalleryItem(c.uid, db.owner, majority_person(c), c.embedding)
        for db in dbs for c in db.clusters.values()
    ]
    gallery.sort(key=lambda g: (g.uid, g.owner))
    return probes, gallery


def _rank_metrics(probes: Sequence[Probe], gallery: Sequence[GalleryItem],
                  k_max: int) -> tuple[tuple[float, ...], float]:
    """CMC over ranks 1..k_max and mAP, ranking the gallery once per probe.

    The ranking key is (-similarity, uid, owner). Clusters share embedding
    objects, so each distinct one is scored once, with ``language.cosine``
    so that ties and ranks follow its exact floats.
    """
    distinct = {id(g.embedding): g.embedding for g in gallery}
    slot = {key: i for i, key in enumerate(distinct)}
    which = np.array([slot[id(g.embedding)] for g in gallery], dtype=np.intp)
    origins, counters = np.array([g.uid for g in gallery], dtype=np.int64).T
    owners = np.array([g.owner for g in gallery])
    persons = np.array([g.person_id for g in gallery])
    first_hits = [0] * k_max
    ap_total = Fraction(0)
    for probe in probes:
        sims = np.array([language.cosine(probe.embedding, e)
                         for e in distinct.values()])[which]
        order = np.lexsort((owners, counters, origins, -sims))
        ranks = np.flatnonzero(persons[order] == probe.person_id) + 1
        if len(ranks):
            if ranks[0] <= k_max:
                first_hits[ranks[0] - 1] += 1
            precisions = sum(Fraction(i, int(r)) for i, r in enumerate(ranks, start=1))
            ap_total += Fraction(precisions, len(ranks))
    cmc = tuple(c / len(probes) for c in accumulate(first_hits))
    return cmc, float(ap_total / len(probes))


def cmc_curve(probes: Sequence[Probe], gallery: Sequence[GalleryItem],
              k_max: int) -> tuple[float, ...]:
    """Cumulative match characteristic over ranks 1..k_max.

    cmc[k-1] is the fraction of probes whose correct person id appears among
    the top-k ranked gallery clusters. Monotone non-decreasing by
    construction.
    """
    if not gallery:
        raise ContractError("gallery must be non-empty")
    if k_max < 1:
        raise ContractError("k_max must be at least 1")
    if not probes:
        return tuple(0.0 for _ in range(k_max))
    return _rank_metrics(probes, gallery, k_max)[0]


def mean_ap(probes: Sequence[Probe], gallery: Sequence[GalleryItem]) -> float:
    """Mean average precision over probes.

    AP for one probe is the mean, over the correct gallery items at ranks
    r_1 < r_2 < ..., of (number of correct items at rank <= r_i) / r_i; a
    probe with no correct item scores 0. Precision averaging runs on exact
    rationals; only the final value is a float.
    """
    if not gallery:
        raise ContractError("gallery must be non-empty")
    if not probes:
        return 0.0
    return _rank_metrics(probes, gallery, 1)[1]


def compute_report(
    dbs: Sequence[ClusterDatabase],
    people: Sequence[tuple[int, PersonAttributes]],
    ground_truth_ids: Iterable[int],
    config_fingerprint: str,
    ops: LanguageOps = REFERENCE_OPS,
) -> MetricsReport:
    """Full evaluation of a finished run.

    With an empty gallery (nothing ever detected) the CMC curve is empty and
    mAP is 0 rather than an error, so zero-length runs still report cleanly.
    """
    probes, gallery = build_probe_gallery(dbs, people, ops=ops)
    if gallery:
        # Every gallery cluster has a detected person, so probes is non-empty.
        cmc, ap = _rank_metrics(probes, gallery, len(gallery))
    else:
        cmc = ()
        ap = 0.0
    return MetricsReport(
        cmc=cmc,
        map_score=ap,
        avg_purity=cluster_purity(dbs, ground_truth_ids),
        normalized_purity=normalized_purity(dbs, ground_truth_ids),
        clusters_per_robot=tuple(len(db.clusters) for db in dbs),
        detected_identity_count=len(probes),
        config_fingerprint=config_fingerprint,
    )
