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


class _Labeled(NamedTuple):
    """A pooled cluster with what evaluation reads of its sealed ids."""

    owner: int
    cluster: Cluster
    # Most frequent sealed person id among members; ties to the lower id.
    person_id: int
    # Share of members carrying ``person_id``.
    purity: float
    # Every sealed person id among members.
    person_ids: Iterable[int]


def _label(cluster: Cluster) -> tuple[int, float, Iterable[int]]:
    """The ``_Labeled`` fields of a cluster, in the one pass over its
    members that evaluation makes."""
    counts = Counter(m.person_id for m in cluster.members)
    top = max(counts.values())
    return (min(pid for pid, c in counts.items() if c == top),
            top / len(cluster.members), counts.keys())


def _labeled(dbs: Sequence[ClusterDatabase]) -> list[_Labeled]:
    return [_Labeled(db.owner, c, *_label(c)) for db in dbs for c in db.clusters.values()]


def _purities(labeled: Sequence[_Labeled], gt: Sequence[int]) -> tuple[float, float]:
    """Average and normalized purity: means over the ids of ``gt``.

    An id's average purity is that of the largest cluster whose majority is
    that id (ties: more recent last member tick, then lower uid, then lower
    owner); its normalized purity is the mean purity of all its majority
    clusters. An id with no majority cluster anywhere scores 0 in both.
    """
    by_id: dict[int, list[_Labeled]] = {}
    for item in labeled:
        by_id.setdefault(item.person_id, []).append(item)
    largest = mean = 0.0
    for pid in gt:
        candidates = by_id.get(pid)
        if not candidates:
            continue
        retained = min(
            candidates,
            key=lambda item: (-len(item.cluster.members),
                              -item.cluster.last_member_tick(),
                              item.cluster.uid, item.owner),
        )
        largest += retained.purity
        mean += sum(item.purity for item in candidates) / len(candidates)
    return largest / len(gt), mean / len(gt)


def _probe_gallery(labeled: Sequence[_Labeled],
                   people: Sequence[tuple[int, PersonAttributes]],
                   ops: LanguageOps) -> tuple[list[Probe], list[GalleryItem]]:
    attrs = dict(people)
    detected = sorted({pid for item in labeled for pid in item.person_ids})
    missing = [pid for pid in detected if pid not in attrs]
    if missing:
        raise ContractError(f"no attributes supplied for detected ids {missing}")
    probes = [
        Probe(pid, ops.embed(language.tokenize(canonical_description(attrs[pid]))))
        for pid in detected
    ]
    gallery = [GalleryItem(item.cluster.uid, item.owner, item.person_id,
                           item.cluster.embedding) for item in labeled]
    gallery.sort(key=lambda g: (g.uid, g.owner))
    return probes, gallery


def _rank_metrics(probes: Sequence[Probe],
                  gallery: Sequence[GalleryItem]) -> tuple[tuple[float, ...], float]:
    """CMC over every rank and mAP, ranking the gallery once per probe.

    cmc[k-1] is the fraction of probes whose correct person id appears among
    the top-k ranked gallery clusters. AP for one probe is the mean, over the
    correct gallery items at ranks r_1 < r_2 < ..., of (number of correct
    items at rank <= r_i) / r_i; a probe with no correct item scores 0.
    Precision averaging runs on exact rationals; only the final value is a
    float.

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
    first_hits = [0] * len(gallery)
    ap_total = Fraction(0)
    for probe in probes:
        sims = np.array([language.cosine(probe.embedding, e)
                         for e in distinct.values()])[which]
        order = np.lexsort((owners, counters, origins, -sims))
        ranks = np.flatnonzero(persons[order] == probe.person_id) + 1
        if len(ranks):
            first_hits[ranks[0] - 1] += 1
            precisions = sum(Fraction(i, int(r)) for i, r in enumerate(ranks, start=1))
            ap_total += Fraction(precisions, len(ranks))
    cmc = tuple(c / len(probes) for c in accumulate(first_hits))
    return cmc, float(ap_total / len(probes))


def compute_report(
    dbs: Sequence[ClusterDatabase],
    people: Sequence[tuple[int, PersonAttributes]],
    ground_truth_ids: Iterable[int],
    config_fingerprint: str,
    ops: LanguageOps = REFERENCE_OPS,
) -> MetricsReport:
    """Full evaluation of a finished run; the only way into the metrics.

    With an empty gallery (nothing ever detected) the CMC curve is empty and
    mAP is 0 rather than an error, so zero-length runs still report cleanly.
    """
    gt = sorted(set(ground_truth_ids))
    if not gt:
        raise ContractError("ground_truth_ids must be non-empty")
    labeled = _labeled(dbs)
    probes, gallery = _probe_gallery(labeled, people, ops)
    # Every gallery cluster has a detected person, so probes is non-empty.
    cmc, ap = _rank_metrics(probes, gallery) if gallery else ((), 0.0)
    avg_purity, normalized_purity = _purities(labeled, gt)
    return MetricsReport(
        cmc=cmc,
        map_score=ap,
        avg_purity=avg_purity,
        normalized_purity=normalized_purity,
        clusters_per_robot=tuple(len(db.clusters) for db in dbs),
        detected_identity_count=len(probes),
        config_fingerprint=config_fingerprint,
    )
