"""Swarm-level re-identification evaluation.

Probes are noise-free canonical description embeddings, one per ground-truth
person that shows up in any database. The gallery pools every cluster from
every database, labeled by the majority sealed person id of its members.
This is the only place the sealed ids are read.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import language
from .errors import ContractError
from .perception import PersonAttributes, canonical_description
from .reid import ClusterDatabase, Cluster, LanguageOps, REFERENCE_OPS, canonical_json


class Probe(NamedTuple):
    person_id: int
    embedding: np.ndarray


class Gallery(NamedTuple):
    """Every pooled cluster as one row of int64 columns. A row's embedding is
    ``vectors[slots[row]]``: clusters share embedding objects, and each
    distinct one is listed once."""

    origins: np.ndarray
    counters: np.ndarray
    owners: np.ndarray
    # Most frequent sealed person id among the members; ties to the lower id.
    persons: np.ndarray
    slots: np.ndarray
    vectors: list[np.ndarray]


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


class _Reading(NamedTuple):
    """What evaluation reads of the pooled clusters, in one pass."""

    gallery: Gallery
    # Every sealed person id among members.
    detected: set[int]
    # Per majority person id: the retention key and purity of its retained
    # cluster (see _purities), and the purity of each of its majority
    # clusters, in pool order.
    retained: dict[int, tuple[tuple, float]]
    purities: dict[int, array]


def _label(cluster: Cluster) -> tuple[int, float, Iterable[int]]:
    """The majority sealed person id of a cluster's members (ties to the
    lower id), the share of members carrying it, and every id among them."""
    counts = Counter(m.person_id for m in cluster.members)
    top = max(counts.values())
    return (min(pid for pid, c in counts.items() if c == top),
            top / len(cluster.members), counts.keys())


def _read(dbs: Sequence[ClusterDatabase]) -> _Reading:
    """Read every cluster of ``dbs`` once, in pool order (database, then
    cluster), into the gallery columns and the per-person accumulators;
    nothing per cluster outlives its row."""
    columns = [array("q") for _ in Gallery._fields[:-1]]
    slot_of: dict[int, int] = {}
    vectors: list[np.ndarray] = []
    detected: set[int] = set()
    retained: dict[int, tuple[tuple, float]] = {}
    purities: dict[int, array] = defaultdict(partial(array, "d"))
    for db in dbs:
        for c in db.clusters.values():
            pid, purity, ids = _label(c)
            detected.update(ids)
            summary = c.summary
            key = (-len(c.members), -summary.samples[0].tick, c.uid, db.owner)
            if pid not in retained or key < retained[pid][0]:
                retained[pid] = key, purity
            purities[pid].append(purity)
            slot = slot_of.setdefault(id(summary.embedding), len(vectors))
            if slot == len(vectors):
                vectors.append(summary.embedding)
            for column, value in zip(columns, (*c.uid, db.owner, pid, slot)):
                column.append(value)
    gallery = Gallery(*(np.frombuffer(column, dtype=np.int64) for column in columns),
                      vectors)
    return _Reading(gallery, detected, retained, purities)


def _purities(reading: _Reading, gt: Sequence[int]) -> tuple[float, float]:
    """Average and normalized purity: means over the ids of ``gt``.

    An id's average purity is that of the largest cluster whose majority is
    that id (ties: more recent last member tick, then lower uid, then lower
    owner); its normalized purity is the mean purity of all its majority
    clusters. An id with no majority cluster anywhere scores 0 in both.
    """
    largest = mean = 0.0
    for pid in gt:
        if pid in reading.retained:
            largest += reading.retained[pid][1]
            shares = reading.purities[pid]
            mean += sum(shares) / len(shares)
    return largest / len(gt), mean / len(gt)


def _probes(detected: Iterable[int], people: Sequence[tuple[int, PersonAttributes]],
            ops: LanguageOps) -> list[Probe]:
    """One probe per detected person id, ascending: the embedding of its
    canonical description."""
    attrs = dict(people)
    detected = sorted(detected)
    missing = [pid for pid in detected if pid not in attrs]
    if missing:
        raise ContractError(f"no attributes supplied for detected ids {missing}")
    return [Probe(pid, ops.embed(language.tokenize(canonical_description(attrs[pid]))))
            for pid in detected]


def _rank_metrics(probes: Sequence[Probe],
                  gallery: Gallery) -> tuple[tuple[float, ...], float]:
    """CMC over every rank and mAP, ranking the gallery once per probe.

    cmc[k-1] is the fraction of probes whose correct person id appears among
    the top-k ranked gallery clusters. AP for one probe is the mean, over the
    correct gallery items at ranks r_1 < r_2 < ..., of (number of correct
    items at rank <= r_i) / r_i; a probe with no correct item scores 0.
    Precision averaging is exact, each probe's sum over one common
    denominator; only the final value is a float.

    The ranking key is (-similarity, uid, owner): the rows are put in (uid,
    owner) order once, and each probe's ranking is a stable sort of them by
    -similarity. Each distinct embedding is scored once, with
    ``language.cosine`` so that ties and ranks follow its exact floats.
    """
    by_uid = np.lexsort((gallery.owners, gallery.counters, gallery.origins))
    persons, slots = gallery.persons[by_uid], gallery.slots[by_uid]
    first_hits = np.zeros(len(by_uid), dtype=np.int64)
    ap_total = Fraction(0)
    for probe in probes:
        negated = np.fromiter((language.cosine(probe.embedding, v) for v in gallery.vectors),
                              dtype=np.float64, count=len(gallery.vectors))[slots]
        np.negative(negated, out=negated)
        order = np.argsort(negated, kind="stable")
        ranks = (np.flatnonzero(persons[order] == probe.person_id) + 1).tolist()
        if ranks:
            first_hits[ranks[0] - 1] += 1
            denominator = math.lcm(*ranks)
            ap_total += Fraction(
                sum(i * (denominator // r) for i, r in enumerate(ranks, start=1)),
                denominator * len(ranks))
    # One float object per distinct value: the curve is as long as the gallery.
    shares = [c / len(probes) for c in range(len(probes) + 1)]
    cmc = tuple(shares[c] for c in np.cumsum(first_hits).tolist())
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
    reading = _read(dbs)
    probes = _probes(reading.detected, people, ops)
    # Every gallery cluster has a detected person, so probes is non-empty.
    cmc, ap = (_rank_metrics(probes, reading.gallery) if len(reading.gallery.persons)
               else ((), 0.0))
    avg_purity, normalized_purity = _purities(reading, gt)
    return MetricsReport(
        cmc=cmc,
        map_score=ap,
        avg_purity=avg_purity,
        normalized_purity=normalized_purity,
        clusters_per_robot=tuple(len(db.clusters) for db in dbs),
        detected_identity_count=len(probes),
        config_fingerprint=config_fingerprint,
    )
