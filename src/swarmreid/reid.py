"""Per-robot cluster databases and the pairwise exchange protocol.

Each robot keeps an online clustering of the descriptions it has produced or
received. Assignment prefers track continuity, then falls back to cosine
similarity against each cluster's one vector: its summary's embedding in text
mode, its unit mean member embedding in vector-baseline mode. When two robots
meet they swap views of their clusters and each side folds the other's into
its own.

Cluster identity is the pair (origin robot id, origin-local counter). A
received cluster keeps its uid, so later meetings recognize already-imported
clusters by uid (directly or through the tombstone map of absorbed uids)
instead of re-running similarity matching. A tombstone names a live cluster,
so every redirect is one hop; beyond the cap the oldest is evicted.

Exchange is delta-state anti-entropy: each view lists just the records of its
cluster that the peer lacks, in member order. It rests on the prefix
contract: owners are unique within a swarm, a database assigns only its
owner's records, and exchange leaves both sides with the union of what they
held. So a database holds the first n records of each origin robot's
assignment order, and n, the length of its log from that origin, says what
it holds from it: the peer lacks every entry of the sender's log from the
peer's count on. A loaded database cannot know that it holds such prefixes,
so it is read-only. Each cluster whose uid the peer does not resolve is sent
as well, even with no such record, as the peer may match it by similarity
and tombstone it; a peer at or near its tombstone cap gets a view of every
cluster. Nothing is remembered per peer.

Exchange passes records by reference, so a run's databases share one record
object per record; databases loaded inside one ``shared_records`` scope share
them the same way. Views carry each cluster's ``Summary`` by reference too.
The similarity indexes of every database in the process keep slot ids into
one table of distinct vectors (``_VectorTable``).
"""

from __future__ import annotations

import json
import weakref
from array import array
from contextlib import contextmanager
from contextvars import ContextVar
from copy import deepcopy
from dataclasses import dataclass
from itertools import count
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ContractError, EmptyDescriptionError
from .language import (EMBEDDING_DIM, SlotTally, cached_tokens, cosine, embed,
                       summarize, tokenize)
from .perception import DescriptionRecord

ClusterUid = tuple[int, int]

SCHEMA_VERSION = 1
DEFAULT_TOMBSTONE_CAP = 1024

# The vector of a cluster before its first member, and the running sum it
# starts from; shared, as nothing writes into either.
_ZEROS = np.zeros(EMBEDDING_DIM)
_ZEROS.flags.writeable = False

# Record key -> record loaded in the current shared_records() scope, if any.
_loaded_records: ContextVar[dict | None] = ContextVar("_loaded_records",
                                                      default=None)


@contextmanager
def shared_records() -> Iterator[None]:
    """Let every ``from_dict`` in this scope share one record object per key.

    A member is looked up by its record key; the stored record is reused only
    when its text and person id match too, else the member gets a record of
    its own. Outside a scope each ``from_dict`` uses a private table.
    """
    token = _loaded_records.set({})
    try:
        yield
    finally:
        _loaded_records.reset(token)


@dataclass(frozen=True)
class LanguageOps:
    """Embedding/summarization implementations a database should use.

    The reference functions are the default; remote providers plug in here.
    A summarizer gets a cluster's member texts only, in member order.
    """

    embed: Callable[[Sequence[str]], np.ndarray] = embed
    summarize: Callable[[list[str]], str] = summarize


REFERENCE_OPS = LanguageOps()


class Summary(NamedTuple):
    """A cluster's summary state, never changed once built: each update
    binds a new one, so views and adopters share it by reference."""

    text: str
    # The matching vector: the text's embedding in text mode, the unit mean
    # member embedding in vector-baseline mode. Nothing writes into it, so
    # the vector table, which copies each vector object once, stays equal.
    embedding: np.ndarray
    # Slot votes of the members, reference summarizer only, else None.
    tally: SlotTally | None
    # The first three members in _sample_order, which query returns as a
    # hit's samples.
    samples: tuple[DescriptionRecord, ...]


# The summary of a cluster before its first member.
_EMPTY = Summary("", _ZEROS, None, ())


@dataclass(slots=True)
class Cluster:
    uid: ClusterUid
    members: list[DescriptionRecord]
    summary: Summary
    # Vector-baseline mode only, else None: member embeddings summed in
    # member order. Every append binds a new array.
    embedding_sum: np.ndarray | None


def _sample_order(record: DescriptionRecord) -> tuple[int, int, int]:
    """Most recent first, then robot id, then track id: a total order, as
    the key (robot_id, track_id, tick) is unique within a database."""
    return -record.tick, record.robot_id, record.track_id


class ClusterView(NamedTuple):
    """A cluster as it stood when the view was taken, for one receiver.

    The cluster then had ``n`` members; ``members`` is a new list of just
    those the receiver lacked, in member order, at positions ``seqs`` of
    their robots' assignment orders. ``source`` is the sender's member list
    itself, whose first ``n`` entries are the cluster (member lists only
    grow), and ``summary`` the sender's, both by reference.
    """

    uid: ClusterUid
    members: list[DescriptionRecord]
    seqs: list[int]
    n: int
    source: list[DescriptionRecord]
    summary: Summary


class _OriginLog(NamedTuple):
    """The records a database holds from one origin robot: entry ``s`` places
    the origin's ``s``-th assigned record, as two parallel columns with no
    tuple per record."""

    # uid of each record's cluster, which a record never leaves; None marks
    # a placeholder that the rest of the same delta fills
    uids: list[ClusterUid | None]
    # index of each record in its cluster's member list
    indexes: array

    def put(self, seq: int, uid: ClusterUid, index: int) -> None:
        """Set entry ``seq``, padding up to it: a delta's records come in
        cluster order, and it fills every gap, carrying all the receiver lacks."""
        pad = seq + 1 - len(self.uids)
        if pad > 0:
            self.uids.extend([None] * pad)
            self.indexes.extend([-1] * pad)
        self.uids[seq] = uid
        self.indexes[seq] = index


class QueryHit(NamedTuple):
    uid: ClusterUid
    score: float
    summary_text: str
    samples: tuple[DescriptionRecord, ...]


@dataclass(frozen=True)
class ExchangeStats:
    merged_into_a: int
    copied_to_a: int
    records_added_to_a: int
    merged_into_b: int
    copied_to_b: int
    records_added_to_b: int


# Slack of the ranking filter; see _SimilarityIndex.top for why it is safe.
_RANK_MARGIN = 1e-9


def _grown(mat: np.ndarray, rows: int) -> np.ndarray:
    """A zeroed buffer of twice ``mat``'s rows holding its first ``rows``.

    Only the rows in use are copied: the spare rows stay untouched zero
    pages, resident only once a row lands there.
    """
    grown = np.zeros((2 * len(mat), *mat.shape[1:]), dtype=mat.dtype)
    grown[:rows] = mat[:rows]
    return grown


class _VectorTable:
    """The distinct vectors behind every similarity index of the process.

    Clusters share vector objects (text-mode summaries through the embed
    cache, received views by reference), so an index row is a slot id into
    this table, which copies each distinct vector once. A slot is found by
    the id of its vector and counts the index rows naming it; while the count
    is positive the table holds the vector, so no other object can take its
    id. A slot whose count drops to zero is freed for the next new vector.

    The table also owns what ``_SimilarityIndex`` multiplies: one scratch
    matrix for ``best``, holding the rows of the index whose serial is
    ``owner``. For the last query vector object it keeps, until a slot is
    written, the product with every slot for ``top`` and the exact scores
    taken so far, so every database asked the same query shares them.
    """

    def __init__(self, dim: int) -> None:
        self.mat = np.zeros((16, dim), dtype=np.float64)
        # One entry per slot handed out so far: the rows of mat in use.
        self.vectors: list[np.ndarray | None] = []
        self.counts: list[int] = []
        self._slot_of: dict[int, int] = {}
        self._free: list[int] = []
        self.scratch = np.zeros((16, dim), dtype=np.float64)
        self.owner = -1
        # The last query vector its product and scores were taken for, None
        # once a slot is written; a freed slot's score is unreachable until
        # the slot is rewritten, which drops the memo.
        self._query: np.ndarray | None = None
        self._product: np.ndarray | None = None
        self._scores: dict[int, float] = {}
        self.indexes: weakref.WeakSet[_SimilarityIndex] = weakref.WeakSet()

    def take(self, vec: np.ndarray) -> int:
        """The slot of ``vec``, written on first use, counting one more row."""
        slot = self._slot_of.get(id(vec))
        if slot is None:
            if self._free:
                slot = self._free.pop()
            else:
                slot = len(self.vectors)
                if slot == len(self.mat):
                    self.mat = _grown(self.mat, slot)
                self.vectors.append(None)
                self.counts.append(0)
            self._slot_of[id(vec)] = slot
            self.vectors[slot] = vec
            self.mat[slot] = vec
            self._query = None
        self.counts[slot] += 1
        return slot

    def release(self, slot: int) -> None:
        """Count one row less naming ``slot``; free it at zero."""
        left = self.counts[slot] = self.counts[slot] - 1
        if not left:
            del self._slot_of[id(self.vectors[slot])]
            self.vectors[slot] = None
            self._free.append(slot)

    def live(self) -> int:
        """Slots that some index row names."""
        return len(self.vectors) - len(self._free)

    def gather(self, owner: int, slots: np.ndarray) -> None:
        """Fill the scratch with the rows of ``slots`` for index ``owner``."""
        n = len(slots)
        if n > len(self.scratch):
            self.scratch = np.zeros((max(n, 2 * len(self.scratch)), self.mat.shape[1]),
                                    dtype=np.float64)
        # mode="clip" skips the bounds pass that the default mode makes
        # when writing to ``out``; every slot is below len(vectors).
        np.take(self.mat, slots, axis=0, out=self.scratch[:n], mode="clip")
        self.owner = owner

    def _ask(self, vec: np.ndarray) -> None:
        """Drop the product and scores unless taken for ``vec`` since the
        last slot was written."""
        if self._query is not vec:
            self._query = vec
            self._product, self._scores = None, {}

    def products(self, vec: np.ndarray) -> np.ndarray:
        """Every slot's product with ``vec``, by slot; one product per
        query vector object while no slot is written."""
        self._ask(vec)
        if self._product is None:
            self._product = self.mat[:len(self.vectors)] @ vec
        return self._product

    def scores(self, vec: np.ndarray, slots: list[int]) -> list[float]:
        """``cosine(vec, vectors[slot])`` of each of ``slots``, taken once
        per slot per query vector object while no slot is written. Never
        read from the product, whose summation order differs."""
        self._ask(vec)
        known, vectors = self._scores, self.vectors
        out = []
        for slot in slots:
            score = known.get(slot)
            if score is None:
                score = known[slot] = cosine(vec, vectors[slot])
            out.append(score)
        return out

    def check(self) -> None:
        """Raise AssertionError unless the counts equal the rows of the live
        indexes naming each slot, an owned scratch holds its rows, and every
        current score of a live slot is its ``cosine`` bit for bit."""
        counts = np.zeros(len(self.vectors), dtype=np.int64)
        for index in list(self.indexes):
            slots = index._slots[:len(index._uids)]
            assert all(self.vectors[s] is not None for s in slots.tolist()), (
                "an index row names a freed slot")
            counts += np.bincount(slots, minlength=len(self.vectors))
            if index._serial == self.owner:
                assert (self.scratch[:len(slots)].tobytes()
                        == self.mat[slots].tobytes()), "stale scratch rows"
        assert counts.tolist() == self.counts, "slot counts differ from the rows"
        assert self.live() == np.count_nonzero(counts), "a held slot is free"
        if self._query is not None:
            for slot, score in self._scores.items():
                vec = self.vectors[slot]
                assert vec is None or score.hex() == cosine(self._query, vec).hex(), (
                    f"memo score of slot {slot} is not its cosine")


_TABLE = _VectorTable(EMBEDDING_DIM)
_serials = count()


class _SimilarityIndex:
    """Rows of cluster vectors in the shared table, one row per uid.

    Serves the argmax that assignment and merging decide by (``best``) and
    the candidate filter that ranked queries rescore exactly (``top``). A row
    is a slot id; the index releases its slots when it is dropped.
    """

    def __init__(self) -> None:
        self._uids: list[ClusterUid] = []
        self._rows: dict[ClusterUid, int] = {}
        self._slots = np.zeros(16, dtype=np.intp)
        # Unique for the life of the process, unlike id(self): it tags the
        # table's scratch as this index's rows.
        self._serial = next(_serials)
        # Bound here, so that __del__ needs no module global at exit.
        self._table = _TABLE
        _TABLE.indexes.add(self)

    def __del__(self) -> None:
        release = self._table.release
        for slot in self._slots[:len(self._uids)].tolist():
            release(slot)

    def __deepcopy__(self, memo: dict) -> "_SimilarityIndex":
        """A twin whose rows name deep copies of the vectors, the same
        copies as its clusters' when the whole database is copied."""
        twin = _SimilarityIndex()
        vectors = self._table.vectors
        for uid, slot in zip(self._uids, self._slots.tolist()):
            twin.set(uid, deepcopy(vectors[slot], memo))
        return twin

    def set(self, uid: ClusterUid, vec: np.ndarray) -> None:
        table = self._table
        row = self._rows.get(uid)
        if row is None:
            row = len(self._uids)
            if row == len(self._slots):
                self._slots = _grown(self._slots, row)
            self._uids.append(uid)
            self._rows[uid] = row
        else:
            # Released first, so a cluster whose vector changes reuses its
            # slot when no other row names it.
            table.release(int(self._slots[row]))
        slot = self._slots[row] = table.take(vec)
        if table.owner == self._serial:
            if row == len(table.scratch):
                table.scratch = _grown(table.scratch, row)
            table.scratch[row] = table.mat[slot]

    def best(self, vec: np.ndarray) -> tuple[ClusterUid, float] | None:
        """Most similar row as (uid, clamped dot product), ties to lowest uid.

        The product is taken with this index's rows gathered into one
        contiguous matrix in row order, so every row's summation is the one
        a private matrix of these rows gets, and the decisions with it.
        A winning row bitwise equal to ``vec`` scores exactly 1.0, the cosine
        of a vector with itself, which the float dot product can round below;
        so a threshold of 1.0 joins identical descriptions.
        """
        n = len(self._uids)
        if n == 0:
            return None
        table = self._table
        if table.owner != self._serial:
            table.gather(self._serial, self._slots[:n])
        mat = table.scratch[:n]
        sims = mat @ vec
        row = int(sims.argmax())
        top = sims[row]
        tied = sims == top
        if np.count_nonzero(tied) > 1:
            row = self._rows[min(self._uids[i] for i in np.flatnonzero(tied))]
        # A row bitwise equal to the unit vector ``vec`` scores about 1. Rows
        # and ``vec`` have one shape, so this is ``np.array_equal`` without
        # its wrapper, which costs more than the comparison at this size.
        if top >= 0.5 and (mat[row] == vec).all():
            return self._uids[row], 1.0
        return self._uids[row], min(1.0, max(-1.0, float(top)))

    def top(self, vec: np.ndarray, k: int) -> list[ClusterUid]:
        """Uids of every row whose product with ``vec`` comes within
        ``_RANK_MARGIN`` of the k-th best: all rows when ``k`` >= rows.

        The products are the table's, one per query vector for every index,
        gathered by slot. For unit vectors the product and any other
        summation order of the same dot product, such as ``cosine``, differ
        by at most 2*gamma_n, about 5.7e-14 at n = 256 (Higham, "Accuracy
        and Stability of Numerical Algorithms", section 3.1). A row left out
        scores more than the margin below k rows by product, so more than
        the margin minus 2*gamma_n below each of them by ``cosine``: the
        kept rows hold the exact top k under any tie rule, lower uids of
        tied scores included. Clamping to [-1, 1] keeps that order, since a
        product of unit vectors passes 1 by about gamma_n at most.
        """
        uids = self._uids
        n = len(uids)
        if k >= n:
            return list(uids)
        sims = self._table.products(vec).take(self._slots[:n])
        kth = np.partition(sims, n - k)[n - k]
        return [uids[i] for i in (sims >= kth - _RANK_MARGIN).nonzero()[0]]


class ClusterDatabase:
    """One robot's evolving clustering of description records; ``owner``
    must be unique among the databases that exchange (see ``exchange``)."""

    def __init__(self, owner: int, mode: str = "text",
                 tombstone_cap: int = DEFAULT_TOMBSTONE_CAP,
                 ops: LanguageOps = REFERENCE_OPS) -> None:
        if mode not in ("text", "vector-baseline"):
            raise ContractError(f"unknown matching mode {mode!r}")
        if tombstone_cap < 0:
            raise ContractError("tombstone_cap must be non-negative")
        self.owner = owner
        self.mode = mode
        self.clusters: dict[ClusterUid, Cluster] = {}
        self.uid_counter = 0
        self.tombstones: dict[ClusterUid, ClusterUid] = {}  # oldest first
        self.tombstone_cap = tombstone_cap
        self.ops = ops
        # (owner, track_id) -> (uid of the cluster that the track's first
        # record joined, tick of its last record); the cluster holds all the
        # track's records, as no owner's record arrives by exchange
        self._tracks: dict[tuple[int, int], tuple[ClusterUid, int]] = {}
        self._index = _SimilarityIndex()
        # origin robot id -> log of the records held from it, the owner's from
        # the start; None only in a database loaded by from_dict (read-only)
        self._by_origin: dict[int, _OriginLog] | None = {owner: _OriginLog([], array("q"))}

    # ---------- internals ----------

    def _new_cluster(self, uid: ClusterUid) -> Cluster:
        """Register an empty cluster; callers add members to it."""
        cluster = Cluster(uid=uid, members=[], summary=_EMPTY,
                          embedding_sum=None if self.mode == "text" else _ZEROS)
        self.clusters[uid] = cluster
        return cluster

    def _append(self, cluster: Cluster, records: Sequence[DescriptionRecord],
                seqs: Sequence[int] | None) -> None:
        """Add records not held yet to ``cluster``, in member order, each
        logged at its ``seqs`` position of its robot's order unless the
        database was loaded.

        One call takes a whole batch, as a loaded cluster is: the running
        sum is brought up to date once. Its callers pass no record held
        already: ``from_dict`` and ``assign_description`` refuse a repeated
        one, and a view lists only records the receiver lacks.
        """
        if cluster.embedding_sum is not None:
            total = cluster.embedding_sum
            for record in records:
                total = total + self.ops.embed(record.tokens)
            cluster.embedding_sum = total
        members = cluster.members
        by_origin = self._by_origin
        if by_origin is not None:
            uid, index = cluster.uid, len(members)
            for record, seq in zip(records, seqs):
                log = by_origin.get(record.robot_id)
                if log is None:
                    log = by_origin[record.robot_id] = _OriginLog([], array("q"))
                log.put(seq, uid, index)
                index += 1
        members.extend(records)

    def _vector(self, cluster: Cluster, text: str) -> np.ndarray:
        """The matching vector of ``cluster`` with summary ``text`` after
        appends, set as its index row.

        With a running sum, it is the unit mean: dividing a sum taken from
        zero in member order reproduces ``np.stack(vectors).mean(axis=0)``
        bit for bit. A mean too short to normalise, like text mode, takes
        the text's embedding. In text mode a non-empty text equal to the
        current one keeps its vector and row; a new cluster has no row.
        """
        if cluster.embedding_sum is None and text and text == cluster.summary.text:
            return cluster.summary.embedding
        vec = self.ops.embed(cached_tokens(text))
        if cluster.embedding_sum is not None:
            mean = cluster.embedding_sum / len(cluster.members)
            norm = float(np.linalg.norm(mean))
            if norm > 1e-12:
                vec = mean / norm
        self._index.set(cluster.uid, vec)
        return vec

    def _remember_tombstone(self, absorbed: ClusterUid, survivor: ClusterUid) -> None:
        """Redirect ``absorbed``, which does not resolve, to live ``survivor``."""
        self.tombstones[absorbed] = survivor
        while len(self.tombstones) > self.tombstone_cap:
            del self.tombstones[next(iter(self.tombstones))]

    def _resolve_uid(self, uid: ClusterUid) -> ClusterUid | None:
        """The live cluster ``uid`` names, directly or by its tombstone."""
        uid = self.tombstones.get(uid, uid)
        return uid if uid in self.clusters else None

    def _add_members(self, cluster: Cluster, records: Sequence[DescriptionRecord],
                     seqs: Sequence[int] | None, text: str | None = None) -> None:
        """Append records not held yet at their ``seqs`` positions, then
        bind the summary derived from the members, with a given ``text``
        instead of a summarizer's. The reference summarizer's tally takes
        ``plus`` of only the new texts; any other gets every member's text."""
        self._append(cluster, records, seqs)
        tally, samples = cluster.summary.tally, cluster.summary.samples
        if text is None:
            if self.ops.summarize is not summarize:
                text = self.ops.summarize([m.text for m in cluster.members])
            else:
                tally = (SlotTally([m.text for m in cluster.members]) if tally is None
                         else tally.plus([r.text for r in records]))
                text = tally.render()
        if len(records) == 1 and (not samples or records[0].tick > samples[0].tick):
            samples = (records[0], *samples[:2])
        else:
            samples = tuple(sorted((*samples, *records), key=_sample_order)[:3])
        cluster.summary = Summary(text, self._vector(cluster, text), tally, samples)

    def _take(self, cluster: Cluster, view: ClusterView) -> None:
        """Append ``view``'s records to ``cluster`` and bind its summary.

        A cluster that then holds exactly the sender's members adopts the
        sender's summary, as that depends only on the member set: a verbatim
        copy, which holds them in the sender's order, under any summarizer,
        and a merge whose held records lie among the sender's first ``n``
        under the reference summarizer only, as another may depend on member
        order. It takes the ``Summary`` object itself when its own vector is
        the sender's, as in text mode with one ``ops``, else that summary
        with its own vector. Every other cluster derives its own.
        """
        held, fresh, n = cluster.members, view.members, view.n
        if len(held) + len(fresh) == n and (
                not held or self.ops.summarize is summarize
                and (held == view.source[:len(held)]
                     or set(map(id, view.source[:n])).issuperset(map(id, held)))):
            self._append(cluster, fresh, view.seqs)
            summary = view.summary
            vec = self._vector(cluster, summary.text)
            cluster.summary = (summary if vec is summary.embedding
                               else summary._replace(embedding=vec))
        else:
            self._add_members(cluster, fresh, view.seqs)

    # ---------- operations ----------

    def assign_description(self, record: DescriptionRecord,
                           theta_local: float) -> tuple[ClusterUid, bool]:
        """Place one record; returns (cluster uid, whether it was created).

        Track continuity wins first: a record whose (robot_id, track_id) is
        already present joins that cluster regardless of similarity. Otherwise
        the record joins the most similar cluster if its similarity to the
        cluster's vector reaches ``theta_local`` (inclusive, ties toward the
        lowest uid), else it founds a new singleton cluster. A cluster vector
        bitwise identical to the record's scores exactly 1.0, so
        ``theta_local=1.0`` joins identical descriptions; ``query`` scores
        stay the raw clamped dot product. The record takes the next position
        in the owner's order (see ``exchange``). ContractError is raised
        before anything changes in a loaded database, which is read-only,
        and for a record of another robot than the owner or not after its
        track's last tick, as one assigned already.
        """
        if not (0.0 <= theta_local <= 1.0):
            raise ContractError(f"theta_local={theta_local} outside [0, 1]")
        if not record.tokens:
            raise EmptyDescriptionError("record has no tokens")
        if self._by_origin is None:
            raise ContractError(f"database of owner {self.owner} was loaded by "
                                "from_dict and is read-only")
        if record.robot_id != self.owner:
            raise ContractError(f"record {record.key} is not of owner {self.owner}")
        target, last = self._tracks.get(record.track, (None, None))
        if last is not None and record.tick <= last:
            raise ContractError(f"record {record.key} is not after tick {last} "
                                "of its track")
        if target is None:
            best = self._index.best(self.ops.embed(record.tokens))
            target = best[0] if best is not None and best[1] >= theta_local else None
        created = target is None
        if created:
            target = (self.owner, self.uid_counter)
            self.uid_counter += 1
            self._new_cluster(target)
        self._tracks[record.track] = target, record.tick
        self._add_members(self.clusters[target], [record],
                          [len(self._by_origin[self.owner].uids)])
        return target, created

    def query(self, text: str, k: int) -> list[QueryHit]:
        """Rank clusters against a free-text query.

        Hits are ordered by ``cosine`` of the query embedding with each
        cluster's embedding, ties to the lowest uid. The similarity
        index only narrows which clusters get scored: one matrix-vector
        product keeps the rows that can reach the top ``k`` (see
        ``_SimilarityIndex.top``), and only those are scored exactly, so
        every hit and score equals a ranking of all clusters. Exact scores
        are the vector table's, taken once per distinct vector and shared
        by every database asked the same query until a slot is written.

        Raises EmptyDescriptionError when the query tokenizes to nothing.
        An empty database yields an empty list. Each hit carries the
        cluster's ``samples``: up to three members, most recent first.
        """
        if k < 1:
            raise ContractError(f"k={k} must be at least 1")
        vec = self.ops.embed(cached_tokens(text))
        index = self._index
        uids = index.top(vec, k)
        rows, slots = index._rows, index._slots
        scores = index._table.scores(vec, [int(slots[rows[uid]]) for uid in uids])
        # Negation is exact, so -(-score) is the score bit for bit.
        ranked = sorted(zip([-score for score in scores], uids))
        clusters = self.clusters
        hits = []
        for negated, uid in ranked[:k]:
            summary = clusters[uid].summary
            hits.append(QueryHit(uid, -negated, summary.text, summary.samples))
        return hits

    def record_count(self) -> int:
        return sum(len(c.members) for c in self.clusters.values())

    def _delta_for(self, peer: "ClusterDatabase") -> list[ClusterView]:
        """Views to send ``peer``, ascending uid: those a full-state exchange
        would act on, each listing just the records of its cluster the peer
        lacks, in member order, with ``n`` the cluster's member count.

        A full-state view of a cluster whose uid the peer resolves only adds
        the records the peer lacks there; one whose uid it does not resolve
        runs a similarity match whatever the peer holds, and may copy the
        cluster's summary when the peer lacks every member. So a cluster the
        peer resolves and lacks nothing of is not sent, and one it does not
        resolve is sent even with no record, as the peer may tombstone it.
        By the prefix contract the peer holds the first n records of each
        origin's order, n the length of its log, and lacks every entry of
        this database's log from there on: one slice per origin. Only
        eviction un-resolves a uid, so a peer whose tombstones could reach
        its cap while absorbing gets a view of every cluster.
        """
        clusters = self.clusters
        # Tombstones name live clusters, so every tombstoned uid resolves.
        unresolved = clusters.keys() - peer.clusters.keys() - peer.tombstones.keys()
        lacking: dict[ClusterUid, list[tuple[int, int]]] = {}
        for origin, (uids, indexes) in self._by_origin.items():
            peer_log = peer._by_origin.get(origin)
            start = 0 if peer_log is None else len(peer_log.uids)
            for uid, i, seq in zip(uids[start:], indexes[start:], count(start)):
                lacking.setdefault(uid, []).append((i, seq))
        sent = lacking.keys() | unresolved
        if 0 < peer.tombstone_cap <= len(peer.tombstones) + len(sent):
            sent = clusters.keys()
        views = []
        for uid in sorted(sent):
            c = clusters[uid]
            listed = sorted(lacking.get(uid, ()))
            views.append(ClusterView(uid, [c.members[i] for i, _ in listed],
                                     [seq for _, seq in listed], len(c.members),
                                     c.members, c.summary))
        return views

    def _absorb(self, received: list[ClusterView], theta_merge: float
                ) -> tuple[int, int, int]:
        """Fold received views in; returns (merged, copied, added).

        Each view lists what this database lacked of its cluster when taken;
        the sender's clusters hold disjoint records, so that is exactly what
        full-state absorption finds fresh; ``_take`` adds it.
        """
        merged = copied = added_total = 0
        for view in received:
            fresh = view.members
            target = self._resolve_uid(view.uid)
            if target is None:
                best = self._index.best(view.summary.embedding)
                if best is None or best[1] < theta_merge:
                    # A verbatim copy: re-summing its members in member order
                    # reproduces the origin's sum bit for bit. With no fresh
                    # record, every one already lives in some local cluster.
                    if fresh:
                        self._take(self._new_cluster(view.uid), view)
                        copied += 1
                        added_total += len(fresh)
                    continue
                target = best[0]
                self._remember_tombstone(view.uid, target)
            merged += 1
            # A delta view of a cluster whose uid resolved here carries a
            # fresh record; any other view may carry none.
            if fresh:
                self._take(self.clusters[target], view)
                added_total += len(fresh)
        return merged, copied, added_total

    # ---------- serialization ----------

    def to_json(self, memo: dict[str, str] | None = None) -> str:
        """The snapshot as ``canonical_json`` of its document."""
        return "".join(self.json_chunks(memo))

    def json_chunks(self, memo: dict[str, str] | None = None) -> Iterator[str]:
        """The text of ``to_json`` in pieces of one cluster each, so a save
        can write it without holding it whole.

        Each distinct member text is encoded once per ``memo``, keyed by the
        text, so databases saved with one memo encode a text they share
        once. The document is composed around those encodings: ``"clusters"``
        sorts first among the snapshot's keys, ``"members"`` first among a
        cluster's, and a member's fields are written in sorted key order.
        """
        if memo is None:
            memo = {}
        yield '{"clusters":['
        for n, uid in enumerate(sorted(self.clusters)):
            c = self.clusters[uid]
            members = []
            for m in c.members:
                text = memo.get(m.text)
                if text is None:
                    text = memo[m.text] = canonical_json(m.text)
                members.append(f'{{"person_id":{m.person_id},"robot_id":{m.robot_id},'
                               f'"text":{text},"tick":{m.tick},"track_id":{m.track_id}}}')
            rest = canonical_json({
                "uid": list(uid),
                "summary_text": c.summary.text,
                "track_ids": [list(t) for t in
                              sorted({m.track for m in c.members})],
            })
            yield ("," if n else "") + '{"members":[' + ",".join(members) + "]," + rest[1:]
        rest = canonical_json({
            "schema_version": SCHEMA_VERSION,
            "owner": self.owner,
            "mode": self.mode,
            "uid_counter": self.uid_counter,
            "tombstone_cap": self.tombstone_cap,
            "tombstones": [[list(k), list(v)] for k, v in self.tombstones.items()],
        })
        yield "]," + rest[1:]

    @classmethod
    def from_dict(cls, d: dict, ops: LanguageOps = REFERENCE_OPS) -> "ClusterDatabase":
        if _loaded_int(d.get("schema_version"), "schema_version") != SCHEMA_VERSION:
            raise ContractError(f"unsupported snapshot schema_version {d['schema_version']}")
        db = cls(owner=_loaded_int(d["owner"], "owner"), mode=d["mode"],
                 tombstone_cap=_loaded_int(d.get("tombstone_cap", DEFAULT_TOMBSTONE_CAP),
                                           "tombstone_cap", least=0), ops=ops)
        db.uid_counter = _loaded_int(d["uid_counter"], "uid_counter", least=0)
        # A snapshot need not hold a prefix of every origin's records, say an
        # earlier one of a database that has gone on: no origin logs, read-only.
        db._by_origin = None
        records = _loaded_records.get()
        if records is None:
            records = {}
        # Keys of the members so far, to refuse a record listed twice.
        held: set[tuple[int, int, int]] = set()
        listed = 0
        for cd in d["clusters"]:
            cluster = db._new_cluster(_loaded_uid(cd["uid"], "cluster uid"))
            members = []
            for m in cd["members"]:
                text, person_id = m["text"], m["person_id"]
                robot_id, track_id, tick = m["robot_id"], m["track_id"], m["tick"]
                record = records.get((robot_id, track_id, tick))
                # A reused record skips create's checks, and a float or a
                # bool finds the record of the int it equals: the ints are
                # checked by exact type first.
                if (record is None or record.text != text
                        or record.person_id != person_id
                        or not (type(robot_id) is type(track_id) is type(tick)
                                is type(person_id) is int)):
                    record = DescriptionRecord.create(
                        text=text, robot_id=robot_id, tick=tick,
                        track_id=track_id, person_id=person_id,
                    )
                    # Keyed by the record's own key tuple, so the table
                    # holds no tuple the records do not already hold.
                    records.setdefault(record.key, record)
                members.append(record)
                held.add(record.key)
            listed += len(members)
            if len(held) != listed:
                raise ContractError(f"snapshot cluster {cluster.uid} members repeat a "
                                    "record or one held already")
            try:
                tracks = {tuple(t) for t in cd["track_ids"]}
            except TypeError:
                raise ContractError(f"snapshot track_ids {cd['track_ids']!r} of cluster "
                                    f"{cluster.uid} is not a list of track pairs") from None
            if {m.track for m in members} != tracks:
                raise ContractError(f"snapshot cluster {cluster.uid} lists tracks "
                                    "other than its members'")
            summary = cd["summary_text"]
            if type(summary) is not str:
                raise ContractError(f"snapshot summary_text {summary!r} is not a string")
            db._add_members(cluster, members, None, summary)
        for k, v in d.get("tombstones", []):
            k, v = _loaded_uid(k, "tombstone key"), _loaded_uid(v, "tombstone target")
            if k in db.clusters or k in db.tombstones or v not in db.clusters:
                raise ContractError(f"snapshot tombstone {k} -> {v} is not one hop")
            db.tombstones[k] = v
        if len(db.tombstones) > db.tombstone_cap:
            raise ContractError("snapshot has more tombstones than its cap")
        return db

    @classmethod
    def from_json(cls, text: str, ops: LanguageOps = REFERENCE_OPS) -> "ClusterDatabase":
        return cls.from_dict(json.loads(text), ops=ops)

    # ---------- diagnostics ----------

    def check_invariants(self) -> None:
        """Raise AssertionError if any structural invariant is violated."""
        keys = set()
        held = 0
        tracks: dict = {}
        for uid, c in self.clusters.items():
            assert c.uid == uid
            assert c.members, f"cluster {uid} has no members"
            keys.update(m.key for m in c.members)
            held += len(c.members)
            texts = [m.text for m in c.members]
            expected = self.ops.summarize(texts)
            text, embedding, tally, samples = c.summary
            assert text == expected, (
                f"stale summary in {uid}: {text!r} != {expected!r}"
            )
            assert tally is None or tally == SlotTally(texts), (
                f"tally of {uid} differs from its members'")
            assert samples == tuple(sorted(c.members, key=_sample_order)[:3]), (
                f"samples of {uid} are not its first members in query order")
            assert (c.embedding_sum is None) == (self.mode == "text")
            vec = self.ops.embed(tokenize(text))
            if c.embedding_sum is not None:
                stacked = np.stack([self.ops.embed(m.tokens) for m in c.members])
                assert c.embedding_sum.tobytes() == stacked.sum(axis=0).tobytes()
                mean = stacked.mean(axis=0)
                norm = float(np.linalg.norm(mean))
                vec = mean / norm if norm > 1e-12 else vec
            assert embedding.tobytes() == vec.tobytes(), (
                f"embedding of {uid} differs from its recomputation")
            for m in c.members:
                first, last = tracks.get(m.track, (uid, m.tick))
                tracks[m.track] = min(first, uid), max(last, m.tick)
            if uid[0] == self.owner:
                assert uid[1] < self.uid_counter, f"uid {uid} beyond counter"
        assert len(keys) == held, "a record is held twice"
        live = self._by_origin is not None
        if live:
            # Together the logs name every held record once, each in its origin's.
            places = []
            for origin, (uids, indexes) in self._by_origin.items():
                assert len(uids) == len(indexes), f"columns of origin {origin} differ in length"
                for s, (uid, i) in enumerate(zip(uids, indexes)):
                    assert uid is not None, f"entry {s} of origin {origin} is a placeholder"
                    c = self.clusters.get(uid)
                    assert (c is not None and 0 <= i < len(c.members)
                            and c.members[i].robot_id == origin), (
                        f"entry {s} of origin {origin} is not member {i} of cluster {uid}")
                    places.append((uid, i))
            assert len(set(places)) == len(places) == held, (
                "origin logs miss or repeat held records")
        # A live database indexes its owner's tracks, a loaded one none.
        owned = {track: uid for track, uid in tracks.items() if live and track[0] == self.owner}
        assert self._tracks == owned, "track index differs from the owner's tracks"
        index = self._index
        assert index._rows == {uid: i for i, uid in enumerate(index._uids)}
        assert index._rows.keys() == self.clusters.keys(), (
            "similarity index rows differ from the clusters")
        table = index._table
        for uid, c in self.clusters.items():
            slot = int(index._slots[index._rows[uid]])
            embedding = c.summary.embedding
            assert (table.vectors[slot] is embedding
                    and table.mat[slot].tobytes() == embedding.tobytes()), (
                f"index row of {uid} is not its embedding")
        table.check()
        assert len(self.tombstones) <= self.tombstone_cap, "tombstones beyond the cap"
        for absorbed, survivor in self.tombstones.items():
            assert absorbed not in self.clusters and survivor in self.clusters, (
                f"tombstone {absorbed} -> {survivor} is not one hop to a live cluster")


def _loaded_int(value, what: str, least: int | None = None) -> int:
    """A snapshot's ``what``: an int, not a bool, and at least ``least``."""
    if type(value) is not int or (least is not None and value < least):
        raise ContractError(f"snapshot {what} {value!r} is not an int"
                            + ("" if least is None else f" >= {least}"))
    return value


def _loaded_uid(value, what: str) -> ClusterUid:
    """A snapshot's ``what`` as a uid: it must list two integers."""
    if type(value) is not list or len(value) != 2 or any(type(v) is not int for v in value):
        raise ContractError(f"snapshot {what} {value!r} is not a list of two integers")
    return tuple(value)


def exchange(a: ClusterDatabase, b: ClusterDatabase,
             theta_merge: float) -> ExchangeStats:
    """Symmetric pairwise database exchange; mutates both sides.

    Both directions apply from pre-exchange views, received clusters in
    ascending uid order. A received cluster recognized by uid (directly or
    via a tombstone) merges into its local twin; otherwise it merges into the
    most similar local cluster when similarity reaches ``theta_merge``, else
    it is copied in under its original uid. Member union deduplicates on
    (robot_id, track_id, tick) across the whole database.

    Each side sends only a delta (``_delta_for``), read from the peer's own
    holdings: each view lists just the records of its cluster the peer lacks.
    Results and stats equal the full-state exchange; a cluster the peer
    resolves by uid and holds every record of is not sent, and counts as
    merged, as the full-state exchange would recognise it and add nothing.
    Prefix contract: from each origin robot a database holds the first n
    records of its assignment order, n the length of its log from it, as
    only the owner assigns, given owners unique among the databases that
    exchange, directly or through others, as in a run. One loaded by
    ``from_dict`` cannot know it holds such prefixes, so exchange with it on
    either side raises ContractError and changes neither side.
    """
    if not (0.0 <= theta_merge <= 1.0):
        raise ContractError(f"theta_merge={theta_merge} outside [0, 1]")
    if a.owner == b.owner:
        raise ContractError(f"exchange requires distinct owners, got {a.owner}")
    if a.mode != b.mode:
        # Views carry the sender's embeddings, which only match in one mode.
        raise ContractError(f"exchange requires one matching mode, got "
                            f"{a.mode!r} and {b.mode!r}")
    loaded = [db.owner for db in (a, b) if db._by_origin is None]
    if loaded:
        raise ContractError(f"database of owner {loaded[0]} was loaded by from_dict "
                            "and does not exchange")
    # Both deltas come before either absorbs: a's views list their records
    # in lists of their own and carry summaries that nothing changes.
    views_a = a._delta_for(b)
    views_b = b._delta_for(a)
    unsent_a = len(a.clusters) - len(views_a)
    unsent_b = len(b.clusters) - len(views_b)
    merged_a, copied_a, added_a = a._absorb(views_b, theta_merge)
    merged_b, copied_b, added_b = b._absorb(views_a, theta_merge)
    return ExchangeStats(
        merged_into_a=merged_a + unsent_b, copied_to_a=copied_a,
        records_added_to_a=added_a,
        merged_into_b=merged_b + unsent_a, copied_to_b=copied_b,
        records_added_to_b=added_b,
    )


def canonical_json(obj) -> str:
    """Stable, compact JSON used for snapshots, logs, and fingerprints."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
