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
instead of re-running similarity matching.

Exchange is delta-state anti-entropy. Each database logs the cluster uid of
every record it comes to hold, and remembers per peer one position in that
log: the peer provably holds every record logged before it. The delta for a
peer is the clusters that grew in the log since, each sent from the members
the peer holds on, plus the few sent clusters whose uid the peer could not
resolve, sent in full as a full-state exchange would.
"""

from __future__ import annotations

import json
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from itertools import chain, count, islice
from operator import attrgetter
from typing import AbstractSet, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import language
from .errors import ContractError, EmptyDescriptionError
from .language import (EMBEDDING_DIM, SlotTally, cached_tokens, cosine, embed,
                       summarize, tokenize)
from .perception import DescriptionRecord

ClusterUid = tuple[int, int]

SCHEMA_VERSION = 1
DEFAULT_TOMBSTONE_CAP = 1024

# Drawn once per constructed database; deepcopy keeps an int, so a copy is the
# same incarnation (and must not diverge from its original while both meet the
# same peers), while a from_dict reload is a new one.
_incarnations = count()


@dataclass(frozen=True)
class LanguageOps:
    """Embedding/summarization implementations a database should use.

    The reference functions are the default; remote providers plug in here.
    """

    embed: Callable[[Sequence[str]], np.ndarray] = embed
    summarize: Callable[[Iterable], str] = summarize


REFERENCE_OPS = LanguageOps()


@dataclass
class Cluster:
    uid: ClusterUid
    members: list[DescriptionRecord]
    summary_text: str
    # The matching vector; only ClusterDatabase._refresh sets it, and it
    # binds a new array rather than writing into the old one, so a
    # ClusterView taken earlier keeps the vector it saw.
    embedding: np.ndarray
    track_ids: set[tuple[int, int]]
    # Vector-baseline mode only, else None: member embeddings summed in
    # member order. Every append binds a new array.
    embedding_sum: np.ndarray | None
    # Slot votes of the members, built on the first append after the cluster
    # was created, copied or loaded, so loading builds none.
    tally: SlotTally | None = field(default=None, repr=False, compare=False)

    def last_member_tick(self) -> int:
        return max(m.tick for m in self.members)


class ClusterView(NamedTuple):
    """A cluster as it stood when the view was taken, without copying it.

    ``members`` is the cluster's live list; the view covers its first ``n``
    entries, which never change because members are only ever appended. The
    receiver already holds the first ``start`` of them. The summary and
    embedding fields are references to values that updates replace rather
    than mutate.
    """

    uid: ClusterUid
    members: list[DescriptionRecord]
    start: int
    n: int
    summary_text: str
    embedding: np.ndarray


_record_key = attrgetter("key")
_view_uid = attrgetter("uid")


@dataclass(frozen=True)
class QueryHit:
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


class _SimilarityIndex:
    """Growable row matrix of cluster embeddings, one row per uid.

    Serves the argmax that assignment and merging decide by (``best``) and
    the candidate filter that ranked queries rescore exactly (``top``).
    """

    def __init__(self, dim: int = EMBEDDING_DIM) -> None:
        self._mat = np.zeros((16, dim), dtype=np.float64)
        self._uids: list[ClusterUid] = []
        self._rows: dict[ClusterUid, int] = {}

    def set(self, uid: ClusterUid, vec: np.ndarray) -> None:
        row = self._rows.get(uid)
        if row is None:
            row = len(self._uids)
            if row == self._mat.shape[0]:
                self._mat = np.vstack([self._mat, np.zeros_like(self._mat)])
            self._uids.append(uid)
            self._rows[uid] = row
        self._mat[row] = vec

    def best(self, vec: np.ndarray) -> tuple[ClusterUid, float] | None:
        """Most similar row as (uid, clamped dot product), ties to lowest uid.

        A winning row bitwise equal to ``vec`` scores exactly 1.0, the cosine
        of a vector with itself, which the float dot product can round below;
        so a threshold of 1.0 joins identical descriptions.
        """
        n = len(self._uids)
        if n == 0:
            return None
        sims = self._mat[:n] @ vec
        top = sims.max()
        tied = np.flatnonzero(sims == top)
        uid = min(self._uids[i] for i in tied)
        if np.array_equal(self._mat[self._rows[uid]], vec):
            return uid, 1.0
        return uid, min(1.0, max(-1.0, float(top)))

    def top(self, vec: np.ndarray, k: int) -> list[ClusterUid]:
        """Uids of every row whose product with ``vec`` comes within
        ``_RANK_MARGIN`` of the k-th best: all rows when ``k`` >= rows.

        For unit vectors the product and any other summation order of the
        same dot product, such as ``cosine``, differ by at most 2*gamma_n,
        about 5.7e-14 at n = 256 (Higham, "Accuracy and Stability of
        Numerical Algorithms", section 3.1). A row left out scores more than the
        margin below k rows by product, so more than the margin minus
        2*gamma_n below each of them by ``cosine``: the kept rows hold the
        exact top k under any tie rule, lower uids of tied scores included.
        Clamping to [-1, 1] keeps that order, since a product of unit
        vectors passes 1 by about gamma_n at most.
        """
        uids = self._uids
        n = len(uids)
        if k >= n:
            return list(uids)
        sims = self._mat[:n] @ vec
        kth = np.partition(sims, n - k)[n - k]
        return [uids[i] for i in np.flatnonzero(sims >= kth - _RANK_MARGIN)]


class ClusterDatabase:
    """One robot's evolving clustering of description records."""

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
        self.tombstones: OrderedDict[ClusterUid, ClusterUid] = OrderedDict()
        self.tombstone_cap = tombstone_cap
        self.ops = ops
        self._keys: dict[tuple[int, int, int], ClusterUid] = {}
        # (robot_id, track_id) -> lowest uid of a cluster holding that track
        self._tracks: dict[tuple[int, int], ClusterUid] = {}
        self._index = _SimilarityIndex()
        self._incarnation = next(_incarnations)
        self._evictions = 0
        # The cluster uid of every record held, in the order it was held.
        self._log: list[ClusterUid] = []
        # peer owner -> (peer epoch when recorded, log length then, uids the
        # peer did not resolve then); never serialized
        self._known: dict[int, tuple[tuple[int, int], int, set[ClusterUid]]] = {}

    # ---------- internals ----------

    def _new_cluster(self, uid: ClusterUid) -> Cluster:
        """Register an empty cluster; callers add members and refresh it."""
        zeros = np.zeros(EMBEDDING_DIM)
        cluster = Cluster(uid=uid, members=[], summary_text="", embedding=zeros,
                          track_ids=set(),
                          embedding_sum=None if self.mode == "text" else zeros)
        self.clusters[uid] = cluster
        return cluster

    def _hold(self, cluster: Cluster, record: DescriptionRecord) -> None:
        """Log a member of ``cluster`` and index it by record key and track."""
        self._log.append(cluster.uid)
        self._keys[record.key] = cluster.uid
        track = (record.robot_id, record.track_id)
        cluster.track_ids.add(track)
        if self._tracks.setdefault(track, cluster.uid) > cluster.uid:
            self._tracks[track] = cluster.uid

    def _append(self, cluster: Cluster, record: DescriptionRecord) -> None:
        if cluster.embedding_sum is not None:
            cluster.embedding_sum = cluster.embedding_sum + self.ops.embed(record.tokens)
        cluster.members.append(record)
        self._hold(cluster, record)

    def _refresh(self, cluster: Cluster, summary_text: str) -> None:
        """Set the summary, the embedding and its index row after appends.

        With a running sum, the embedding is the unit mean: dividing a sum
        taken from zero in member order reproduces
        ``np.stack(vectors).mean(axis=0)`` bit for bit. A mean too short to
        normalise, like text mode, takes the summary's embedding.
        """
        cluster.summary_text = summary_text
        vec = self.ops.embed(cached_tokens(summary_text))
        if cluster.embedding_sum is not None:
            mean = cluster.embedding_sum / len(cluster.members)
            norm = float(np.linalg.norm(mean))
            if norm > 1e-12:
                vec = mean / norm
        cluster.embedding = vec
        self._index.set(cluster.uid, vec)

    def _remember_tombstone(self, absorbed: ClusterUid, survivor: ClusterUid) -> None:
        if self.tombstone_cap == 0:
            return
        self.tombstones[absorbed] = survivor
        self.tombstones.move_to_end(absorbed)
        while len(self.tombstones) > self.tombstone_cap:
            self.tombstones.popitem(last=False)
            self._evictions += 1

    def _resolve_uid(self, uid: ClusterUid) -> ClusterUid | None:
        """Follow tombstone redirects to a live cluster, if any."""
        seen = set()
        while uid in self.tombstones and uid not in seen:
            seen.add(uid)
            uid = self.tombstones[uid]
        return uid if uid in self.clusters else None

    def _add_members(self, cluster: Cluster, records: Iterable[DescriptionRecord],
                     summary_text: str | None = None) -> int:
        """Append the records not held yet and refresh; returns how many.
        A given ``summary_text`` is the resulting summary: no summarizer runs."""
        # Track pairs follow only the members actually appended; records that
        # deduplicate away live in some other cluster and their tracks belong
        # there, else a repeated exchange could keep mutating track_ids.
        added = 0
        for m in records:
            if m.key not in self._keys:
                self._append(cluster, m)
                added += 1
        if added:
            if summary_text is None:
                summary_text = self._summary(cluster, added)
            self._refresh(cluster, summary_text)
        return added

    def _summary(self, cluster: Cluster, added: int) -> str:
        """Summary after the last ``added`` appends. The reference summarizer
        folds only those into the cluster's tally; any other gets every
        member."""
        if self.ops.summarize is not summarize:
            return self.ops.summarize(cluster.members)
        if cluster.tally is None:
            cluster.tally = SlotTally(cluster.members)
        else:
            for m in cluster.members[-added:]:
                cluster.tally.add(m.text)
        return cluster.tally.render()

    # ---------- operations ----------

    def assign_description(self, record: DescriptionRecord,
                           theta_local: float) -> tuple[ClusterUid, bool]:
        """Place one record; returns (cluster uid, whether it was created).

        Track continuity wins first: a record whose (robot_id, track_id) is
        already present joins that cluster regardless of similarity. Otherwise
        the record joins the most similar cluster if its summary similarity
        reaches ``theta_local`` (inclusive, ties toward the lowest uid), else
        it founds a new singleton cluster. A cluster vector bitwise identical
        to the record's scores exactly 1.0, so ``theta_local=1.0`` joins
        identical descriptions; ``query`` scores stay the raw clamped dot
        product.
        """
        if not (0.0 <= theta_local <= 1.0):
            raise ContractError(f"theta_local={theta_local} outside [0, 1]")
        if not record.tokens:
            raise EmptyDescriptionError("record has no tokens")
        if record.key in self._keys:
            raise ContractError(f"record {record.key} already assigned")

        target = self._tracks.get((record.robot_id, record.track_id))
        if target is None:
            vec = self.ops.embed(record.tokens)
            best = self._index.best(vec)
            if best is not None and best[1] >= theta_local:
                target = best[0]
        if target is not None:
            self._add_members(self.clusters[target], [record])
            return target, False

        uid = (self.owner, self.uid_counter)
        self.uid_counter += 1
        self._add_members(self._new_cluster(uid), [record])
        return uid, True

    def query(self, text: str, k: int) -> list[QueryHit]:
        """Rank clusters against a free-text query.

        Hits are ordered by ``cosine`` of the query embedding with each
        cluster's embedding, ties to the lowest uid. The similarity
        index only narrows which clusters get scored: one matrix-vector
        product keeps the rows that can reach the top ``k`` (see
        ``_SimilarityIndex.top``), and only those are scored exactly, so
        every hit and score equals a ranking of all clusters.

        Raises EmptyDescriptionError when the query tokenizes to nothing.
        An empty database yields an empty list. Each hit carries up to three
        sample records, most recent first.
        """
        if k < 1:
            raise ContractError(f"k={k} must be at least 1")
        vec = self.ops.embed(tokenize(text))
        candidates = [self.clusters[uid] for uid in self._index.top(vec, k)]
        scored = sorted(
            ((c, cosine(vec, c.embedding)) for c in candidates),
            key=lambda pair: (-pair[1], pair[0].uid),
        )
        hits = []
        for cluster, score in scored[:k]:
            samples = tuple(sorted(
                cluster.members, key=lambda m: (-m.tick, m.robot_id, m.track_id)
            )[:3])
            hits.append(QueryHit(uid=cluster.uid, score=score,
                                 summary_text=cluster.summary_text, samples=samples))
        return hits

    def record_count(self) -> int:
        return len(self._keys)

    def record_keys(self) -> set[tuple[int, int, int]]:
        return set(self._keys)

    def views(self, since: int = 0,
              unresolved: AbstractSet[ClusterUid] = frozenset()) -> list[ClusterView]:
        """Views of the clusters logged from position ``since`` on and of
        the ``unresolved`` ones, as they stand now, ascending uid.

        A logged cluster's view starts at the members held before ``since``;
        an unresolved one starts at 0. The defaults give the full state.
        """
        grown = Counter(islice(self._log, since, None))
        views = []
        for uid in sorted(grown.keys() | unresolved):
            c = self.clusters[uid]
            n = len(c.members)
            start = 0 if uid in unresolved else n - grown[uid]
            views.append(ClusterView(uid, c.members, start, n, c.summary_text,
                                     c.embedding))
        return views

    def _epoch(self) -> tuple[int, int]:
        """Changes whenever a uid this database resolved may stop resolving."""
        return self._incarnation, self._evictions

    def _delta_for(self, peer: "ClusterDatabase") -> list[ClusterView]:
        """Views to send ``peer``.

        Knowledge recorded under another epoch of the peer is dropped, which
        leaves the full state. When the peer could evict a tombstone while
        absorbing, which could un-resolve a later unsent view, every cluster
        is sent in full.
        """
        epoch, since, unresolved = self._known.get(peer.owner, (None, 0, frozenset()))
        if epoch != peer._epoch():
            since, unresolved = 0, frozenset()
        views = self.views(since, unresolved)
        cap = peer.tombstone_cap
        if since and cap and len(peer.tombstones) + len(views) > cap:
            views = self.views()
        return views

    def _learn(self, peer: "ClusterDatabase", uids: Iterable[ClusterUid]) -> None:
        """Record what ``peer`` holds after both sides absorbed ``uids``.

        Every record logged so far is then held by the peer: each cluster
        was either sent or already known in full, and whatever was appended
        during the exchange came from the peer. Of the sent or touched
        ``uids``, those the peer does not resolve are kept apart: full-state
        exchange sends them again, so the delta must too. A uid the peer
        resolves stays resolved for as long as the peer's epoch holds, so a
        skipped view is always a recognised cluster with nothing new.
        """
        resolve = peer._resolve_uid
        unresolved = {uid for uid in uids if resolve(uid) is None}
        self._known[peer.owner] = (peer._epoch(), len(self._log), unresolved)

    def _absorb(self, received: list[ClusterView], theta_merge: float
                ) -> tuple[int, int, int, list[ClusterUid]]:
        """Fold received views in; returns (merged, copied, added, touched).

        ``touched`` lists the local clusters that gained members or were
        created. A view's first ``start`` members must already be held here,
        as the sender logged them before its position for this database,
        and, when ``start`` > 0, its uid must resolve: the skipped prefix is
        then exactly what full-state absorption would find held.
        """
        merged = copied = added_total = 0
        touched = []
        held = self._keys.__contains__
        for view in received:
            members = islice(view.members, view.start, view.n)
            target = self._resolve_uid(view.uid)
            if target is None:
                best = self._index.best(view.embedding)
                if best is not None and best[1] >= theta_merge:
                    target = best[0]
                    self._remember_tombstone(view.uid, target)
                else:
                    fresh = [m for m in members if not held(m.key)]
                    if not fresh:
                        # Every record already lives in some local cluster.
                        continue
                    # A verbatim copy keeps the origin's summary, so no
                    # summarizer runs; re-summing its members in member
                    # order reproduces the origin's sum bit for bit.
                    summary = view.summary_text if len(fresh) == view.n else None
                    self._add_members(self._new_cluster(view.uid), fresh, summary)
                    copied += 1
                    added_total += len(fresh)
                    touched.append(view.uid)
                    continue
            merged += 1
            if all(map(held, map(_record_key, members))):
                # Recognised and nothing new: the common case on repeat meetings.
                continue
            added_total += self._add_members(
                self.clusters[target], islice(view.members, view.start, view.n))
            touched.append(target)
        return merged, copied, added_total, touched

    # ---------- serialization ----------

    def to_dict(self) -> dict:
        clusters = []
        for uid in sorted(self.clusters):
            c = self.clusters[uid]
            clusters.append({
                "uid": list(uid),
                "summary_text": c.summary_text,
                "track_ids": [list(t) for t in sorted(c.track_ids)],
                "members": [
                    {
                        "text": m.text,
                        "robot_id": m.robot_id,
                        "tick": m.tick,
                        "track_id": m.track_id,
                        "person_id": m.person_id,
                    }
                    for m in c.members
                ],
            })
        return {
            "schema_version": SCHEMA_VERSION,
            "owner": self.owner,
            "mode": self.mode,
            "uid_counter": self.uid_counter,
            "tombstone_cap": self.tombstone_cap,
            "tombstones": [[list(k), list(v)] for k, v in self.tombstones.items()],
            "clusters": clusters,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict, ops: LanguageOps = REFERENCE_OPS) -> "ClusterDatabase":
        if d.get("schema_version") != SCHEMA_VERSION:
            raise ContractError(f"unsupported snapshot schema {d.get('schema_version')!r}")
        db = cls(owner=d["owner"], mode=d["mode"],
                 tombstone_cap=d.get("tombstone_cap", DEFAULT_TOMBSTONE_CAP), ops=ops)
        db.uid_counter = d["uid_counter"]
        for k, v in d.get("tombstones", []):
            db.tombstones[tuple(k)] = tuple(v)
        for cd in d["clusters"]:
            cluster = db._new_cluster(tuple(cd["uid"]))
            for m in cd["members"]:
                record = DescriptionRecord.create(
                    text=m["text"], robot_id=m["robot_id"], tick=m["tick"],
                    track_id=m["track_id"], person_id=m["person_id"],
                )
                if record.key in db._keys:
                    raise ContractError(f"snapshot has duplicate record {record.key}")
                db._append(cluster, record)
            if cluster.track_ids != {tuple(t) for t in cd["track_ids"]}:
                raise ContractError(f"snapshot cluster {cluster.uid} lists tracks "
                                    "other than its members'")
            db._refresh(cluster, cd["summary_text"])
        return db

    @classmethod
    def from_json(cls, text: str, ops: LanguageOps = REFERENCE_OPS) -> "ClusterDatabase":
        return cls.from_dict(json.loads(text), ops=ops)

    # ---------- diagnostics ----------

    def check_invariants(self) -> None:
        """Raise AssertionError if any structural invariant is violated."""
        seen_keys: dict = {}
        tracks: dict = {}
        for uid, c in self.clusters.items():
            assert c.uid == uid
            assert c.members, f"cluster {uid} has no members"
            for m in c.members:
                assert m.key not in seen_keys, (
                    f"record {m.key} in both {seen_keys[m.key]} and {uid}"
                )
                seen_keys[m.key] = uid
            expected = self.ops.summarize(c.members)
            assert c.summary_text == expected, (
                f"stale summary in {uid}: {c.summary_text!r} != {expected!r}"
            )
            assert c.tally is None or c.tally == SlotTally(c.members), (
                f"tally of {uid} differs from its members'")
            assert (c.embedding_sum is None) == (self.mode == "text")
            vec = self.ops.embed(tokenize(c.summary_text))
            if c.embedding_sum is not None:
                stacked = np.stack([self.ops.embed(m.tokens) for m in c.members])
                assert c.embedding_sum.tobytes() == stacked.sum(axis=0).tobytes()
                mean = stacked.mean(axis=0)
                norm = float(np.linalg.norm(mean))
                vec = mean / norm if norm > 1e-12 else vec
            assert c.embedding.tobytes() == vec.tobytes(), (
                f"embedding of {uid} differs from its recomputation")
            # Exchange views rebuild a copied cluster's tracks from its
            # members, so the two must agree exactly.
            assert c.track_ids == {(m.robot_id, m.track_id) for m in c.members}, (
                f"track_ids of {uid} differ from its members' tracks"
            )
            for track in c.track_ids:
                tracks[track] = min(tracks.get(track, uid), uid)
            if uid[0] == self.owner:
                assert uid[1] < self.uid_counter, f"uid {uid} beyond counter"
        assert seen_keys == self._keys
        assert tracks == self._tracks
        index = self._index
        assert index._rows == {uid: i for i, uid in enumerate(index._uids)}
        assert index._rows.keys() == self.clusters.keys(), (
            "similarity index rows differ from the clusters")
        for uid, c in self.clusters.items():
            assert index._mat[index._rows[uid]].tobytes() == c.embedding.tobytes(), (
                f"index row of {uid} is not its embedding")
        assert Counter(self._log) == {uid: len(c.members)
                                      for uid, c in self.clusters.items()}, (
            "log differs from the cluster member counts")
        for peer, (_, since, unresolved) in self._known.items():
            assert since <= len(self._log), f"position for peer {peer} beyond log"
            assert unresolved <= self.clusters.keys()


def exchange(a: ClusterDatabase, b: ClusterDatabase,
             theta_merge: float) -> ExchangeStats:
    """Symmetric pairwise database exchange; mutates both sides.

    Both directions apply from pre-exchange views, received clusters in
    ascending uid order. A received cluster recognized by uid (directly or
    via a tombstone) merges into its local twin; otherwise it merges into the
    most similar local cluster when similarity reaches ``theta_merge``, else
    it is copied in under its original uid. Member union deduplicates on
    (robot_id, track_id, tick) across the whole database.

    Each side sends only deltas. Knowledge invariant: while the peer's epoch
    is unchanged, a recorded log position means the peer holds every record
    logged before it, and resolves the uid of every cluster logged before it
    except the recorded unresolved ones. A cluster with no record logged
    since and not unresolved is not sent (the full-state exchange would
    recognise it and find nothing new, so it counts as merged); a grown one
    is sent from its first record logged since, and an unresolved one in
    full. Results and stats equal the full-state exchange.
    """
    if not (0.0 <= theta_merge <= 1.0):
        raise ContractError(f"theta_merge={theta_merge} outside [0, 1]")
    if a.owner == b.owner:
        raise ContractError(f"exchange requires distinct owners, got {a.owner}")
    if a.mode != b.mode:
        # Views carry the sender's embeddings, which only match in one mode.
        raise ContractError(f"exchange requires one matching mode, got "
                            f"{a.mode!r} and {b.mode!r}")
    # Views instead of copies: while a absorbs, a's clusters can only gain
    # records from b by appending, past the members a's views cover, and
    # their summaries and embeddings are rebound, never mutated.
    views_a = a._delta_for(b)
    views_b = b._delta_for(a)
    unsent_a = len(a.clusters) - len(views_a)
    unsent_b = len(b.clusters) - len(views_b)
    merged_a, copied_a, added_a, touched_a = a._absorb(views_b, theta_merge)
    merged_b, copied_b, added_b, touched_b = b._absorb(views_a, theta_merge)
    a._learn(b, chain(map(_view_uid, views_a), touched_a))
    b._learn(a, chain(map(_view_uid, views_b), touched_b))
    return ExchangeStats(
        merged_into_a=merged_a + unsent_b, copied_to_a=copied_a,
        records_added_to_a=added_a,
        merged_into_b=merged_b + unsent_a, copied_to_b=copied_b,
        records_added_to_b=added_b,
    )


def canonical_json(obj) -> str:
    """Stable, compact JSON used for snapshots, logs, and fingerprints."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
