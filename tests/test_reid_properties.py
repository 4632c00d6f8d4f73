"""Randomized invariant checks for the cluster database and exchange."""

import copy
import itertools
import json

import numpy as np
from hypothesis import example, given, strategies as st

from conftest import examples
from swarmreid.language import SlotTally, cosine, embed, summarize, tokenize
from swarmreid.perception import (DescriptionNoise, DescriptionRecord,
                                  canonical_description, describe,
                                  sample_attributes)
from swarmreid.reid import (DEFAULT_TOMBSTONE_CAP, REFERENCE_OPS, ClusterDatabase,
                            ClusterView, ExchangeStats, LanguageOps,
                            _SimilarityIndex, canonical_json, exchange)

from oracles import brute_force_query, oracle_delta, stacked_best, stacked_top


_PEOPLE = sample_attributes(6, np.random.default_rng(7), distinct=True)
_TEXTS = tuple(canonical_description(p) for p in _PEOPLE)
_VECS = [embed(tokenize(t)) for t in _TEXTS]
_MAX_CROSS = max(cosine(_VECS[i], _VECS[j])
                 for i in range(len(_VECS)) for j in range(i))

# (robot, person, tick); track id doubles as the person index so the pool
# behaves like perfect tracking
_sightings = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 5), st.integers(0, 30)),
    min_size=1, max_size=25, unique=True,
)
_theta = st.floats(min_value=0.0, max_value=1.0,
                   allow_nan=False, allow_infinity=False)
_mode = st.sampled_from(["text", "vector-baseline"])


def _build(script, theta_local, owners=(0, 1), mode="text",
           cap=DEFAULT_TOMBSTONE_CAP):
    """Databases of ``owners``, each assigning its sightings in tick order."""
    dbs = {r: ClusterDatabase(owner=r, mode=mode, tombstone_cap=cap) for r in owners}
    for robot, person, tick in sorted(script, key=lambda s: s[2]):
        rec = DescriptionRecord.create(
            text=_TEXTS[person], robot_id=robot, tick=tick,
            track_id=person, person_id=person)
        dbs[robot].assign_description(rec, theta_local)
    return dbs


class TestExchangeProperties:
    @given(script=_sightings, mode=_mode, theta_local=_theta,
           theta_merge=_theta)
    @examples(80)
    def test_records_conserved_both_sides(self, script, mode, theta_local,
                                          theta_merge):
        dbs = _build(script, theta_local, mode=mode)
        union = dbs[0].record_keys() | dbs[1].record_keys()
        exchange(dbs[0], dbs[1], theta_merge)
        for db in dbs.values():
            assert db.record_keys() == union
            assert db.record_count() == len(union)
            db.check_invariants()

    @given(script=_sightings, theta_local=_theta, theta_merge=_theta)
    @examples(80)
    def test_second_exchange_is_identity(self, script, theta_local, theta_merge):
        dbs = _build(script, theta_local)
        exchange(dbs[0], dbs[1], theta_merge)
        first = (dbs[0].to_json(), dbs[1].to_json())
        stats = exchange(dbs[0], dbs[1], theta_merge)
        assert (dbs[0].to_json(), dbs[1].to_json()) == first
        assert stats.records_added_to_a == 0
        assert stats.records_added_to_b == 0

    @given(script=st.lists(
               st.tuples(st.integers(0, 2), st.integers(0, 5), st.integers(0, 30)),
               min_size=1, max_size=30, unique=True),
           meetings=st.lists(st.sampled_from([(0, 1), (0, 2), (1, 2)]),
                             min_size=1, max_size=8),
           mode=_mode, theta_local=_theta, theta_merge=_theta)
    # Robot 1 resolves robot 0's (0, 0) by its tombstone to (1, 0). With the
    # one record it lacks, (1, 0) has as many members as (0, 0), but not the
    # same: it holds (0, 2, 0) where (0, 0) holds (1, 1, 0). So (1, 0) must
    # not adopt (0, 0)'s summary and tally.
    @example(script=[(0, 0, 0), (0, 2, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0)],
             meetings=[(0, 1), (0, 2), (0, 1)], mode="text", theta_local=1.0,
             theta_merge=0.0)
    @examples(60)
    def test_gossip_never_loses_records(self, script, meetings, mode,
                                        theta_local, theta_merge):
        dbs = _build(script, theta_local, owners=(0, 1, 2), mode=mode)
        assigned = {r: db.record_keys() for r, db in dbs.items()}
        union = set().union(*assigned.values())
        for i, j in meetings:
            before_i = dbs[i].record_keys()
            before_j = dbs[j].record_keys()
            exchange(dbs[i], dbs[j], theta_merge)
            assert dbs[i].record_keys() == dbs[j].record_keys() == before_i | before_j
        for db in dbs.values():
            assert db.record_keys() <= union
            assert db.record_keys() >= assigned[db.owner]
            db.check_invariants()

    @given(script=_sightings, theta_local=_theta,
           cap=st.integers(0, 3), theta_merge=_theta)
    @examples(40)
    def test_tombstone_cap_is_respected(self, script, theta_local, cap,
                                        theta_merge):
        dbs = _build(script, theta_local, cap=cap)
        for _ in range(3):
            exchange(dbs[0], dbs[1], theta_merge)
            assert len(dbs[0].tombstones) <= cap
            assert len(dbs[1].tombstones) <= cap


class TestAssignProperties:
    @given(script=_sightings, mode=_mode, theta_local=_theta)
    @examples(80)
    def test_cluster_count_bounded_by_tracks(self, script, mode, theta_local):
        dbs = _build(script, theta_local, mode=mode)
        for robot, db in dbs.items():
            tracks = {p for r, p, _ in script if r == robot}
            assert len(db.clusters) <= len(tracks)
            db.check_invariants()

    @given(script=_sightings,
           theta=st.floats(min_value=float(_MAX_CROSS) + 1e-6, max_value=1.0))
    @example(script=[(0, 0, 0), (1, 0, 0)], theta=1.0)
    @example(script=[(0, 1, 0), (1, 1, 0)], theta=1.0)
    @examples(80)
    def test_noise_free_separation(self, script, theta):
        """Distinct outfits plus thresholds above the brute-force cross-outfit
        similarity put every person in exactly one pure cluster per database.

        Text mode only: a vector-baseline centroid of identical embeddings
        can round away from them, so there a threshold of 1.0 can split
        identical descriptions."""
        dbs = _build(script, theta)
        exchange(dbs[0], dbs[1], theta)
        persons = {p for _, p, _ in script}
        for db in dbs.values():
            assert len(db.clusters) == len(persons)
            for c in db.clusters.values():
                assert len({m.person_id for m in c.members}) == 1
            db.check_invariants()

    @given(script=_sightings, theta_local=_theta)
    @examples(40)
    def test_uids_strictly_increase(self, script, theta_local):
        db = ClusterDatabase(owner=0)
        created_order = []
        for i, (_, person, tick) in enumerate(sorted(script, key=lambda s: s[2])):
            rec = DescriptionRecord.create(
                text=_TEXTS[person], robot_id=0, tick=tick,
                track_id=person * 100 + i, person_id=person)
            uid, created = db.assign_description(rec, theta_local)
            if created:
                created_order.append(uid[1])
        assert created_order == sorted(created_order)
        assert db.uid_counter == len(created_order)


class TestSerializationProperties:
    @given(script=_sightings, mode=_mode, theta_local=_theta,
           theta_merge=_theta)
    @examples(60)
    def test_round_trip_after_exchange(self, script, mode, theta_local,
                                       theta_merge):
        dbs = _build(script, theta_local, mode=mode)
        exchange(dbs[0], dbs[1], theta_merge)
        for db in dbs.values():
            clone = ClusterDatabase.from_json(db.to_json())
            assert clone.to_json() == db.to_json()
            assert clone.record_keys() == db.record_keys()
            clone.check_invariants()


# Three renderings per person (canonical, then two noisy) so that clusters
# hold differing texts and embeddings.
_NOISE = DescriptionNoise(p_drop=0.3, p_synonym=0.3, p_color_confusion=0.2)
_RENDERINGS = tuple(
    (text, describe(p, _NOISE, np.random.default_rng(100 + i)),
     describe(p, _NOISE, np.random.default_rng(200 + i)))
    for i, (p, text) in enumerate(zip(_PEOPLE, _TEXTS))
)
# (robot, person, rendering): the robot describes the person
_describe = st.tuples(st.integers(0, 2), st.integers(0, 5), st.integers(0, 2))
# (robot, robot): the two robots meet
_meet = st.tuples(st.integers(0, 2), st.integers(0, 2))
_steps = st.lists(st.one_of(_describe, _meet), min_size=1, max_size=40)
# Small caps make absorbs evict tombstones, which un-resolves uids the peer
# was known to hold.
_cap = st.sampled_from([0, 1, 2, DEFAULT_TOMBSTONE_CAP])


def _play(steps, mode, theta_local, theta_merge, check=None,
          cap=DEFAULT_TOMBSTONE_CAP, same_tick=False, ops=REFERENCE_OPS):
    """Play ``steps`` on three fresh databases using ``ops``. Step ``i``
    happens at tick ``i``, or at tick 0 with track id ``i`` when
    ``same_tick``."""
    dbs = [ClusterDatabase(owner=r, mode=mode, tombstone_cap=cap, ops=ops)
           for r in range(3)]
    seen = {}
    for i, step in enumerate(steps):
        if len(step) == 3:
            robot, person, rendering = step
            dbs[robot].assign_description(DescriptionRecord.create(
                text=_RENDERINGS[person][rendering], robot_id=robot,
                tick=0 if same_tick else i,
                track_id=i if same_tick else person + 6 * rendering,
                person_id=person), theta_local)
        elif step[0] != step[1]:
            if check is not None:
                check(dbs[step[0]], dbs[step[1]], theta_merge)
            exchange(dbs[step[0]], dbs[step[1]], theta_merge)
        _assert_prefixes(dbs)
        _assert_tallies(dbs, seen)
    return dbs


def _logged(db, log):
    """The records that ``log`` of ``db`` names, entry by entry."""
    return [db.clusters[uid].members[i] for uid, i in zip(*log)]


def _assert_prefixes(dbs):
    """Every database holds a prefix of each robot's assignment order: for
    every pair and every origin, the first ``min(n_a, n_b)`` log entries
    name the same record objects. This is what makes a count sufficient."""
    for a, b in itertools.combinations(dbs, 2):
        for origin in a._by_origin.keys() & b._by_origin.keys():
            logged_a = _logged(a, a._by_origin[origin])
            logged_b = _logged(b, b._by_origin[origin])
            n = min(len(logged_a), len(logged_b))
            assert all(x is y for x, y in zip(logged_a[:n], logged_b[:n])), (
                f"logs of origin {origin} differ within their common prefix")


def _assert_tallies(dbs, seen):
    """Every tally equals one built from its cluster's member texts, and no
    tally changes once seen, so any number of clusters may hold one:
    ``seen`` keeps every tally met so far alive, by id, with a snapshot of
    its state."""
    for db in dbs:
        for uid, c in db.clusters.items():
            if c.tally is not None:
                assert c.tally == SlotTally([m.text for m in c.members]), (
                    f"tally of {uid} at robot {db.owner} differs from its members'")
                seen.setdefault(id(c.tally), (c.tally, _tally_state(c.tally)))
    for tally, snapshot in seen.values():
        assert _tally_state(tally) == snapshot, "a tally changed after it was seen"


def _tally_state(tally):
    """A copy of every field of ``tally``."""
    return copy.deepcopy([getattr(tally, name) for name in type(tally).__slots__])


def _assert_delta_writes_nothing(a, b, theta_merge):
    """Taking a delta either way leaves both sides' snapshots, the tally
    each cluster holds and the state of every tally as they were."""
    def state():
        return [(db.to_json(), [(id(c.tally), _tally_state(c.tally))
                                for c in db.clusters.values() if c.tally is not None])
                for db in (a, b)]

    before = state()
    a._delta_for(b)
    b._delta_for(a)
    assert state() == before, "taking a delta changed a snapshot or a tally"


def _one_sided(receiver, sender, theta_merge):
    """``receiver`` absorbing all of ``sender``'s clusters, on deep copies:
    a view of every cluster, ascending uid, listing the members the receiver
    lacks.

    Returns the receiver's snapshot and its (merged, copied, added) counts.
    """
    receiver, sender = copy.deepcopy(receiver), copy.deepcopy(sender)
    held = receiver.record_keys()
    # (uid, member index) -> position of that record in its robot's order
    seq_of = {place: seq for log in sender._by_origin.values()
              for seq, place in enumerate(zip(*log))}
    full = []
    for uid, c in sorted(sender.clusters.items()):
        lacking = [(m, seq_of[uid, i]) for i, m in enumerate(c.members)
                   if m.key not in held]
        full.append(ClusterView(uid, [m for m, _ in lacking], [s for _, s in lacking],
                                len(c.members), c.summary_text, c.embedding,
                                c.members, c.tally, c.samples))
    counts = receiver._absorb(full, theta_merge)
    return receiver.to_json(), counts


def _assert_full_state(a, b, theta_merge):
    """``exchange`` on copies of ``a`` and ``b`` equals full-state absorption
    in both directions, snapshots and stats alike; and each side's delta
    equals the one ``oracle_delta`` finds by testing every held record."""
    for side, peer in ((a, b), (b, a)):
        views = side._delta_for(peer)
        assert [(v.uid, v.members, v.n) for v in views] == oracle_delta(side, peer)
        assert all(v.members is not side.clusters[v.uid].members for v in views)
    json_a, counts_a = _one_sided(a, b, theta_merge)
    json_b, counts_b = _one_sided(b, a, theta_merge)
    a_copy, b_copy = copy.deepcopy(a), copy.deepcopy(b)
    stats = exchange(a_copy, b_copy, theta_merge)
    assert (a_copy.to_json(), b_copy.to_json()) == (json_a, json_b)
    assert stats == ExchangeStats(*counts_a, *counts_b)


class TestIncrementalState:
    @given(steps=_steps, mode=_mode, theta_local=_theta, theta_merge=_theta,
           cap=_cap, same_tick=st.booleans())
    # Robot 0's three clusters all fold into one at robot 1 under a cap of
    # one tombstone, so later meetings need the full-view fallback.
    @example(steps=[(0, 0, 0), (0, 1, 0), (0, 2, 0), (0, 1), (0, 1), (0, 1)],
             mode="text", theta_local=1.0, theta_merge=0.0, cap=1, same_tick=False)
    # Robot 1 learns robot 0's cluster through a tombstone, then evicts that
    # tombstone while meeting robot 2: robot 0 must send the cluster again.
    @example(steps=[(0, 0, 0), (1, 0, 0), (0, 1), (2, 1, 0), (1, 2), (0, 1)],
             mode="text", theta_local=1.0, theta_merge=0.0, cap=1, same_tick=False)
    # Robots 0 and 2 see the person robot 1 sees. Robot 1, at its cap of
    # one, evicts the tombstone of (0, 0) for that of (2, 0) without
    # changing its epoch: robot 0 has nothing new but must send (0, 0) again.
    @example(steps=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1), (1, 2), (0, 1)],
             mode="text", theta_local=1.0, theta_merge=0.8, cap=1, same_tick=False)
    # With no tombstones, cluster (0, 0) merges into robot 1's twin but its
    # uid does not resolve there; once robot 1's cluster drifts below
    # theta_merge, the view sent again is neither merged nor copied. Robot 0
    # must keep (0, 0) unresolved, or it skips the view and counts it as
    # merged.
    @example(steps=[(0, 0, 0), (1, 0, 0), (0, 1), (1, 1, 0), (0, 1)],
             mode="text", theta_local=0.0, theta_merge=0.99, cap=0, same_tick=False)
    # Robot 0 meets robot 1 between two of its assignments of one tick, so
    # robot 1 holds only part of robot 0's records of that tick: the count
    # of its log from robot 0, not a tick, says which.
    @example(steps=[(0, 0, 0), (1, 2, 0), (0, 1), (0, 0, 0), (0, 1)],
             mode="text", theta_local=1.0, theta_merge=0.8,
             cap=DEFAULT_TOMBSTONE_CAP, same_tick=True)
    # Cluster (0, 0) holds robot 0's record of tick 0, robot 1's of tick 1
    # and robot 0's of tick 3, so a view for robot 2 must put the records
    # it gathers origin by origin back into member order.
    @example(steps=[(0, 0, 0), (1, 0, 0), (0, 1), (0, 0, 0), (0, 2)],
             mode="text", theta_local=0.0, theta_merge=0.0, cap=0, same_tick=False)
    @examples(60)
    def test_exchange_equals_both_directions_from_copies(
            self, steps, mode, theta_local, theta_merge, cap, same_tick):
        dbs = _play(steps, mode, theta_local, theta_merge, _assert_full_state,
                    cap, same_tick)
        for db in dbs:
            db.check_invariants()

    @given(steps=_steps, mode=_mode, theta_local=_theta, theta_merge=_theta, cap=_cap)
    @examples(60)
    def test_taking_a_delta_writes_nothing(self, steps, mode, theta_local, theta_merge,
                                           cap):
        _play(steps, mode, theta_local, theta_merge, _assert_delta_writes_nothing, cap)

    def test_repeat_meeting_sends_nothing(self):
        dbs = _build([(0, 0, 0), (0, 1, 1), (1, 2, 0), (1, 0, 3)], 1.0)
        first = exchange(dbs[0], dbs[1], 1.0)
        assert first.records_added_to_a == first.records_added_to_b == 2
        assert dbs[0]._delta_for(dbs[1]) == []
        assert dbs[1]._delta_for(dbs[0]) == []
        # Unsent clusters still count as recognised, as full views would.
        second = exchange(dbs[0], dbs[1], 1.0)
        assert second == ExchangeStats(3, 0, 0, 3, 0, 0)

    @given(steps=_steps, mode=_mode, theta_local=_theta, theta_merge=_theta)
    # Robot 1's track 0 reaches robot 0 first inside a copy of robot 2's
    # cluster (2, 0), later also inside robot 0's own cluster (0, 0): a
    # received track is not indexed, only the owner's own.
    @example(steps=[(2, 2, 2), (2, 4, 2), (2, 2, 0), (1, 0, 0), (2, 1), (1, 0, 0),
                    (0, 2), (0, 0, 1), (1, 0)],
             mode="text", theta_local=0.56, theta_merge=0.2)
    @examples(60)
    def test_maintained_state_equals_recomputation(
            self, steps, mode, theta_local, theta_merge):
        for db in _play(steps, mode, theta_local, theta_merge):
            db.check_invariants()
            tracks = {}
            for uid in sorted(db.clusters):
                c = db.clusters[uid]
                for m in c.members:
                    if m.robot_id == db.owner:
                        first, last = tracks.get(m.track, (uid, m.tick))
                        tracks[m.track] = first, max(last, m.tick)
                expected = embed(tokenize(c.summary_text))
                if mode == "vector-baseline":
                    mean = np.stack([embed(m.tokens) for m in c.members]).mean(axis=0)
                    norm = float(np.linalg.norm(mean))
                    expected = mean / norm if norm > 1e-12 else expected
                assert c.embedding.tobytes() == expected.tobytes()
            assert db._tracks == tracks


def _brute_force_query(db, text, k):
    return brute_force_query(db, embed(tokenize(text)), k)


_QUERIES = tuple(text for renderings in _RENDERINGS for text in renderings) + (
    "a lady with a green t-shirt", "a person with a black outfit")


class TestQueryProperties:
    @given(steps=_steps, mode=_mode, theta_local=_theta, theta_merge=_theta,
           text=st.sampled_from(_QUERIES))
    @examples(60)
    def test_query_equals_brute_force_ranking(self, steps, mode, theta_local,
                                              theta_merge, text):
        for db in _play(steps, mode, theta_local, theta_merge):
            reloaded = ClusterDatabase.from_json(db.to_json())
            for k in (1, 3, len(db.clusters) + 2):
                expected = _brute_force_query(db, text, k)
                for queried in (db, reloaded):
                    assert [(h.uid, h.score, h.summary_text, h.samples)
                            for h in queried.query(text, k)] == expected


class TestAdoption:
    @given(steps=_steps, mode=_mode, theta_local=_theta, theta_merge=_theta,
           text=st.sampled_from(_QUERIES))
    @examples(60)
    def test_adopting_equals_the_member_list_route(self, steps, mode, theta_local,
                                                   theta_merge, text):
        """A cluster that ends with a sender's members adopts its summary,
        tally and samples only under the reference summarizer. A wrapper of
        it takes the member-list route and never adopts: every snapshot and
        query hit must be the same."""
        adopting = _play(steps, mode, theta_local, theta_merge)
        listing = _play(steps, mode, theta_local, theta_merge,
                        ops=LanguageOps(summarize=lambda texts: summarize(texts)))
        for db, twin in zip(adopting, listing):
            assert db.to_json() == twin.to_json()
            assert all(c.tally is None for c in twin.clusters.values())
            for k in (1, 3, len(db.clusters) + 2):
                assert db.query(text, k) == twin.query(text, k)


class _CheckedIndex(_SimilarityIndex):
    """A similarity index that checks every answer against a freshly stacked
    matrix of its database's cluster vectors, one row per cluster in
    creation order."""

    def __init__(self, clusters):
        super().__init__()
        self._clusters = clusters

    def _stacked(self):
        uids = list(self._clusters)
        return uids, [self._clusters[uid].embedding for uid in uids]

    def best(self, vec):
        got = super().best(vec)
        assert got == stacked_best(*self._stacked(), vec)
        return got

    def top(self, vec, k):
        got = super().top(vec, k)
        assert got == stacked_top(*self._stacked(), vec, k)
        return got


# A description step, a meeting, or (robot, query text, k): the robot's
# database answers the query.
_session = st.lists(st.one_of(
    _describe, _meet,
    st.tuples(st.integers(0, 2), st.sampled_from(_QUERIES), st.integers(1, 4)),
), min_size=1, max_size=40)


class TestSharedIndexProperties:
    @given(steps=_session, mode=_mode, theta_local=_theta, theta_merge=_theta)
    @examples(60)
    def test_every_match_and_query_equals_a_stacked_matrix(
            self, steps, mode, theta_local, theta_merge):
        """Three databases share the vector table and the scratch of
        ``best``; interleaved assignments, exchanges and queries hand the
        scratch from one to another, and every answer must still be the one
        a private matrix of the database's own rows gives."""
        dbs = [ClusterDatabase(owner=r, mode=mode) for r in range(3)]
        for db in dbs:
            db._index = _CheckedIndex(db.clusters)
        for tick, step in enumerate(steps):
            if isinstance(step[1], str):
                robot, text, k = step
                assert [(h.uid, h.score, h.summary_text, h.samples)
                        for h in dbs[robot].query(text, k)] == (
                    _brute_force_query(dbs[robot], text, k))
            elif len(step) == 3:
                robot, person, rendering = step
                dbs[robot].assign_description(DescriptionRecord.create(
                    text=_RENDERINGS[person][rendering], robot_id=robot, tick=tick,
                    track_id=person + 6 * rendering, person_id=person), theta_local)
            elif step[0] != step[1]:
                exchange(dbs[step[0]], dbs[step[1]], theta_merge)
        for db in dbs:
            db.check_invariants()


class TestSnapshotText:
    @given(steps=_steps, mode=_mode, theta_local=_theta, theta_merge=_theta)
    @examples(60)
    def test_composed_snapshot_is_canonical_json(self, steps, mode, theta_local,
                                                 theta_merge):
        """``to_json`` composes its text around per-record fragments shared
        through one memo; it must still be canonical JSON of its document."""
        memo = {}
        for db in _play(steps, mode, theta_local, theta_merge):
            text = db.to_json(memo)
            assert text == db.to_json() == canonical_json(json.loads(text))
