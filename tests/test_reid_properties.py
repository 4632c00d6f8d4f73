"""Randomized invariant checks for the cluster database and exchange."""

import copy
from collections import Counter

import numpy as np
from hypothesis import example, given, settings, strategies as st

from swarmreid.language import cosine, embed, tokenize
from swarmreid.perception import (DescriptionNoise, DescriptionRecord,
                                  canonical_description, describe,
                                  sample_attributes)
from swarmreid.reid import (DEFAULT_TOMBSTONE_CAP, ClusterDatabase,
                            ExchangeStats, exchange)

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


def _build(script, theta_local, owners=(0, 1), mode="text"):
    dbs = {r: ClusterDatabase(owner=r, mode=mode) for r in owners}
    for robot, person, tick in script:
        rec = DescriptionRecord.create(
            text=_TEXTS[person], robot_id=robot, tick=tick,
            track_id=person, person_id=person)
        dbs[robot].assign_description(rec, theta_local)
    return dbs


class TestExchangeProperties:
    @given(script=_sightings, mode=_mode, theta_local=_theta,
           theta_merge=_theta)
    @settings(max_examples=80, deadline=None)
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
    @settings(max_examples=80, deadline=None)
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
    @settings(max_examples=60, deadline=None)
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
    @settings(max_examples=40, deadline=None)
    def test_tombstone_cap_is_respected(self, script, theta_local, cap,
                                        theta_merge):
        dbs = {r: ClusterDatabase(owner=r, tombstone_cap=cap) for r in (0, 1)}
        for robot, person, tick in script:
            rec = DescriptionRecord.create(
                text=_TEXTS[person], robot_id=robot, tick=tick,
                track_id=person, person_id=person)
            dbs[robot].assign_description(rec, theta_local)
        for _ in range(3):
            exchange(dbs[0], dbs[1], theta_merge)
            assert len(dbs[0].tombstones) <= cap
            assert len(dbs[1].tombstones) <= cap


class TestAssignProperties:
    @given(script=_sightings, mode=_mode, theta_local=_theta)
    @settings(max_examples=80, deadline=None)
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
    @settings(max_examples=80, deadline=None)
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
    @settings(max_examples=40, deadline=None)
    def test_uids_strictly_increase(self, script, theta_local):
        db = ClusterDatabase(owner=0)
        created_order = []
        for i, (_, person, tick) in enumerate(script):
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
    @settings(max_examples=60, deadline=None)
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
_steps = st.lists(st.one_of(
    # (robot, person, rendering): the robot describes the person
    st.tuples(st.integers(0, 2), st.integers(0, 5), st.integers(0, 2)),
    # (robot, robot): the two robots meet
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
), min_size=1, max_size=40)
# Small caps make absorbs evict tombstones, which un-resolves uids the peer
# was known to hold.
_cap = st.sampled_from([0, 1, 2, DEFAULT_TOMBSTONE_CAP])


def _play(steps, mode, theta_local, theta_merge, check=None,
          cap=DEFAULT_TOMBSTONE_CAP):
    dbs = [ClusterDatabase(owner=r, mode=mode, tombstone_cap=cap)
           for r in range(3)]
    for tick, step in enumerate(steps):
        if len(step) == 3:
            robot, person, rendering = step
            dbs[robot].assign_description(DescriptionRecord.create(
                text=_RENDERINGS[person][rendering], robot_id=robot, tick=tick,
                track_id=person + 6 * rendering, person_id=person), theta_local)
        elif step[0] != step[1]:
            if check is not None:
                check(dbs[step[0]], dbs[step[1]], theta_merge)
            exchange(dbs[step[0]], dbs[step[1]], theta_merge)
    return dbs


def _one_sided(receiver, sender, theta_merge):
    """``receiver`` absorbing all of ``sender``'s clusters, on deep copies.

    Returns the receiver's snapshot and its (merged, copied, added) counts.
    """
    receiver, sender = copy.deepcopy(receiver), copy.deepcopy(sender)
    merged, copied, added, _ = receiver._absorb(sender.views(), theta_merge)
    return receiver.to_json(), (merged, copied, added)


def _cuts(views):
    return [(v.uid, v.start, v.n) for v in views]


def _scanned_cuts(db, since, unresolved):
    """Every cluster cut at its records logged before ``since`` (unresolved
    ones at 0), leaving out those with nothing past the cut."""
    held = Counter(db._log[:since])
    cuts = []
    for uid in sorted(db.clusters):
        n = len(db.clusters[uid].members)
        start = 0 if uid in unresolved else held[uid]
        if start != n:
            cuts.append((uid, start, n))
    return cuts


def _assert_full_state(a, b, theta_merge):
    """``exchange`` on copies of ``a`` and ``b`` equals full-state absorption
    in both directions, snapshots and stats alike; and wherever a side still
    holds knowledge of the other, the log suffix and unresolved uids yield
    the views a scan of every cluster does."""
    for side, peer in ((a, b), (b, a)):
        epoch, since, unresolved = side._known.get(peer.owner, (None, 0, set()))
        if epoch == peer._epoch():
            assert (_cuts(side.views(since, unresolved))
                    == _scanned_cuts(side, since, unresolved))
    json_a, counts_a = _one_sided(a, b, theta_merge)
    json_b, counts_b = _one_sided(b, a, theta_merge)
    a_copy, b_copy = copy.deepcopy(a), copy.deepcopy(b)
    stats = exchange(a_copy, b_copy, theta_merge)
    assert (a_copy.to_json(), b_copy.to_json()) == (json_a, json_b)
    assert stats == ExchangeStats(*counts_a, *counts_b)


class TestIncrementalState:
    @given(steps=_steps, mode=_mode, theta_local=_theta, theta_merge=_theta,
           cap=_cap)
    # Robot 0's three clusters all fold into one at robot 1 under a cap of
    # one tombstone, so later meetings need the full-view fallback.
    @example(steps=[(0, 0, 0), (0, 1, 0), (0, 2, 0), (0, 1), (0, 1), (0, 1)],
             mode="text", theta_local=1.0, theta_merge=0.0, cap=1)
    # Robot 1 learns robot 0's cluster through a tombstone, then evicts that
    # tombstone while meeting robot 2: robot 0 must send the cluster again.
    @example(steps=[(0, 0, 0), (1, 0, 0), (0, 1), (2, 1, 0), (1, 2), (0, 1)],
             mode="text", theta_local=1.0, theta_merge=0.0, cap=1)
    # With no tombstones, cluster (0, 0) merges into robot 1's twin but its
    # uid does not resolve there; once robot 1's cluster drifts below
    # theta_merge, the view sent again is neither merged nor copied. Robot 0
    # must keep (0, 0) unresolved, or it skips the view and counts it as
    # merged.
    @example(steps=[(0, 0, 0), (1, 0, 0), (0, 1), (1, 1, 0), (0, 1)],
             mode="text", theta_local=0.0, theta_merge=0.99, cap=0)
    @settings(max_examples=60, deadline=None)
    def test_exchange_equals_both_directions_from_copies(
            self, steps, mode, theta_local, theta_merge, cap):
        _play(steps, mode, theta_local, theta_merge, _assert_full_state, cap)

    @given(script=_sightings, theta_local=_theta, theta_merge=_theta)
    @settings(max_examples=40, deadline=None)
    def test_knowledge_does_not_cross_incarnations(
            self, script, theta_local, theta_merge):
        """A reload of an earlier snapshot of the peer holds less than the
        peer did, so what ``a`` learned about the peer must not apply."""
        dbs = _build(script, theta_local)
        earlier = dbs[1].to_json()
        exchange(dbs[0], dbs[1], theta_merge)
        _assert_full_state(dbs[0], ClusterDatabase.from_json(earlier),
                           theta_merge)

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
    # cluster (2, 0), later also inside robot 0's own cluster (0, 0): the
    # track index must move to the lower uid.
    @example(steps=[(2, 2, 2), (2, 4, 2), (2, 2, 0), (1, 0, 0), (2, 1), (1, 0, 0),
                    (0, 2), (0, 0, 1), (1, 0)],
             mode="text", theta_local=0.56, theta_merge=0.2)
    @settings(max_examples=60, deadline=None)
    def test_maintained_state_equals_recomputation(
            self, steps, mode, theta_local, theta_merge):
        for db in _play(steps, mode, theta_local, theta_merge):
            db.check_invariants()
            tracks = {}
            for uid in sorted(db.clusters):
                c = db.clusters[uid]
                for track in c.track_ids:
                    tracks.setdefault(track, uid)
                expected = embed(tokenize(c.summary_text))
                if mode == "vector-baseline":
                    mean = np.stack([embed(m.tokens) for m in c.members]).mean(axis=0)
                    norm = float(np.linalg.norm(mean))
                    expected = mean / norm if norm > 1e-12 else expected
                assert c.embedding.tobytes() == expected.tobytes()
            assert db._tracks == tracks


def _brute_force_query(db, text, k):
    """Every cluster scored by ``cosine``, ranked by (-score, uid)."""
    vec = embed(tokenize(text))
    scored = sorted(((cosine(vec, c.embedding), uid)
                     for uid, c in db.clusters.items()),
                    key=lambda pair: (-pair[0], pair[1]))
    return [(uid, score, db.clusters[uid].summary_text,
             tuple(sorted(db.clusters[uid].members,
                          key=lambda m: (-m.tick, m.robot_id, m.track_id))[:3]))
            for score, uid in scored[:k]]


_QUERIES = tuple(text for renderings in _RENDERINGS for text in renderings) + (
    "a lady with a green t-shirt", "a person with a black outfit")


class TestQueryProperties:
    @given(steps=_steps, mode=_mode, theta_local=_theta, theta_merge=_theta,
           text=st.sampled_from(_QUERIES))
    @settings(max_examples=60, deadline=None)
    def test_query_equals_brute_force_ranking(self, steps, mode, theta_local,
                                              theta_merge, text):
        for db in _play(steps, mode, theta_local, theta_merge):
            reloaded = ClusterDatabase.from_json(db.to_json())
            for k in (1, 3, len(db.clusters) + 2):
                expected = _brute_force_query(db, text, k)
                for queried in (db, reloaded):
                    assert [(h.uid, h.score, h.summary_text, h.samples)
                            for h in queried.query(text, k)] == expected
