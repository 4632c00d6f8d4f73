import json
import re

import numpy as np
import pytest

from swarmreid import reid
from swarmreid.errors import ContractError, EmptyDescriptionError
from swarmreid.language import (EMBEDDING_DIM, SlotTally, cached_tokens, cosine, embed,
                                summarize, tokenize)
from swarmreid.perception import DescriptionRecord, canonical_description, sample_attributes
from swarmreid.reid import (_TABLE, SCHEMA_VERSION, ClusterDatabase, LanguageOps,
                            _SimilarityIndex, canonical_json, exchange)

from oracles import oracle_delta, stacked_best, stacked_top

WOMAN_TEXT = "a woman wearing a red shirt and black skirt"
MAN_TEXT = "a man wearing a blue shirt and gray pants"
GREEN_TEXT = "a woman wearing a green t-shirt and blue jeans"


def _record(text, robot_id=0, tick=0, track_id=0, person_id=0):
    return DescriptionRecord.create(text=text, robot_id=robot_id, tick=tick,
                                    track_id=track_id, person_id=person_id)


class TestAssign:
    def test_empty_db_creates_singleton(self):
        db = ClusterDatabase(owner=0)
        uid, created = db.assign_description(_record(WOMAN_TEXT), 0.8)
        assert created is True
        assert uid == (0, 0)
        assert db.clusters[uid].summary_text == WOMAN_TEXT
        db.check_invariants()

    def test_identical_text_joins(self):
        db = ClusterDatabase(owner=0)
        first, _ = db.assign_description(_record(WOMAN_TEXT, track_id=1), 0.8)
        second, created = db.assign_description(
            _record(WOMAN_TEXT, track_id=2, tick=5), 0.8)
        assert created is False
        assert second == first
        assert len(db.clusters) == 1

    def test_threshold_is_inclusive(self):
        db = ClusterDatabase(owner=0)
        db.assign_description(_record(WOMAN_TEXT, track_id=1), 0.8)
        probe = _record(MAN_TEXT, track_id=2, tick=1)
        sim = cosine(embed(list(probe.tokens)),
                     db.clusters[(0, 0)].embedding)
        uid, created = db.assign_description(probe, sim)
        assert created is False
        assert uid == (0, 0)

    def test_below_threshold_creates_new(self):
        db = ClusterDatabase(owner=0)
        db.assign_description(_record(WOMAN_TEXT, track_id=1), 0.8)
        uid, created = db.assign_description(_record(MAN_TEXT, track_id=2), 0.8)
        assert created is True
        assert uid == (0, 1)

    def test_track_rule_overrides_similarity(self):
        db = ClusterDatabase(owner=0)
        db.assign_description(_record(WOMAN_TEXT, track_id=1, tick=0), 0.8)
        uid, created = db.assign_description(
            _record(MAN_TEXT, track_id=1, tick=10), 0.8)
        assert created is False
        assert uid == (0, 0)
        assert len(db.clusters) == 1
        db.check_invariants()

    def test_duplicate_record_rejected(self):
        db = ClusterDatabase(owner=0)
        db.assign_description(_record(WOMAN_TEXT), 0.8)
        with pytest.raises(ContractError):
            db.assign_description(_record(WOMAN_TEXT), 0.8)

    def test_bad_threshold_rejected(self):
        db = ClusterDatabase(owner=0)
        with pytest.raises(ContractError):
            db.assign_description(_record(WOMAN_TEXT), 1.5)

    def test_uid_counter_never_reused(self):
        db = ClusterDatabase(owner=3)
        uid_a, _ = db.assign_description(_record(WOMAN_TEXT, robot_id=3,
                                                 track_id=1), 0.8)
        uid_b, _ = db.assign_description(_record(MAN_TEXT, robot_id=3,
                                                 track_id=2), 0.8)
        assert uid_a == (3, 0)
        assert uid_b == (3, 1)
        assert db.uid_counter == 2


class TestSummarizerOps:
    def test_other_summarizer_sees_every_member_list(self):
        """Only the reference summarizer is served from the cluster's slot
        tally; any other gets the whole list of member texts on every
        append, and its text becomes the summary."""
        calls = []

        def count_members(texts):
            calls.append(list(texts))
            return f"cluster of {len(texts)}"

        ops = LanguageOps(summarize=count_members)
        a = ClusterDatabase(owner=0, ops=ops)
        b = ClusterDatabase(owner=1, ops=ops)
        woman = [WOMAN_TEXT, WOMAN_TEXT + ", with hat"]
        man = [MAN_TEXT, MAN_TEXT + ", with glasses"]
        for tick in range(2):
            a.assign_description(_record(woman[tick], tick=tick, track_id=1), 0.8)
        b.assign_description(_record(man[0], robot_id=1, track_id=1), 0.8)
        assert calls == [woman[:1], woman, man[:1]]
        exchange(a, b, 1.0)  # verbatim copies: summaries travel as they are
        assert len(calls) == 3
        b.assign_description(_record(man[1], robot_id=1, tick=1, track_id=1), 0.8)
        exchange(a, b, 1.0)
        assert calls[3:] == [man] * 2
        assert a.clusters[(1, 0)].summary_text == "cluster of 2"
        assert a.clusters[(0, 0)].summary_text == "cluster of 2"
        for db in (a, b):
            db.check_invariants()
            assert all(c.tally is None for c in db.clusters.values())

    def test_summarizer_is_given_texts_only(self):
        """No summarizer sees a record, and so no sealed person id: the
        appends of assignment and of exchange both hand it member texts."""
        kinds = []

        def typed_summarize(texts):
            kinds.append({type(t) for t in texts})
            return summarize(texts)

        ops = LanguageOps(summarize=typed_summarize)
        a = ClusterDatabase(owner=0, ops=ops)
        b = ClusterDatabase(owner=1, ops=ops)
        a.assign_description(_record(WOMAN_TEXT, track_id=1), 0.8)
        b.assign_description(_record(MAN_TEXT, robot_id=1, track_id=1), 0.8)
        exchange(a, b, 0.8)
        b.assign_description(_record(MAN_TEXT, robot_id=1, tick=1, track_id=1), 0.8)
        assigned = len(kinds)
        exchange(a, b, 0.8)  # a appends b's new record to its copy of (1, 0)
        assert len(kinds) == assigned + 1
        assert kinds == [{str}] * len(kinds)


class TestTextModeEmbeds:
    def test_members_embedded_only_without_track_match(self):
        """Text mode matches on summaries, so it embeds a record only to
        place it by similarity: never on a track-continuity append, a
        copy or a load."""
        embedded = []

        def counting_embed(tokens):
            embedded.append(tuple(tokens))
            return embed(tokens)

        def summary_tokens(db):
            return sorted(cached_tokens(c.summary_text) for c in db.clusters.values())

        ops = LanguageOps(embed=counting_embed)
        a = ClusterDatabase(owner=0, ops=ops)
        first = _record(WOMAN_TEXT, track_id=1)
        a.assign_description(first, 0.8)
        assert embedded == [first.tokens, cached_tokens(a.clusters[(0, 0)].summary_text)]
        embedded.clear()
        a.assign_description(_record(GREEN_TEXT, tick=1, track_id=1), 0.8)
        assert embedded == [cached_tokens(a.clusters[(0, 0)].summary_text)]

        b = ClusterDatabase(owner=1, ops=ops)
        embedded.clear()
        exchange(a, b, 0.8)
        assert embedded == summary_tokens(b)
        embedded.clear()
        loaded = ClusterDatabase.from_json(a.to_json(), ops=ops)
        assert sorted(embedded) == summary_tokens(loaded)


class TestSimilarityIndex:
    def test_growth_matches_a_stacked_matrix(self):
        """Rows set in order past each growth, and one re-set after the
        first, rank as a freshly stacked matrix of the same rows. A second
        index over other rows answers in between, so the shared scratch of
        ``best`` is set while held and taken over in turn."""
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(82, EMBEDDING_DIM))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        vectors[9] = vectors[4]  # a tie that best breaks by the lower uid
        probes = [vectors[4], vectors[40], *rng.normal(size=(3, EMBEDDING_DIM))]
        index, other = _SimilarityIndex(), _SimilarityIndex()
        uids, rows, other_rows = [], [], []

        def check(answering, rows):
            for vec in probes:
                assert answering.best(vec) == stacked_best(uids, rows, vec)
                for k in (1, 5, len(uids)):
                    assert answering.top(vec, k) == stacked_top(uids, rows, vec, k)

        for n in range(1, 81):
            uid = (n % 3, n)
            index.set(uid, vectors[n - 1])
            uids.append(uid)
            rows.append(vectors[n - 1])
            if n == 17:
                index.set(uids[2], vectors[81])
                rows[2] = vectors[81]
            check(index, rows)
            other.set(uid, vectors[80 - n])
            other_rows.append(vectors[80 - n])
            check(other, other_rows)
            check(index, rows)

    def test_rows_share_one_slot_per_vector(self):
        """Rows naming one vector object name one slot, counted per row; a
        slot is freed once no row of a live index names it."""
        vec = embed(tokenize(WOMAN_TEXT)).copy()
        other = embed(tokenize(MAN_TEXT)).copy()
        before = _TABLE.live()
        first, second = _SimilarityIndex(), _SimilarityIndex()
        first.set((0, 0), vec)
        second.set((1, 0), vec)
        second.set((1, 1), vec)
        slot = first._slots[0]
        assert second._slots[0] == second._slots[1] == slot
        assert (_TABLE.live(), _TABLE.counts[slot]) == (before + 1, 3)
        second.set((1, 1), other)
        del first
        assert (_TABLE.live(), _TABLE.counts[slot]) == (before + 2, 1)
        _TABLE.check()
        assert second.best(vec) == ((1, 0), 1.0)
        del second
        assert _TABLE.live() == before
        _TABLE.check()


class TestExchange:
    def _seeded_db(self, owner, texts_with_tracks):
        db = ClusterDatabase(owner=owner)
        for tick, (text, track) in enumerate(texts_with_tracks):
            db.assign_description(
                _record(text, robot_id=owner, tick=tick, track_id=track), 0.8)
        return db

    def test_copy_into_empty(self):
        a = ClusterDatabase(owner=0)
        b = self._seeded_db(1, [(WOMAN_TEXT, 1), (MAN_TEXT, 2)])
        before = b.to_json()
        stats = exchange(a, b, 0.8)
        assert sorted(a.clusters) == [(1, 0), (1, 1)]
        assert b.to_json() == before
        assert stats.copied_to_a == 2
        assert stats.merged_into_b == 0 and stats.copied_to_b == 0
        a.check_invariants()

    def test_invariants_check_watermark_index(self):
        # The delta slices each origin's log from the peer's count, groups
        # the entries by cluster uid and orders a cluster's records by their
        # member index, so every entry must name one held record of its
        # origin, and no placeholder may be left.
        db = self._seeded_db(0, [(WOMAN_TEXT, 1), (MAN_TEXT, 2)] * 2)
        db.check_invariants()
        log = db._by_origin[0]
        saved = [column[:] for column in log]

        def restore():
            for column, values in zip(log, saved):
                column[:] = values
            db.check_invariants()

        for column in log:
            del column[0]
        with pytest.raises(AssertionError, match="origin logs miss"):
            db.check_invariants()
        restore()
        log.uids.append(None)
        log.indexes.append(-1)
        with pytest.raises(AssertionError, match="entry 4 of origin 0 is a placeholder"):
            db.check_invariants()
        restore()
        log.indexes[0] += 2
        with pytest.raises(AssertionError, match="is not member 2"):
            db.check_invariants()
        restore()
        # Another held record of the origin: it is then listed twice.
        log.indexes[0] += 1
        with pytest.raises(AssertionError, match="origin logs miss or repeat"):
            db.check_invariants()
        restore()
        log.uids[0] = log.uids[1]
        with pytest.raises(AssertionError, match="origin logs miss or repeat"):
            db.check_invariants()
        restore()
        db._tracks[(0, 1)] = ((0, 1), 2)
        with pytest.raises(AssertionError, match="track index differs"):
            db.check_invariants()

    @pytest.mark.parametrize("robot_id, tick, track_id, named", [
        (1, 5, 2, "is not of owner 0"), (0, 0, 1, "is not after tick 1 of its track"),
        (0, 1, 1, "is not after tick 1 of its track")],
        ids=["foreign", "earlier", "repeated"])
    def test_foreign_or_earlier_record_breaks_the_contract(self, robot_id, tick, track_id,
                                                           named):
        """A record of another robot, or not after its own track's last
        tick, as one assigned already, is refused before any index changes."""
        db = self._seeded_db(0, [(WOMAN_TEXT, 1)] * 2)
        before = db.record_count(), db.to_json()
        record = _record(MAN_TEXT, robot_id=robot_id, tick=tick, track_id=track_id)
        with pytest.raises(ContractError, match=re.escape(f"record {record.key} {named}")):
            db.assign_description(record, 0.8)
        assert (db.record_count(), db.to_json()) == before
        db.check_invariants()

    def test_second_record_at_the_latest_tick_is_accepted(self):
        db = self._seeded_db(0, [(WOMAN_TEXT, 1)] * 2)
        db.assign_description(_record(MAN_TEXT, tick=1, track_id=2), 0.8)
        assert db.record_count() == 3
        assert [db.clusters[uid].members[i].tick
                for uid, i in zip(*db._by_origin[0])] == [0, 1, 1]
        db.check_invariants()

    def test_earlier_tick_on_another_track_is_accepted(self):
        """Only a record's own track bounds its tick: one of another track
        below the owner's latest tick is accepted. A peer that already holds
        the later records still gets it, as counts, not ticks, say what the
        peer holds."""
        db = self._seeded_db(0, [(WOMAN_TEXT, 1)] * 2)
        peer = self._seeded_db(1, [(GREEN_TEXT, 1)])
        exchange(db, peer, 0.8)
        db.assign_description(_record(MAN_TEXT, tick=0, track_id=2), 0.8)
        assert db.record_count() == 4
        assert ([(v.uid, v.members, v.n) for v in db._delta_for(peer)]
                == oracle_delta(db, peer))
        stats = exchange(db, peer, 0.8)
        assert stats.records_added_to_b == 1
        assert peer.record_keys() == db.record_keys()
        for side in (db, peer):
            side.check_invariants()

    @pytest.mark.parametrize("loaded_side", [0, 1])
    def test_loaded_database_does_not_exchange(self, loaded_side):
        """A database loaded by from_dict cannot know it holds a prefix of
        every origin's records: exchange with it raises and changes neither
        side."""
        sides = [self._seeded_db(0, [(WOMAN_TEXT, 1), (MAN_TEXT, 2)]),
                 self._seeded_db(1, [(GREEN_TEXT, 1)])]
        sides[loaded_side] = ClusterDatabase.from_json(sides[loaded_side].to_json())
        before = [db.to_json() for db in sides]
        with pytest.raises(ContractError, match=f"owner {loaded_side} was loaded"):
            exchange(*sides, 0.8)
        assert [db.to_json() for db in sides] == before

    def test_loaded_database_assigns_nothing(self):
        """A database loaded by from_dict is read-only: a record continuing
        a saved track, or founding one, is refused before anything changes."""
        db = ClusterDatabase.from_json(self._seeded_db(0, [(WOMAN_TEXT, 1)]).to_json())
        before = db.to_json()
        for track_id in (1, 2):
            with pytest.raises(ContractError, match="owner 0 was loaded"):
                db.assign_description(_record(MAN_TEXT, tick=1, track_id=track_id), 0.8)
        assert db.to_json() == before
        db.check_invariants()

    def test_invariants_check_tombstones(self):
        db = self._seeded_db(0, [(WOMAN_TEXT, 1), (MAN_TEXT, 2)])
        db.tombstones[(1, 0)] = (0, 0)
        db.check_invariants()
        for absorbed, survivor in (((0, 1), (0, 0)), ((1, 1), (1, 0))):
            db.tombstones[absorbed] = survivor
            with pytest.raises(AssertionError, match="not one hop"):
                db.check_invariants()
            del db.tombstones[absorbed]
        db.tombstone_cap = 0
        with pytest.raises(AssertionError, match="beyond the cap"):
            db.check_invariants()

    def test_eviction_sends_every_cluster(self):
        """Robot 1 evicts the tombstone of robot 0's cluster. Robot 0 has
        nothing new for it, but must send that cluster again, as a
        full-state exchange would: robot 1 no longer resolves its uid. At its
        cap, robot 1 gets a view of every cluster, each listing nothing."""
        a, c = (self._seeded_db(owner, [(WOMAN_TEXT, 1)]) for owner in (0, 2))
        b = ClusterDatabase(owner=1, tombstone_cap=1)
        b.assign_description(_record(WOMAN_TEXT, robot_id=1, track_id=1), 0.8)
        exchange(a, b, 0.8)
        assert list(b.tombstones) == [(0, 0)]
        exchange(b, c, 0.8)
        assert list(b.tombstones) == [(2, 0)]
        assert b.record_keys() >= a.record_keys()
        assert ([(v.uid, v.members, v.n) for v in a._delta_for(b)]
                == [(uid, [], len(c.members)) for uid, c in sorted(a.clusters.items())])
        stats = exchange(a, b, 0.8)
        assert (stats.merged_into_b, stats.copied_to_b) == (1, 0)
        assert list(b.tombstones) == [(0, 0)]
        b.check_invariants()

    def test_identical_databases_fixed_point(self):
        a = self._seeded_db(0, [(WOMAN_TEXT, 1), (MAN_TEXT, 2)])
        b = ClusterDatabase(owner=1)
        exchange(a, b, 0.8)  # same content, different owner
        assert b.clusters.keys() == a.clusters.keys()
        assert b.record_keys() == a.record_keys()
        exchange(a, b, 0.8)
        after_first_a, after_first_b = a.to_json(), b.to_json()
        exchange(a, b, 0.8)
        assert a.to_json() == after_first_a
        assert b.to_json() == after_first_b

    def test_same_outfit_clusters_merge_with_union(self):
        a = self._seeded_db(0, [(WOMAN_TEXT, 1)])
        b = self._seeded_db(1, [(WOMAN_TEXT, 1)])
        sim = cosine(a.clusters[(0, 0)].embedding,
                     b.clusters[(1, 0)].embedding)
        assert sim == 1.0
        exchange(a, b, 0.8)
        assert len(a.clusters) == 1
        assert len(b.clusters) == 1
        keys_a = {m.key for c in a.clusters.values() for m in c.members}
        keys_b = {m.key for c in b.clusters.values() for m in c.members}
        assert keys_a == keys_b == {(0, 1, 0), (1, 1, 0)}
        a.check_invariants()
        b.check_invariants()

    def test_merge_records_tombstone_redirect(self):
        a = self._seeded_db(0, [(WOMAN_TEXT, 1)])
        b = self._seeded_db(1, [(WOMAN_TEXT, 1)])
        exchange(a, b, 0.8)
        # b's cluster merged into a's (or vice versa); the absorbed uid is
        # remembered so a re-exchange recognizes it instead of re-copying
        assert (1, 0) in a.tombstones or (0, 0) in b.tombstones
        before = a.to_json()
        exchange(a, b, 0.8)
        assert a.to_json() == before

    def test_same_owner_rejected(self):
        a = ClusterDatabase(owner=0)
        b = ClusterDatabase(owner=0)
        with pytest.raises(ContractError):
            exchange(a, b, 0.8)

    def test_mixed_modes_rejected(self):
        a = ClusterDatabase(owner=0)
        b = ClusterDatabase(owner=1, mode="vector-baseline")
        with pytest.raises(ContractError, match="mode"):
            exchange(a, b, 0.8)

    @pytest.mark.parametrize("mode", ["text", "vector-baseline"])
    def test_copy_keeps_origin_vectors_bitwise(self, mode):
        b = ClusterDatabase(owner=1, mode=mode)
        for tick, text in enumerate([WOMAN_TEXT, GREEN_TEXT, MAN_TEXT]):
            b.assign_description(
                _record(text, robot_id=1, tick=tick, track_id=1), 0.8)
        a = ClusterDatabase(owner=0, mode=mode)
        assert exchange(a, b, 0.8).copied_to_a == 1
        origin, copy = b.clusters[(1, 0)], a.clusters[(1, 0)]
        assert copy.summary_text == origin.summary_text
        assert copy.embedding.tobytes() == origin.embedding.tobytes()
        if mode == "text":
            assert copy.embedding_sum is None and origin.embedding_sum is None
        else:
            assert copy.embedding_sum.tobytes() == origin.embedding_sum.tobytes()
        a.check_invariants()

    def test_distinct_outfits_copy_not_merge(self):
        a = self._seeded_db(0, [(WOMAN_TEXT, 1)])
        b = self._seeded_db(1, [(GREEN_TEXT, 1)])
        stats = exchange(a, b, 0.8)
        assert stats.copied_to_a == 1 and stats.copied_to_b == 1
        assert sorted(a.clusters) == [(0, 0), (1, 0)]
        assert sorted(b.clusters) == [(0, 0), (1, 0)]
        assert a.clusters[(1, 0)].summary_text == GREEN_TEXT


class TestAdoptedState:
    """A cluster that an exchange leaves with exactly the sender's members
    takes the sender's summary, tally and samples; a holder that grows
    rebinds its tally to a new one, so the other holder's stays as it was."""

    @pytest.fixture
    def work(self, monkeypatch):
        """Counts of the texts tallied (``SlotTally._add`` calls) and of
        tallies built from member texts."""
        counts = {"adds": 0, "builds": 0}
        add, init = SlotTally._add, SlotTally.__init__

        def counted_add(tally, text, k=1):
            counts["adds"] += 1
            add(tally, text, k)

        def counted_init(tally, texts=()):
            texts = list(texts)
            counts["builds"] += bool(texts)
            init(tally, texts)

        monkeypatch.setattr(SlotTally, "_add", counted_add)
        monkeypatch.setattr(SlotTally, "__init__", counted_init)
        return counts

    def _woman_db(self, owner):
        db = ClusterDatabase(owner=owner)
        for tick, text in enumerate([WOMAN_TEXT, WOMAN_TEXT + ", with hat"]):
            db.assign_description(_record(text, robot_id=owner, tick=tick, track_id=1), 0.8)
        return db

    def test_copy_then_one_append_adds_once(self, work):
        b = self._woman_db(1)
        a = ClusterDatabase(owner=0)
        work.update(adds=0, builds=0)
        assert exchange(a, b, 0.8).copied_to_a == 1
        copy, origin = a.clusters[(1, 0)], b.clusters[(1, 0)]
        assert copy.tally is origin.tally
        assert work == {"adds": 0, "builds": 0}
        uid, created = a.assign_description(_record(WOMAN_TEXT, tick=5, track_id=1), 0.5)
        assert (uid, created) == ((1, 0), False)
        assert work == {"adds": 1, "builds": 0}
        assert copy.tally is not origin.tally
        assert origin.tally == SlotTally([m.text for m in origin.members])
        for db in (a, b):
            db.check_invariants()

    def test_merge_of_the_same_members_in_another_order_adopts(self, work):
        """a and b fold each other's woman into their own, in opposite member
        orders; a's next record then reaches b's twin through its tombstone,
        which ends with a's member set though not a's member order."""
        a = ClusterDatabase(owner=0)
        b = ClusterDatabase(owner=1)
        a.assign_description(_record(WOMAN_TEXT, track_id=1), 0.8)
        b.assign_description(_record(WOMAN_TEXT, robot_id=1, track_id=1), 0.8)
        exchange(a, b, 0.8)
        a.assign_description(_record(WOMAN_TEXT + ", with hat", tick=1, track_id=1), 0.8)
        sender, twin = a.clusters[(0, 0)], b.clusters[(1, 0)]
        assert [m.key for m in twin.members] == [(1, 1, 0), (0, 1, 0)]
        assert [m.key for m in sender.members] == [(0, 1, 0), (1, 1, 0), (0, 1, 1)]
        work.update(adds=0, builds=0)
        assert exchange(a, b, 0.8).records_added_to_b == 1
        assert work == {"adds": 0, "builds": 0}
        assert twin.tally is sender.tally and twin.samples is sender.samples
        assert twin.summary_text == sender.summary_text
        for db in (a, b):
            db.check_invariants()

    @pytest.mark.parametrize("assigner", [0, 1], ids=["sender", "adopter"])
    def test_later_append_leaves_the_other_holder_unchanged(self, assigner):
        """b adopts a's state; the next record either side assigns to that
        cluster changes neither the other side's tally nor its summary nor
        its samples."""
        a, b = self._woman_db(0), ClusterDatabase(owner=1)
        exchange(a, b, 0.8)
        sender, adopter = a.clusters[(0, 0)], b.clusters[(0, 0)]
        assert adopter.tally is sender.tally and adopter.samples is sender.samples
        assert adopter.summary_text == sender.summary_text
        appender, other = (sender, adopter) if assigner == 0 else (adopter, sender)
        tally, summary, samples = other.tally, other.summary_text, other.samples
        votes = SlotTally([m.text for m in other.members])
        text = WOMAN_TEXT + ", with glasses"
        uid, _ = (a, b)[assigner].assign_description(
            _record(text, robot_id=assigner, tick=2, track_id=1), 0.5)
        assert uid == (0, 0) and len(appender.members) == 3
        assert appender.summary_text != summary and appender.samples != samples
        assert other.tally is tally and other.tally == votes
        assert (other.summary_text, other.samples) == (summary, samples)
        for db in (a, b):
            db.check_invariants()


class TestQuery:
    def test_empty_db(self):
        db = ClusterDatabase(owner=0)
        assert db.query("a woman in red", k=3) == []

    def test_verbatim_summary_scores_one(self):
        db = ClusterDatabase(owner=0)
        db.assign_description(_record(WOMAN_TEXT, track_id=1), 0.8)
        db.assign_description(_record(GREEN_TEXT, track_id=2, tick=1), 0.8)
        hits = db.query(WOMAN_TEXT, k=2)
        assert hits[0].uid == (0, 0)
        assert hits[0].score == 1.0
        assert hits[0].summary_text == WOMAN_TEXT

    def test_stopword_query_raises(self):
        db = ClusterDatabase(owner=0)
        db.assign_description(_record(WOMAN_TEXT), 0.8)
        with pytest.raises(EmptyDescriptionError):
            db.query("the a with", k=1)

    def test_k_validated(self):
        db = ClusterDatabase(owner=0)
        with pytest.raises(ContractError):
            db.query("a woman", k=0)

    def test_samples_most_recent_first(self):
        # Members listed out of tick order, as a merge can leave them.
        db = ClusterDatabase.from_dict({
            "schema_version": SCHEMA_VERSION, "owner": 0, "mode": "text",
            "uid_counter": 1, "tombstones": [], "clusters": [
                {"uid": [0, 0], "summary_text": WOMAN_TEXT, "track_ids": [[0, 1]],
                 "members": [{"text": WOMAN_TEXT, "robot_id": 0, "tick": tick,
                              "track_id": 1, "person_id": 0}
                             for tick in (3, 9, 1, 7)]}]})
        db.check_invariants()
        hits = db.query(WOMAN_TEXT, k=1)
        assert [s.tick for s in hits[0].samples] == [9, 7, 3]

    def test_samples_order_shared_ticks_after_exchange_copy_and_reload(self):
        # Records share tick 5 across robots and tracks; each robot assigns
        # in tick order, but a merge leaves members out of tick order on
        # both sides, and robot 2 then takes a verbatim copy. Samples order
        # by (-tick, robot_id, track_id).
        a = ClusterDatabase(owner=0)
        b = ClusterDatabase(owner=1)
        c = ClusterDatabase(owner=2)
        for track_id in (2, 1, 3):
            a.assign_description(_record(WOMAN_TEXT, tick=5, track_id=track_id), 0.8)
        for track_id, tick in ((3, 2), (1, 5), (0, 9)):
            b.assign_description(
                _record(WOMAN_TEXT, robot_id=1, tick=tick, track_id=track_id), 0.8)
        assert exchange(a, b, 0.8).merged_into_a == 1
        assert exchange(c, a, 0.8).copied_to_a == 1
        expected = [(1, 0, 9), (0, 1, 5), (0, 2, 5)]
        for db in (a, b, c):
            for loaded in (db, ClusterDatabase.from_json(db.to_json())):
                loaded.check_invariants()
                (cluster,) = loaded.clusters.values()
                assert [m.key for m in cluster.members] != sorted(
                    (m.key for m in cluster.members), key=lambda k: (-k[2], k[0], k[1]))
                assert cluster.last_member_tick() == 9
                hits = loaded.query(WOMAN_TEXT, k=1)
                assert [s.key for s in hits[0].samples] == expected

    def test_k_cuts_tied_scores_toward_lowest_uids(self):
        # Six one-member clusters of the same text, listed from the highest
        # uid down so the index holds them in descending uid order, below a
        # lower uid of another text.
        clusters = [
            {"uid": [0, i], "summary_text": WOMAN_TEXT, "track_ids": [[0, i]],
             "members": [{"text": WOMAN_TEXT, "robot_id": 0, "tick": i,
                          "track_id": i, "person_id": i}]}
            for i in range(6, 0, -1)
        ]
        clusters.append(
            {"uid": [0, 0], "summary_text": MAN_TEXT, "track_ids": [[0, 0]],
             "members": [{"text": MAN_TEXT, "robot_id": 0, "tick": 0,
                          "track_id": 0, "person_id": 0}]})
        db = ClusterDatabase.from_dict({
            "schema_version": SCHEMA_VERSION, "owner": 0, "mode": "text",
            "uid_counter": 7, "tombstones": [], "clusters": clusters})
        db.check_invariants()
        hits = db.query(WOMAN_TEXT, k=3)
        assert [h.uid for h in hits] == [(0, 1), (0, 2), (0, 3)]
        assert len({h.score for h in hits}) == 1

    def test_green_t_shirt_ranks_first(self):
        db = ClusterDatabase(owner=0)
        db.assign_description(_record(WOMAN_TEXT, track_id=1), 0.8)
        db.assign_description(_record(GREEN_TEXT, track_id=2, tick=1), 0.8)
        db.assign_description(_record(MAN_TEXT, track_id=3, tick=2), 0.8)
        hits = db.query("a lady with a green t-shirt", k=3)
        assert hits[0].summary_text == GREEN_TEXT


class TestQueryScoreMemo:
    """Exact query scores are the vector table's, one per distinct vector
    for every database asked the query, until a slot is written."""

    def test_databases_sharing_vectors_score_each_once(self, monkeypatch):
        a, b = ClusterDatabase(owner=0), ClusterDatabase(owner=1)
        for tick, text in enumerate((WOMAN_TEXT, GREEN_TEXT, MAN_TEXT)):
            a.assign_description(_record(text, tick=tick, track_id=tick), 0.8)
        assert exchange(a, b, 0.8).copied_to_b == 3
        assert all(b.clusters[uid].embedding is c.embedding for uid, c in a.clusters.items())
        scored = []
        real = reid.cosine
        monkeypatch.setattr(reid, "cosine",
                            lambda u, v: scored.append(id(v)) or real(u, v))
        # A text no other test asks, so its vector object is new to the memo.
        text = "a lady in a green top asked of two databases"
        hits = [db.query(text, k=3) for db in (a, b)]
        assert sorted(scored) == sorted(id(c.embedding) for c in a.clusters.values())
        assert hits[0] == hits[1]
        vec = embed(tokenize(text))
        assert sorted((-h.score, h.uid) for h in hits[0]) == sorted(
            (-real(vec, c.embedding), uid) for uid, c in a.clusters.items())
        _TABLE.check()

    def test_rewritten_slot_is_scored_again(self):
        # A vector-baseline mean is a new array on every append, so the
        # cluster's slot is freed and taken again by the new mean.
        db = ClusterDatabase(owner=0, mode="vector-baseline")
        db.assign_description(_record(WOMAN_TEXT, track_id=1), 0.8)
        text = "a woman in a red shirt asked before and after a rewrite"
        (before,) = db.query(text, k=1)
        slot = int(db._index._slots[0])
        db.assign_description(_record(GREEN_TEXT, tick=1, track_id=1), 0.8)
        assert int(db._index._slots[0]) == slot
        (after,) = db.query(text, k=1)
        expected = cosine(embed(tokenize(text)), db.clusters[(0, 0)].embedding)
        assert after.score == expected != before.score
        db.check_invariants()

    def test_check_catches_a_wrong_memo_score(self):
        db = ClusterDatabase(owner=0)
        db.assign_description(_record(WOMAN_TEXT, track_id=1), 0.8)
        db.query("a woman in red whose score is then corrupted", k=1)
        slot = int(db._index._slots[0])
        score = _TABLE._scores[slot]
        _TABLE._scores[slot] = np.nextafter(score, 0.0)
        try:
            with pytest.raises(AssertionError, match=f"memo score of slot {slot}"):
                db.check_invariants()
        finally:
            _TABLE._scores[slot] = score
        db.check_invariants()


class TestSerialization:
    def _db(self, mode="text"):
        db = ClusterDatabase(owner=2, mode=mode)
        db.assign_description(_record(WOMAN_TEXT, robot_id=2, track_id=1), 0.8)
        db.assign_description(_record(MAN_TEXT, robot_id=2, track_id=2, tick=3), 0.8)
        return db

    def test_round_trip_byte_stable(self):
        for mode in ("text", "vector-baseline"):
            db = self._db(mode)
            clone = ClusterDatabase.from_json(db.to_json())
            assert clone.to_json() == db.to_json()
            clone.check_invariants()
            # Loading builds no slot tallies; the first append does.
            assert all(c.tally is None for c in clone.clusters.values())

    def test_canonical_key_order(self):
        db = self._db()
        doc = json.loads(db.to_json())
        assert list(doc) == sorted(doc)
        assert db.to_json() == canonical_json(json.loads(db.to_json()))

    def test_schema_version_checked(self):
        doc = json.loads(self._db().to_json())
        doc["schema_version"] = 99
        with pytest.raises(ContractError):
            ClusterDatabase.from_dict(doc)

    def test_duplicate_member_keys_rejected(self):
        doc = json.loads(self._db().to_json())
        doc["clusters"][1]["members"] = list(doc["clusters"][0]["members"])
        with pytest.raises(ContractError):
            ClusterDatabase.from_dict(doc)

    def test_member_listed_twice_in_one_cluster_rejected(self):
        doc = json.loads(self._db().to_json())
        members = doc["clusters"][0]["members"]
        members.append(dict(members[0]))
        with pytest.raises(ContractError, match="repeat a record"):
            ClusterDatabase.from_dict(doc)

    def test_listed_tracks_must_be_the_members_tracks(self):
        db = ClusterDatabase(owner=2)
        for tick, track_id in enumerate((3, 1, 2)):
            db.assign_description(
                _record(WOMAN_TEXT, robot_id=2, tick=tick, track_id=track_id), 0.8)
        saved = db.to_json()
        doc = json.loads(saved)
        (cluster,) = doc["clusters"]
        assert cluster["track_ids"] == [[2, 1], [2, 2], [2, 3]]
        cluster["track_ids"] = [[2, 2], [2, 3], [2, 1]]
        assert ClusterDatabase.from_dict(doc).to_json() == saved
        for tracks in ([[2, 1], [2, 2]], [[2, 1], [2, 2], [2, 3], [2, 4]],
                       [[2, 1], [2, 2], [1, 3]]):
            cluster["track_ids"] = tracks
            with pytest.raises(ContractError, match="lists tracks other than"):
                ClusterDatabase.from_dict(doc)
        for tracks in (5, None, [[2, 1], 5], [[[2], 1]]):
            cluster["track_ids"] = tracks
            with pytest.raises(ContractError, match="snapshot track_ids .* of cluster "
                                                    r"\(2, 0\) is not a list of track pairs"):
                ClusterDatabase.from_dict(doc)

    def test_tombstones_one_hop_to_live_clusters_within_cap(self):
        doc = json.loads(self._db().to_json())
        doc["tombstones"] = [[[1, 0], [2, 0]], [[1, 1], [2, 1]]]
        saved = canonical_json(doc)
        assert ClusterDatabase.from_json(saved).to_json() == saved
        doc["tombstone_cap"] = 1
        with pytest.raises(ContractError, match="more tombstones than its cap"):
            ClusterDatabase.from_dict(doc)
        doc["tombstone_cap"] = 2
        for tombstones in (
                [[[2, 1], [2, 0]]],                    # keyed by a live uid
                [[[1, 0], [1, 1]], [[1, 1], [2, 0]]],  # two hops
                [[[1, 1], [2, 0]], [[1, 0], [1, 1]]],  # two hops, listed backwards
                [[[1, 0], [3, 0]]],                    # no live target
                [[[1, 0], [2, 0]], [[1, 0], [2, 1]]]):  # one key listed twice
            doc["tombstones"] = tombstones
            with pytest.raises(ContractError, match="not one hop"):
                ClusterDatabase.from_dict(doc)

    @pytest.mark.parametrize("value", ["x", -1, True, 1.0, None])
    def test_uid_counter_must_be_an_int_at_least_zero(self, value):
        doc = json.loads(self._db().to_json())
        doc["uid_counter"] = value
        with pytest.raises(ContractError, match="snapshot uid_counter"):
            ClusterDatabase.from_dict(doc)

    @pytest.mark.parametrize("uid", [[2], [2, 0, 1], [2, "0"], [2, True], "2,0"])
    def test_cluster_uid_must_be_two_ints(self, uid):
        doc = json.loads(self._db().to_json())
        doc["clusters"][0]["uid"] = uid
        with pytest.raises(ContractError, match="snapshot cluster uid"):
            ClusterDatabase.from_dict(doc)

    @pytest.mark.parametrize("tombstone, field", [
        ([[1], [2, 0]], "key"), ([[1, 0.0], [2, 0]], "key"),
        ([[1, 0], [2]], "target"), ([[1, 0], [2, 0.0]], "target")])
    def test_tombstone_uids_must_be_two_ints(self, tombstone, field):
        doc = json.loads(self._db().to_json())
        doc["tombstones"] = [tombstone]
        with pytest.raises(ContractError, match=f"snapshot tombstone {field}"):
            ClusterDatabase.from_dict(doc)

    @pytest.mark.parametrize("field, value", [
        ("robot_id", "2"), ("robot_id", True), ("tick", "0"), ("tick", 0.0),
        ("track_id", None), ("person_id", None), ("person_id", False),
        ("text", 5), ("text", None)])
    def test_member_fields_must_be_typed(self, field, value):
        """Checked where the record is built, so even a value that equals
        the saved one (0.0 for 0) is refused."""
        doc = json.loads(self._db().to_json())
        doc["clusters"][0]["members"][0][field] = value
        with pytest.raises(ContractError, match=f"record {field}"):
            ClusterDatabase.from_dict(doc)

    def test_embeddings_recomputed_not_trusted(self):
        db = self._db()
        clone = ClusterDatabase.from_json(db.to_json())
        for uid, cluster in db.clusters.items():
            assert np.array_equal(cluster.embedding,
                                  clone.clusters[uid].embedding)


class TestVectorBaselineMode:
    def test_centroid_used_for_matching(self):
        db = ClusterDatabase(owner=0, mode="vector-baseline")
        db.assign_description(_record(WOMAN_TEXT, track_id=1), 0.8)
        cluster = db.clusters[(0, 0)]
        member_vec = embed(list(cluster.members[0].tokens))
        assert np.allclose(cluster.embedding, member_vec)
        db.check_invariants()

    def test_tombstone_cap_bounds_memory(self):
        a = ClusterDatabase(owner=0, tombstone_cap=1)
        b = ClusterDatabase(owner=1, tombstone_cap=1)
        for i, text in enumerate([WOMAN_TEXT, MAN_TEXT, GREEN_TEXT]):
            a.assign_description(
                _record(text, robot_id=0, track_id=i, tick=i), 0.8)
            b.assign_description(
                _record(text, robot_id=1, track_id=i, tick=i), 0.8)
        exchange(a, b, 0.8)
        assert len(a.tombstones) <= 1
        assert len(b.tombstones) <= 1
