import json

import numpy as np
import pytest

from swarmreid.errors import ContractError, EmptyDescriptionError
from swarmreid.language import cached_tokens, cosine, embed, tokenize
from swarmreid.perception import DescriptionRecord, canonical_description, sample_attributes
from swarmreid.reid import (SCHEMA_VERSION, ClusterDatabase, LanguageOps,
                            canonical_json, exchange)

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
        tally; any other gets the whole member list on every append, and its
        text becomes the summary."""
        calls = []

        def count_members(members):
            calls.append([m.key for m in members])
            return f"cluster of {len(members)}"

        ops = LanguageOps(summarize=count_members)
        a = ClusterDatabase(owner=0, ops=ops)
        b = ClusterDatabase(owner=1, ops=ops)
        for tick in range(2):
            a.assign_description(_record(WOMAN_TEXT, tick=tick, track_id=1), 0.8)
        b.assign_description(_record(MAN_TEXT, robot_id=1, track_id=1), 0.8)
        assert calls == [[(0, 1, 0)], [(0, 1, 0), (0, 1, 1)], [(1, 1, 0)]]
        exchange(a, b, 1.0)  # verbatim copies: summaries travel as they are
        assert len(calls) == 3
        b.assign_description(_record(MAN_TEXT, robot_id=1, tick=1, track_id=1), 0.8)
        exchange(a, b, 1.0)
        assert calls[3:] == [[(1, 1, 0), (1, 1, 1)]] * 2
        assert a.clusters[(1, 0)].summary_text == "cluster of 2"
        assert a.clusters[(0, 0)].summary_text == "cluster of 2"
        for db in (a, b):
            db.check_invariants()
            assert all(c.tally is None for c in db.clusters.values())


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

    def test_identical_databases_fixed_point(self):
        a = self._seeded_db(0, [(WOMAN_TEXT, 1), (MAN_TEXT, 2)])
        b = ClusterDatabase.from_json(a.to_json())
        b.owner = 1  # same content, different owner
        before_a, before_b = a.to_json(), b.to_json()
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
        db = ClusterDatabase(owner=0)
        for tick in (3, 9, 1, 7):
            db.assign_description(
                _record(WOMAN_TEXT, tick=tick, track_id=1), 0.8)
        hits = db.query(WOMAN_TEXT, k=1)
        assert [s.tick for s in hits[0].samples] == [9, 7, 3]

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
