import gc
import json
import os
import shutil
import warnings
from pathlib import Path

import pytest

from oracles import brute_force_query, record_keys, stacked_best, stacked_top
from swarmreid import config as cfg, runner
from swarmreid.config import SimConfig, load_config, set_value, validate
from swarmreid.errors import ConfigError, ContractError
from swarmreid.language import embed, tokenize
from swarmreid.perception import canonical_description
from swarmreid.reid import _TABLE, REFERENCE_OPS, ClusterDatabase, canonical_json
from swarmreid.runner import RunArtifact, run_experiment, sweep, sweep_csv


def _tweak(base, pairs):
    for key, value in pairs:
        base = set_value(base, key, value)
    return base


def _small(seed=0, **extra):
    pairs = [("seed", seed), ("duration_ticks", 300)]
    pairs.extend(extra.items())
    return _tweak(SimConfig(), pairs)


class TestConfig:
    def test_defaults_are_valid(self):
        assert validate(SimConfig()) == []

    def test_override_strings_parse_as_yaml_scalars(self):
        c = cfg.apply_overrides(SimConfig(), [
            "robots.count=5", "communication_enabled=false",
            "thresholds.theta_local=0.75"])
        assert c.robots.count == 5
        assert c.communication_enabled is False
        assert c.thresholds.theta_local == 0.75

    def test_set_value_rejects_type_mismatch(self):
        with pytest.raises(ConfigError, match="robots.count"):
            set_value(SimConfig(), "robots.count", "5")
        c = set_value(SimConfig(), "robots.count", 5)
        assert c.robots.count == 5
        assert SimConfig().robots.count == 4  # frozen copies, not mutation

    @pytest.mark.parametrize("text, value", [
        ("1e-9", 1e-9), ("1.0e6", 1e6), ("1_000.5", 1000.5)])
    def test_python_float_literals_accepted(self, tmp_path, text, value):
        c = cfg.apply_overrides(SimConfig(), [f"robots.comm_range={text}"])
        assert c.robots.comm_range == value
        path = tmp_path / "c.yaml"
        path.write_text(f"robots:\n  comm_range: {text}\n"
                        f"arena:\n  obstacles:\n  - [{text}, 0, 2, 1]\n")
        c = load_config(path)
        assert c.robots.comm_range == value
        assert c.arena.obstacles == ((value, 0.0, 2.0, 1.0),)

    @pytest.mark.parametrize("text", ["abc", "nan", "inf", "1e400", "true",
                                      pytest.param("1" + "0" * 400, id="1e400-int")])
    def test_non_numbers_rejected_for_floats(self, text):
        with pytest.raises(ConfigError, match="robots.comm_range: expected a number"):
            cfg.apply_overrides(SimConfig(), [f"robots.comm_range={text}"])

    def test_unknown_key_names_the_key(self):
        with pytest.raises(ConfigError, match="robots.wheels"):
            set_value(SimConfig(), "robots.wheels", 4)

    def test_validation_lists_every_offending_key(self):
        c = _tweak(SimConfig(), [("dt", -1.0), ("noise.p_drop", 2.0)])
        problems = validate(c)
        assert any(p.startswith("dt:") for p in problems)
        assert any(p.startswith("noise.p_drop:") for p in problems)
        with pytest.raises(ConfigError) as err:
            run_experiment(c)
        assert "dt" in str(err.value) and "noise.p_drop" in str(err.value)

    def test_load_config_yaml(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(
            "people:\n  count: 50\nnoise:\n  p_drop: 0.1\n"
            "arena:\n  obstacles:\n  - [-4, -4, -1, -1]\n"
        )
        c = load_config(path)
        assert c.people.count == 50
        assert c.noise.p_drop == 0.1
        assert c.arena.obstacles == ((-4.0, -4.0, -1.0, -1.0),)
        assert c.robots.count == SimConfig().robots.count

    def test_from_dict_inverts_to_dict(self):
        c = _tweak(SimConfig(), [
            ("arena.obstacles", [[-4, -4, -1, -1], [1, 1, 3, 2]]),
            ("providers.describer", {"command": "python3 -m stub describe"}),
            ("providers.embedder.transport", "http"),
            ("providers.embedder.url", "http://localhost:1/embed"),
            ("providers.summarizer", {"transport": "subprocess",
                                      "command": ["stub", "summarize"]}),
        ])
        assert c.providers.describer.command == ("python3", "-m", "stub", "describe")
        assert cfg.from_dict(cfg.to_dict(c)) == c
        assert cfg.from_dict(cfg.to_dict(SimConfig())) == SimConfig()

    def test_from_dict_rejects_unknown_and_mistyped_keys(self):
        with pytest.raises(ConfigError, match="robots.wheels"):
            cfg.from_dict({"robots": {"count": 4, "wheels": 3}})
        with pytest.raises(ConfigError, match="providers.embedder.port"):
            set_value(SimConfig(), "providers.embedder", {"port": 80})
        with pytest.raises(ConfigError, match="seed"):
            cfg.from_dict({"seed": "zero"})

    def test_fingerprint_tracks_config_content(self):
        base = SimConfig()
        assert cfg.fingerprint(base) == cfg.fingerprint(SimConfig())
        changed = set_value(base, "thresholds.theta_merge", 0.9)
        assert cfg.fingerprint(changed) != cfg.fingerprint(base)
        same = set_value(base, "thresholds.theta_merge",
                         base.thresholds.theta_merge)
        assert cfg.fingerprint(same) == cfg.fingerprint(base)


class TestRunExperiment:
    def test_small_scenario_shape(self):
        for mode in ("text", "vector-baseline"):
            art = run_experiment(_small(mode=mode))
            assert len(art.databases) == 4
            assert [db.owner for db in art.databases] == [0, 1, 2, 3]
            assert art.fingerprint == cfg.fingerprint(art.config)
            assert art.metrics.config_fingerprint == art.fingerprint
            assert len(art.people) == 6
            assert art.metrics.detected_identity_count >= 1
            for db in art.databases:
                assert db.mode == mode
                db.check_invariants()

    def test_duration_zero_reports_cleanly(self):
        art = run_experiment(_small(duration_ticks=0))
        assert all(not db.clusters for db in art.databases)
        assert art.metrics.cmc == ()
        assert art.metrics.map_score == 0.0
        assert art.metrics.avg_purity == 0.0
        assert art.metrics.detected_identity_count == 0

    def test_repeat_runs_byte_identical(self, tmp_path):
        a = run_experiment(_small(seed=3)).save(tmp_path / "a")
        b = run_experiment(_small(seed=3)).save(tmp_path / "b")
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_adding_a_robot_leaves_existing_streams_alone(self):
        base = _small(seed=5, communication_enabled=False)
        two = run_experiment(set_value(base, "robots.count", 2))
        three = run_experiment(set_value(base, "robots.count", 3))
        assert two.databases[0].to_json() == three.databases[0].to_json()
        assert two.databases[1].to_json() == three.databases[1].to_json()

    def test_no_free_space_rejected(self):
        c = _small(seed=0)
        c = set_value(c, "arena.width", 10.0)
        c = set_value(c, "arena.height", 10.0)
        c = set_value(c, "arena.obstacles", ((-5.0, -5.0, 5.0, 5.0),))
        with pytest.raises(ConfigError, match="no free space"):
            run_experiment(c)

    def test_event_log_shape(self):
        art = run_experiment(_small(seed=1))
        assert art.events, "expected at least one event"
        last_tick = 0
        types = set()
        for event in art.events:
            types.add(event["type"])
            assert event["tick"] >= last_tick
            last_tick = event["tick"]
            if event["type"] == "assign":
                assert set(event) == {"type", "tick", "robot", "track_id",
                                      "uid", "created"}
            elif event["type"] == "exchange":
                assert {"robots", "merged_into_a", "copied_to_a",
                        "records_added_to_a"} <= set(event)
            else:
                raise AssertionError(f"unexpected event type {event['type']}")
        assert "assign" in types

    def test_communication_off_emits_no_exchanges(self):
        art = run_experiment(_small(seed=1, communication_enabled=False))
        assert all(e["type"] != "exchange" for e in art.events)

    def test_description_period_gates_emissions(self):
        period = 25
        art = run_experiment(_tweak(_small(seed=2), [
            ("perception.description_period", period)]))
        ticks = {}
        for event in art.events:
            if event["type"] == "assign":
                ticks.setdefault((event["robot"], event["track_id"]),
                                 []).append(event["tick"])
        assert ticks
        for seq in ticks.values():
            assert all(b - a >= period for a, b in zip(seq, seq[1:]))


class TestArtifactIO:
    def test_saved_file_set(self, tmp_path):
        out = run_experiment(_small()).save(tmp_path / "run")
        expected = {"config.json", "people.json", "events.ndjson",
                    "metrics.json", "cmc.csv"}
        expected |= {f"db_robot_{i}.json" for i in range(4)}
        assert {p.name for p in out.iterdir()} == expected
        doc = json.loads((out / "config.json").read_text())
        assert set(doc) == {"config", "fingerprint"}
        header = (out / "cmc.csv").read_text().splitlines()[0]
        assert header == "rank,cmc"

    def test_round_trip_preserves_everything(self, tmp_path):
        art = run_experiment(_small(seed=4))
        out = art.save(tmp_path / "run")
        loaded = RunArtifact.load(out)
        assert loaded.config == art.config
        assert loaded.fingerprint == art.fingerprint
        assert loaded.people == art.people
        assert loaded.events == art.events
        assert loaded.metrics.to_json() == art.metrics.to_json()
        assert [db.to_json() for db in loaded.databases] == [
            db.to_json() for db in art.databases]
        again = loaded.save(tmp_path / "again")
        for p in out.iterdir():
            assert p.read_bytes() == (again / p.name).read_bytes(), p.name


class TestSweep:
    def test_communication_axis_two_rows(self):
        rows = sweep(_small(), "communication_enabled", [False, True],
                     seeds=[0, 1])
        assert [r.value for r in rows] == [False, True]
        assert all(r.n_runs == 2 for r in rows)
        for row in rows:
            assert 0.0 <= row.means["map"] <= 1.0
            assert row.stds["map"] >= 0.0

    def test_csv_shape_and_round_trip(self):
        rows = sweep(_small(), "thresholds.theta_merge", [0.8], seeds=[0])
        text = sweep_csv(rows)
        lines = text.splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["axis", "value", "n_runs"]
        assert "map_mean" in header and "map_std" in header
        fields = lines[1].split(",")
        idx = header.index("map_mean")
        assert float(fields[idx]) == rows[0].means["map"]

    def test_parallel_matches_serial(self):
        base = _small()
        serial = sweep(base, "people.count", [3, 6], seeds=[0, 1], workers=1)
        parallel = sweep(base, "people.count", [3, 6], seeds=[0, 1], workers=2)
        assert serial == parallel

    def test_list_valued_axis_one_row_per_value(self):
        # Rows are grouped by cell position, so a value need not hash.
        obstacles = [[], [[0.0, 0.0, 1.0, 1.0]]]
        rows = sweep(_small(duration_ticks=5), "arena.obstacles", obstacles, seeds=[0])
        assert [(r.value, r.n_runs) for r in rows] == [(v, 1) for v in obstacles]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError):
            sweep(_small(), "robots.wings", [1], seeds=[0])

    def test_seed_axis_rejected(self):
        # Each cell's seed comes from ``seeds``, so a seed axis would yield
        # identical rows.
        with pytest.raises(ConfigError, match="seeds"):
            sweep(_small(), "seed", [0, 1, 2], seeds=[0])

    def test_repeated_value_rejected(self):
        # A repeat would only run the same cells twice, as two identical rows.
        with pytest.raises(ConfigError, match="values"):
            sweep(_small(), "people.count", [3, 3], seeds=[0])

    def test_repeated_seed_rejected(self):
        # A repeat would run one cell twice and read every std as 0.0.
        with pytest.raises(ConfigError, match="seeds: 0 is given more than once"):
            sweep(_small(), "people.count", [3], seeds=[0, 0])

    @pytest.mark.parametrize("workers", [0, -4])
    def test_workers_below_one_rejected_before_the_first_cell(self, workers):
        progress = []
        with pytest.raises(ConfigError, match="workers: must be at least 1"):
            sweep(_small(duration_ticks=20), "people.count", [3], seeds=[0],
                  workers=workers, progress=progress.append)
        assert progress == []

    def test_every_value_validated_before_the_first_cell(self):
        progress = []
        with pytest.raises(ConfigError, match="people.count"):
            sweep(_small(duration_ticks=50), "people.count", [3, 0], seeds=[0, 1],
                  progress=progress.append)
        assert progress == []


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    """A small four-robot run with exchange, saved."""
    art = run_experiment(_small(seed=4))
    assert any(e["type"] == "exchange" for e in art.events)
    return art.save(tmp_path_factory.mktemp("runner") / "run")


def _records(databases):
    return [m for db in databases for c in db.clusters.values() for m in c.members]


def _exchanged_pair(run):
    """Robot ids of the first exchange that moved records."""
    for line in (run / "events.ndjson").read_text().splitlines():
        event = json.loads(line)
        if event["type"] == "exchange" and event["records_added_to_a"]:
            return event["robots"]
    raise AssertionError("no exchange moved records")


def _edited_copy(run, tmp_path, name, edit):
    out = tmp_path / "edited"
    shutil.copytree(run, out)
    (out / name).write_text(edit((out / name).read_text()))
    return out


class TestLoadSharesRecords:
    def test_one_object_per_record_key(self, saved_run):
        records = _records(RunArtifact.load(saved_run).databases)
        by_key = {}
        for m in records:
            assert by_key.setdefault(m.key, m) is m
        # The exchange left records held by more than one robot.
        assert len(records) > len(by_key)
        assert len({id(m) for m in records}) == len(by_key)

    def test_disagreeing_text_loads_as_two_records(self, saved_run, tmp_path):
        i, j = _exchanged_pair(saved_run)
        doc_i, doc_j = (json.loads((saved_run / f"db_robot_{r}.json").read_text())
                        for r in (i, j))
        held_i = {(m["robot_id"], m["track_id"], m["tick"])
                  for c in doc_i["clusters"] for m in c["members"]}
        member = next(m for c in doc_j["clusters"] for m in c["members"]
                      if (m["robot_id"], m["track_id"], m["tick"]) in held_i)
        member["text"] = "a person wearing a yellow hat"
        key = (member["robot_id"], member["track_id"], member["tick"])
        out = _edited_copy(saved_run, tmp_path, f"db_robot_{j}.json",
                           lambda _: json.dumps(doc_j))
        dbs = RunArtifact.load(out).databases
        (first,) = [m for m in _records([dbs[i]]) if m.key == key]
        (second,) = [m for m in _records([dbs[j]]) if m.key == key]
        assert first is not second
        assert second.text == "a person wearing a yellow hat" != first.text
        assert dbs[j].to_json() == canonical_json(doc_j)

    def test_from_json_outside_load_shares_nothing(self, saved_run):
        a, b = (ClusterDatabase.from_json((saved_run / f"db_robot_{r}.json").read_text())
                for r in _exchanged_pair(saved_run))
        assert record_keys(a) & record_keys(b)
        assert not {id(m) for m in _records([a])} & {id(m) for m in _records([b])}

    def test_loads_through_a_wrapped_from_json(self, saved_run, monkeypatch):
        # The benchmark tracer swaps in a (cls, text, ops=...) classmethod.
        original = ClusterDatabase.__dict__["from_json"].__func__
        calls = []

        def wrapped(cls, text, ops=REFERENCE_OPS):
            calls.append(len(text))
            return original(cls, text, ops=ops)

        monkeypatch.setattr(ClusterDatabase, "from_json", classmethod(wrapped))
        records = _records(RunArtifact.load(saved_run).databases)
        assert len(calls) == 4
        assert len({id(m) for m in records}) == len({m.key for m in records})


def _rebuilt_state(db):
    """What loading rebuilds besides the saved fields, by value."""
    return {
        "keys": record_keys(db),
        "samples": {uid: [m.key for m in c.summary.samples] for uid, c in db.clusters.items()},
        "vectors": {uid: c.summary.embedding.tobytes() for uid, c in db.clusters.items()},
        "sums": {uid: None if c.embedding_sum is None else c.embedding_sum.tobytes()
                 for uid, c in db.clusters.items()},
    }


def _assert_index_ranks_as_stacked(db, probes):
    """The database's similarity index answers as a freshly stacked matrix
    of its cluster vectors, one row per cluster in creation order."""
    uids = list(db.clusters)
    rows = [db.clusters[uid].summary.embedding for uid in uids]
    for vec in probes:
        assert db._index.best(vec) == stacked_best(uids, rows, vec)
        for k in (1, 5):
            assert db._index.top(vec, k) == stacked_top(uids, rows, vec, k)


def _swarm16(mode):
    """crowded.yaml at 16 robots for 1000 ticks, simulation seed 0."""
    base = load_config(Path(__file__).resolve().parents[1] / "configs" / "crowded.yaml")
    return _tweak(base, [("robots.count", 16), ("duration_ticks", 1000), ("mode", mode)])


class TestLoadRebuildsDatabases:
    @pytest.mark.parametrize("mode", ["text", "vector-baseline"])
    def test_loaded_indexes_equal_the_live_run(self, tmp_path, mode):
        base = load_config(Path(__file__).resolve().parents[1] / "configs" / "crowded.yaml")
        art = run_experiment(_tweak(base, [("robots.count", 8), ("duration_ticks", 1000),
                                           ("mode", mode)]))
        loaded = RunArtifact.load(art.save(tmp_path / "run")).databases
        assert any(e["type"] == "exchange" for e in art.events)
        probes = [embed(tokenize(text)) for text in ("a woman in a red shirt",
                                                     "a man with black pants")]
        for live, db in zip(art.databases, loaded, strict=True):
            db.check_invariants()
            assert _rebuilt_state(db) == _rebuilt_state(live)
            # Alternating databases, so every call finds the scratch taken.
            for one in (live, db):
                _assert_index_ranks_as_stacked(
                    one, probes + [c.summary.embedding for c in list(live.clusters.values())[:3]])


class TestSharedVectorTable:
    def test_swarm16_table_is_bounded_and_released(self):
        """Text mode holds one slot per distinct live vector; vector-baseline
        mode, whose clusters each bind a new mean on every append, never
        holds more slots than index rows. Dropping both runs frees every
        slot they took."""
        # Cyclic garbage of earlier tests would otherwise be freed mid-test.
        gc.collect()
        before = _TABLE.live()
        text = run_experiment(_swarm16("text"))
        vectors = {id(c.summary.embedding) for db in text.databases for c in db.clusters.values()}
        rows = sum(len(db.clusters) for db in text.databases)
        assert (len(vectors), rows) == (321, 4881)
        assert _TABLE.live() <= before + len(vectors)
        high_water = len(_TABLE.vectors)
        baseline = run_experiment(_swarm16("vector-baseline"))
        rows = sum(len(db.clusters) for db in baseline.databases)
        appends = sum(len(c.members) for db in baseline.databases
                      for c in db.clusters.values())
        assert appends > 10 * rows
        assert len(_TABLE.vectors) <= high_water + rows
        for db in (*text.databases, *baseline.databases):
            db.check_invariants()
        del text, baseline, db
        gc.collect()
        assert _TABLE.live() == before
        _TABLE.check()

    def test_swarm16_queries_equal_brute_force(self):
        """Each text is asked of every database in turn, so all but the
        first database read the scores the first one took; every answer
        must still be the exact ranking of all its clusters."""
        art = run_experiment(_swarm16("text"))
        texts = [canonical_description(attrs) for _, attrs in art.people[:8]] + [
            "a woman in a red shirt", "a man with black pants",
            "a lady with a green t-shirt", "a person with a black outfit"]
        for text in texts:
            vec = embed(tokenize(text))
            for k in (1, 5, 50):
                for db in art.databases:
                    assert [tuple(hit) for hit in db.query(text, k)] == (
                        brute_force_query(db, vec, k))
        _TABLE.check()


class TestLoadPausesCollector:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_restored(self, saved_run, tmp_path, monkeypatch, enabled):
        bad = _edited_copy(saved_run, tmp_path, "db_robot_1.json",
                           lambda text: text.replace('"owner":1,', '"owner":0,'))
        original = ClusterDatabase.__dict__["from_json"].__func__
        during = []

        def recording(cls, text, ops=REFERENCE_OPS):
            during.append(gc.isenabled())
            return original(cls, text, ops=ops)

        monkeypatch.setattr(ClusterDatabase, "from_json", classmethod(recording))
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            RunArtifact.load(saved_run)
            assert gc.isenabled() is enabled
            with pytest.raises(ContractError, match="owner is 0"):
                RunArtifact.load(bad)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert during and not any(during)


class TestRunPausesCollector:
    """A run pauses the collector on the premise that it makes no reference
    cycle: with the collector off, a collection after a run frees nothing.
    The world stage may run in a forked child, so it is observed through a
    file, and the reid stage through ``exchange`` in this process."""

    @pytest.mark.parametrize("mode", ["text", "vector-baseline"])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_makes_no_cycle_and_restores_the_setting(self, mode, enabled,
                                                         monkeypatch, tmp_path):
        c = _small(mode=mode)
        assert c.communication_enabled
        world_log = tmp_path / "world_stage_collector"
        reid_stage = []
        step, swap = runner.ballistic_step, runner.exchange

        def world_recording(*args, **kwargs):
            with world_log.open("a") as fh:
                fh.write("1" if gc.isenabled() else "0")
            return step(*args, **kwargs)

        def reid_recording(*args, **kwargs):
            reid_stage.append(gc.isenabled())
            return swap(*args, **kwargs)

        monkeypatch.setattr(runner, "ballistic_step", world_recording)
        monkeypatch.setattr(runner, "exchange", reid_recording)
        was = gc.isenabled()
        gc.collect()
        (gc.enable if enabled else gc.disable)()
        try:
            art = run_experiment(c)
            assert gc.isenabled() is enabled
            gc.disable()
            assert gc.collect() == 0, "a run left unreachable objects"
        finally:
            (gc.enable if was else gc.disable)()
        assert any(e["type"] == "exchange" for e in art.events)
        assert reid_stage and not any(reid_stage)
        world_stage = world_log.read_text()
        assert world_stage and "1" not in world_stage


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _forks():
    return hasattr(os, "fork") and runner._usable_cpus() > 1


class TestWorldStageProcess:
    """Where ``os.fork`` works and another CPU is usable, the world stage
    runs in a forked child; no exit path of a run leaves that child behind."""

    @staticmethod
    def _world_stage_pids(monkeypatch, tmp_path):
        pids = tmp_path / "pids"
        step = runner.ballistic_step

        def recording(*args, **kwargs):
            with pids.open("a") as fh:
                fh.write(f"{os.getpid()}\n")
            return step(*args, **kwargs)

        monkeypatch.setattr(runner, "ballistic_step", recording)
        run_experiment(_small(duration_ticks=100))
        _assert_no_child()
        return set(pids.read_text().split())

    def test_world_stage_runs_in_a_child_where_it_can(self, monkeypatch, tmp_path):
        pids = self._world_stage_pids(monkeypatch, tmp_path)
        assert (pids != {str(os.getpid())}) is _forks()

    def test_world_stage_runs_here_where_it_cannot_fork(self, world_stage_in_process,
                                                          monkeypatch, tmp_path):
        assert self._world_stage_pids(monkeypatch, tmp_path) == {str(os.getpid())}

    def test_world_stage_error_reaches_the_caller(self, monkeypatch):
        c = _small()
        calls = []
        visible = runner.visible_people

        def failing(*args, **kwargs):
            calls.append(None)
            tick = (len(calls) - 1) // c.robots.count
            if tick == 5:
                raise ContractError(f"robot view broke at tick {tick}")
            return visible(*args, **kwargs)

        monkeypatch.setattr(runner, "visible_people", failing)
        with pytest.raises(ContractError) as raised:
            run_experiment(c)
        assert type(raised.value) is ContractError
        assert str(raised.value) == "robot view broke at tick 5"
        _assert_no_child()

    def test_unpicklable_world_error_keeps_its_type_name_and_message(self, monkeypatch):
        class LocalError(Exception):
            pass

        def failing(*args, **kwargs):
            raise LocalError("not importable")

        monkeypatch.setattr(runner, "sensing_candidates", failing)
        with pytest.raises(RuntimeError if _forks() else LocalError,
                           match="not importable"):
            run_experiment(_small())
        _assert_no_child()

    def test_world_stage_that_dies_ends_the_run(self, monkeypatch):
        if not _forks():
            pytest.skip("the world stage runs in this process here")
        parent = os.getpid()
        step = runner.ballistic_step

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return step(*args, **kwargs)

        monkeypatch.setattr(runner, "ballistic_step", dying)
        with pytest.raises(RuntimeError, match="world stage exited before its last tick"):
            run_experiment(_small())
        _assert_no_child()

    def test_reid_stage_error_leaves_no_child_and_no_open_pipe(self, monkeypatch):
        def failing(self, record, theta):
            raise RuntimeError("assignment failed")

        monkeypatch.setattr(ClusterDatabase, "assign_description", failing)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(RuntimeError, match="assignment failed"):
                run_experiment(_small())
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        _assert_no_child()


class TestLoadRejectsBadFiles:
    def test_database_owner_must_match_file_name(self, saved_run, tmp_path):
        out = _edited_copy(saved_run, tmp_path, "db_robot_1.json",
                           lambda text: text.replace('"owner":1,', '"owner":0,'))
        with pytest.raises(ContractError, match=r"db_robot_1\.json: owner is 0, not 1"):
            RunArtifact.load(out)

    @pytest.mark.parametrize("name, text", [
        ("config.json", "[]"), ("people.json", '{"person_id": 0}'),
        ("db_robot_2.json", "[]"), ("metrics.json", "[]"),
    ])
    def test_wrong_json_type_named(self, saved_run, tmp_path, name, text):
        out = _edited_copy(saved_run, tmp_path, name, lambda _: text)
        with pytest.raises(ContractError, match=name.replace(".", r"\.")):
            RunArtifact.load(out)

    def test_truncated_events_named(self, saved_run, tmp_path):
        out = _edited_copy(saved_run, tmp_path, "events.ndjson",
                           lambda text: text[:len(text) // 2])
        with pytest.raises(ContractError, match=r"events\.ndjson"):
            RunArtifact.load(out)

    def test_two_values_on_one_event_line_rejected(self, saved_run, tmp_path):
        out = _edited_copy(saved_run, tmp_path, "events.ndjson",
                           lambda text: text.replace("}\n{", "},{", 1))
        with pytest.raises(ContractError, match=r"events\.ndjson"):
            RunArtifact.load(out)

    def test_blank_event_lines_skipped(self, saved_run, tmp_path):
        out = _edited_copy(saved_run, tmp_path, "events.ndjson",
                           lambda text: "\n  \n" + text.replace("\n", "\n\n"))
        assert RunArtifact.load(out).events == RunArtifact.load(saved_run).events
