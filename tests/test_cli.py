import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import swarmreid
from swarmreid import config as cfg
from swarmreid.cli import main

_RUN_ARGS = ["--set", "duration_ticks=300", "--set", "seed=1"]
_CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# Saved file -> an edit of its decoded JSON that removes a key loading needs
_DROP_A_KEY = {
    "db_robot_0.json": lambda doc: doc["clusters"][0]["members"][0].pop("person_id"),
    "config.json": lambda doc: doc.pop("config"),
    "people.json": lambda doc: doc[0].pop("attributes"),
    "metrics.json": lambda doc: doc.pop("map_score"),
}


def _retyped_shared(name, retype):
    """An edit of db_robot_2.json: robot 0's first record of its track 1 gets
    ``retype`` of its ``name``. Robot 2 holds that record only by exchange,
    so db_robot_0.json, loaded first, holds it too."""
    def edit(doc):
        member = next(m for c in doc["clusters"] for m in c["members"]
                      if (m["robot_id"], m["track_id"]) == (0, 1))
        member[name] = retype(member[name])
    return edit


def _package_env():
    """The environment with the package under test first on PYTHONPATH,
    whatever the working directory."""
    env = dict(os.environ)
    package_root = str(Path(swarmreid.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


def _no_run(configuration):
    raise AssertionError("a rejected config must not reach the simulation")


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    assert main(["run", "--out", str(out), *_RUN_ARGS]) == 0
    return out


class TestRun:
    def test_prints_summary(self, tmp_path, capsys):
        rc = main(["run", "--out", str(tmp_path / "r"), *_RUN_ARGS])
        out = capsys.readouterr().out
        assert rc == 0
        assert "run complete: seed=1" in out
        assert "mAP:" in out
        assert (tmp_path / "r" / "metrics.json").exists()

    def test_invalid_override_exits_two(self, tmp_path, capsys):
        rc = main(["run", "--out", str(tmp_path / "r"), "--set", "dt=-1"])
        assert rc == 2
        assert "dt" in capsys.readouterr().err

    @pytest.mark.parametrize("override, key", [
        ("people.count=0", "people.count"),
        ("robots.comm_range=abc", "robots.comm_range"),
        ("robots.comm_range=nan", "robots.comm_range"),
        ("arena.obstacles=[[a,0,1,1]]", "arena.obstacles[0]"),
        ("arena.obstacles=[[[1],0,1,1]]", "arena.obstacles[0]"),
        ("arena.obstacles=[[true,0,1,1]]", "arena.obstacles[0]"),
        ("arena.width=.inf", "arena.width"),
        ("arena.width=-.inf", "arena.width"),
        ("arena.width=.nan", "arena.width"),
        ("providers.summarizer.command=", "providers.summarizer.command"),
        ("providers.summarizer.command=5", "providers.summarizer.command"),
    ])
    def test_rejected_value_exits_two_before_any_run(self, tmp_path, capsys,
                                                     monkeypatch, override, key):
        monkeypatch.setattr("swarmreid.cli.run_experiment", _no_run)
        out = tmp_path / "r"
        rc = main(["run", "--out", str(out), "--set", override])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and key in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("text, key", [
        ("arena:\n  width: .inf\n", "arena.width"),
        ("arena:\n  width: -.inf\n", "arena.width"),
        ("arena:\n  width: .nan\n", "arena.width"),
        ("providers:\n  summarizer:\n    command: 5\n", "providers.summarizer.command"),
    ])
    def test_rejected_file_value_exits_two_before_any_run(self, tmp_path, capsys,
                                                          monkeypatch, text, key):
        monkeypatch.setattr("swarmreid.cli.run_experiment", _no_run)
        conf = tmp_path / "c.yaml"
        conf.write_text(text)
        out = tmp_path / "r"
        rc = main(["run", "--config", str(conf), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and key in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["run", "--out"], ["sweep", "--axis", "seed", "--values", "1", "--out"]],
        ids=["run", "sweep"])
    @pytest.mark.parametrize("content, problem", [
        (b"seed: [1, 2\n", "is not YAML (line 2, column 1)"),
        (b"seed: 1\n\xff\n", "is not UTF-8"),
    ], ids=["malformed", "not-utf8"])
    def test_unreadable_file_exits_two_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                      command, content, problem):
        monkeypatch.setattr("swarmreid.cli.run_experiment", _no_run)
        monkeypatch.setattr("swarmreid.cli.sweep", _no_run)
        conf = tmp_path / "c.yaml"
        conf.write_bytes(content)
        out = tmp_path / "r"
        rc = main([*command, str(out), "--config", str(conf)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: config file {conf} {problem}")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_provider_failure_exits_two_with_one_line(self, tmp_path, capsys):
        stub = tmp_path / "garbage_provider.py"
        stub.write_text("import sys\nfor line in sys.stdin:\n    print('nope', flush=True)\n")
        rc = main(["run", "--out", str(tmp_path / "r"), *_RUN_ARGS,
                   "--set", "providers.describer.transport=subprocess",
                   "--set", f"providers.describer.command={sys.executable} {stub}"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: provider sent a non-JSON line")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("op", ["describer", "summarizer"])
    def test_stopword_only_provider_answer_exits_two(self, tmp_path, capsys, op):
        stub = tmp_path / "stopword_provider.py"
        stub.write_text("import sys\nfor line in sys.stdin:\n"
                        "    print('{\"text\": \"the a an\"}', flush=True)\n")
        rc = main(["run", "--out", str(tmp_path / "r"), *_RUN_ARGS,
                   "--set", f"providers.{op}.transport=subprocess",
                   "--set", f"providers.{op}.command={sys.executable} {stub}"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {op} returned 'the a an'")
        assert err.count("\n") == 1

    def test_out_is_a_file_exits_two(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        rc = main(["run", "--out", str(taken), *_RUN_ARGS])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: --out") and err.count("\n") == 1
        assert taken.read_text() == ""

    def test_config_file_plus_override(self, tmp_path, capsys):
        conf = tmp_path / "c.yaml"
        conf.write_text("duration_ticks: 200\npeople:\n  count: 3\n")
        rc = main(["run", "--config", str(conf), "--set", "people.count=2",
                   "--out", str(tmp_path / "r")])
        assert rc == 0
        doc = json.loads((tmp_path / "r" / "config.json").read_text())
        assert doc["config"]["duration_ticks"] == 200
        assert doc["config"]["people"]["count"] == 2


class TestQuery:
    def test_default_robot_ranked_hits(self, run_dir, capsys):
        rc = main(["query", "a woman wearing a red shirt",
                   "--run", str(run_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("1. uid=") or "no clusters" in out

    def test_all_robots_sections(self, run_dir, capsys):
        rc = main(["query", "a person with a hat", "--run", str(run_dir),
                   "--robot", "all"])
        out = capsys.readouterr().out
        assert rc == 0
        for robot in range(4):
            assert f"robot {robot}:" in out

    def test_unknown_robot_lists_valid_ids(self, run_dir, capsys):
        rc = main(["query", "a man", "--run", str(run_dir), "--robot", "9"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "valid: 0, 1, 2, 3, all" in err

    def test_stopword_query_hint(self, run_dir, capsys):
        rc = main(["query", "the a with", "--run", str(run_dir)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "no usable words" in err

    def test_k_caps_hits(self, run_dir, capsys):
        rc = main(["query", "a man wearing a blue shirt", "--run",
                   str(run_dir), "--robot", "0", "-k", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2. uid=" not in out

    def test_database_of_another_robot_exits_two(self, run_dir, tmp_path, capsys):
        edited = tmp_path / "run"
        shutil.copytree(run_dir, edited)
        path = edited / "db_robot_1.json"
        path.write_text(path.read_text().replace('"owner":1,', '"owner":0,'))
        assert main(["query", "a man", "--run", str(edited), "--robot", "all"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "db_robot_1.json" in err
        assert err.count("\n") == 1

    def test_missing_run_dir(self, tmp_path, capsys):
        rc = main(["query", "a man", "--run", str(tmp_path / "nope")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_run_is_a_file_exits_two(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["query", "a man", "--run", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "taken" in err
        assert err.count("\n") == 1


class TestReport:
    def test_reprints_saved_metrics(self, run_dir, capsys):
        rc = main(["report", "--run", str(run_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.strip() == (run_dir / "metrics.json").read_text().strip()
        doc = json.loads(out)
        assert {"cmc", "map_score", "avg_purity", "normalized_purity",
                "clusters_per_robot"} <= set(doc)

    def test_saved_config_with_unknown_key_exits_two(self, run_dir, tmp_path, capsys):
        edited = tmp_path / "run"
        shutil.copytree(run_dir, edited)
        doc = json.loads((edited / "config.json").read_text())
        doc["config"]["robots"]["wheels"] = 3
        (edited / "config.json").write_text(json.dumps(doc))
        assert main(["report", "--run", str(edited)]) == 2
        assert "robots.wheels" in capsys.readouterr().err


    @pytest.mark.parametrize("name", sorted(_DROP_A_KEY))
    def test_saved_file_missing_a_key_exits_two(self, run_dir, tmp_path, capsys,
                                                name):
        edited = tmp_path / "run"
        shutil.copytree(run_dir, edited)
        path = edited / name
        doc = json.loads(path.read_text())
        _DROP_A_KEY[name](doc)
        path.write_text(json.dumps(doc))
        assert main(["report", "--run", str(edited)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("robot, edit, named", [
        (0, lambda doc: doc.update(uid_counter="x"), "snapshot uid_counter"),
        (0, lambda doc: doc["clusters"][0]["members"][0].update(person_id=None),
         "record person_id"),
        (0, lambda doc: doc.update(tombstones=[[[0], doc["clusters"][0]["uid"]]]),
         "snapshot tombstone key"),
        (0, lambda doc: doc["clusters"][0].update(uid=[0]), "snapshot cluster uid"),
        (0, lambda doc: doc["clusters"][0]["members"][0].update(tick="0"), "record tick"),
        (0, lambda doc: doc["clusters"][0].update(summary_text=None), "snapshot summary_text"),
        (0, lambda doc: doc["clusters"][0].update(track_ids=5), "snapshot track_ids"),
        # Each of these compares equal to the saved value (True == 1,
        # False == 0) or passes a bare comparison (2.5 >= 0).
        (0, lambda doc: doc.update(schema_version=True), "snapshot schema_version"),
        (0, lambda doc: doc.update(owner=False), "snapshot owner"),
        (0, lambda doc: doc.update(tombstone_cap=2.5), "snapshot tombstone_cap"),
        # A member of a record loaded from db_robot_0.json before, its field
        # retyped to a value equal to the saved one.
        (2, _retyped_shared("tick", float), "record tick"),
        (2, _retyped_shared("robot_id", bool), "record robot_id"),
        (2, _retyped_shared("track_id", bool), "record track_id"),
        (2, _retyped_shared("person_id", float), "record person_id"),
    ], ids=["uid_counter", "person_id", "tombstone_key", "cluster_uid", "tick",
            "summary_text", "track_ids", "schema_version", "owner", "tombstone_cap", "shared_tick",
            "shared_robot_id", "shared_track_id", "shared_person_id"])
    def test_mistyped_database_field_exits_two(self, run_dir, tmp_path, capsys,
                                               robot, edit, named):
        edited = tmp_path / "run"
        shutil.copytree(run_dir, edited)
        path = edited / f"db_robot_{robot}.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        assert main(["report", "--run", str(edited)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"db_robot_{robot}.json: {named} " in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("refingerprint, named", [
        (False, "config.json"), (True, "metrics.json")])
    def test_edited_seed_exits_two(self, run_dir, tmp_path, capsys,
                                   refingerprint, named):
        """A config edited after the run no longer matches its fingerprint,
        nor, once config.json's fingerprint is rewritten, the metrics'."""
        edited = tmp_path / "run"
        shutil.copytree(run_dir, edited)
        doc = json.loads((edited / "config.json").read_text())
        doc["config"]["seed"] += 1
        if refingerprint:
            doc["fingerprint"] = cfg.fingerprint(cfg.from_dict(doc["config"]))
        (edited / "config.json").write_text(json.dumps(doc))
        assert main(["report", "--run", str(edited)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "fingerprint" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name", [
        "config.json", "people.json", *(f"db_robot_{i}.json" for i in range(4)),
        "events.ndjson", "metrics.json"])
    @pytest.mark.parametrize("command", [["report"], ["query", "a man", "--robot", "all"]],
                             ids=["report", "query"])
    def test_non_utf8_byte_exits_two(self, run_dir, tmp_path, capsys, name, command):
        edited = tmp_path / "run"
        shutil.copytree(run_dir, edited)
        with (edited / name).open("ab") as fh:
            fh.write(b"\xff")
        assert main([*command, "--run", str(edited)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {edited / name}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1

    def test_truncated_events_exits_two(self, run_dir, tmp_path, capsys):
        edited = tmp_path / "run"
        shutil.copytree(run_dir, edited)
        path = edited / "events.ndjson"
        text = path.read_text()
        path.write_text(text[:len(text) - 10])
        assert main(["report", "--run", str(edited)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "events.ndjson" in err
        assert err.count("\n") == 1


class TestClosedStdout:
    @pytest.mark.parametrize("command", [
        ["query", "--robot", "all", "a woman wearing a red shirt"], ["report"]])
    def test_reader_gone_ends_quietly_with_one(self, run_dir, command):
        """A reader that closes stdout before the output ends, as ``| head``
        does, ends the command with exit 1 and nothing on stderr."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "swarmreid", *command, "--run", str(run_dir)],
                stdout=write_end, stderr=subprocess.PIPE, env=_package_env(), timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")


class TestSweep:
    def test_stdout_csv(self, capsys):
        rc = main(["sweep", "--axis", "communication_enabled",
                   "--values", "false", "true", "--seeds", "0",
                   "--set", "duration_ticks=150"])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.splitlines()
        assert lines[0].startswith("axis,value,n_runs,")
        assert len(lines) == 3
        assert lines[1].startswith("communication_enabled,False,1,")

    def test_csv_file_output(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--axis", "people.count", "--values", "2",
                   "--seeds", "0", "--set", "duration_ticks=150",
                   "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("axis,value,n_runs,")
        assert "sweep written" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["baseline", "comm_benefit", "crowded"])
    def test_bundled_config(self, name, capsys):
        rc = main(["sweep", "--config", str(_CONFIGS / f"{name}.yaml"),
                   "--axis", "communication_enabled", "--values", "false", "true",
                   "--seeds", "0", "--set", "duration_ticks=150"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert lines[0].startswith("axis,value,n_runs,")
        assert [line.split(",")[:3] for line in lines[1:]] == [
            ["communication_enabled", "False", "1"],
            ["communication_enabled", "True", "1"]]

    @pytest.mark.parametrize("make, out", [
        (lambda d: (d / "afile").write_text(""), "afile/x.csv"),
        (lambda d: (d / "adir").mkdir(), "adir"),
    ], ids=["under_a_file", "a_directory"])
    def test_unwritable_out_exits_two_before_any_run(self, tmp_path, capsys,
                                                      make, out):
        make(tmp_path)
        rc = main(["sweep", "--axis", "people.count", "--values", "2", "3",
                   "--seeds", "0", "--set", "duration_ticks=150",
                   "--out", str(tmp_path / out)])
        assert rc == 2
        err = capsys.readouterr().err
        # No progress line: the check runs before the first cell.
        assert err.startswith("error: --out") and err.count("\n") == 1

    def test_list_valued_axis(self, capsys):
        rc = main(["sweep", "--axis", "arena.obstacles", "--values", "[]", "[[0,0,1,1]]",
                   "--seeds", "0", "--set", "duration_ticks=5"])
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rc == 0
        assert [row[:3] for row in rows[1:]] == [
            ["arena.obstacles", "[]", "1"], ["arena.obstacles", "[[0, 0, 1, 1]]", "1"]]

    def test_seed_axis_exits_two(self, capsys):
        rc = main(["sweep", "--axis", "seed", "--values", "0", "1",
                   "--seeds", "0", "--set", "duration_ticks=150"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seeds" in err
        assert err.count("\n") == 1

    def test_repeated_value_exits_two(self, capsys):
        rc = main(["sweep", "--axis", "people.count", "--values", "3", "3",
                   "--seeds", "0", "--set", "duration_ticks=150"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "values" in err
        assert err.count("\n") == 1

    def test_repeated_seed_exits_two(self, capsys):
        rc = main(["sweep", "--axis", "people.count", "--values", "3",
                   "--seeds", "0", "0", "--set", "duration_ticks=50"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seeds") and err.count("\n") == 1

    def test_invalid_value_exits_two_before_any_cell(self, capsys):
        rc = main(["sweep", "--axis", "people.count", "--values", "3", "0",
                   "--seeds", "0", "1", "--set", "duration_ticks=50"])
        assert rc == 2
        err = capsys.readouterr().err
        # No progress line: every value is checked before the first cell.
        assert err.startswith("error: invalid config: people.count")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag, bad", [("--seeds", "zero"), ("--values", "[1")])
    def test_unparsable_argument_exits_two(self, flag, bad, capsys):
        args = {"--values": ["3"], "--seeds": ["0"], flag: [bad]}
        rc = main(["sweep", "--axis", "people.count", "--values", *args["--values"],
                   "--seeds", *args["--seeds"], "--set", "duration_ticks=150"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}") and bad in err
        assert err.count("\n") == 1


class TestEntryPoints:
    def test_console_script_and_module_run(self, tmp_path):
        """The ``[project.scripts]`` entry resolves and runs, as does an
        installed ``swarmreid`` script if there is one, and each writes the
        same artifact bytes as ``python -m swarmreid run``."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        entry = tomllib.loads(pyproject.read_text())["project"]["scripts"]["swarmreid"]
        module, attr = entry.split(":")
        # Same shape as the wrapper an installer generates for the entry.
        wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        commands = {
            "entry": [sys.executable, "-c", wrapper],
            "module": [sys.executable, "-m", "swarmreid"],
        }
        installed = shutil.which("swarmreid")
        if installed:
            commands["installed"] = [installed]
        for name, cmd in commands.items():
            proc = subprocess.run(
                [*cmd, "run", "--out", str(tmp_path / name), *_RUN_ARGS],
                capture_output=True, text=True, env=_package_env(), cwd=tmp_path)
            assert proc.returncode == 0, f"{name}: {proc.stderr}"
        expected = sorted(p.name for p in (tmp_path / "module").iterdir())
        assert "metrics.json" in expected
        for name in commands:
            run = tmp_path / name
            assert sorted(p.name for p in run.iterdir()) == expected, name
            for artifact in expected:
                assert ((run / artifact).read_bytes()
                        == (tmp_path / "module" / artifact).read_bytes()), (
                    f"{name}: {artifact} differs from python -m swarmreid")
