"""swarmreid benchmark: whole user sessions, measured from outside.

    python3 benchmark/run.py --workload swarm16 --seed 0 --seconds 50 --trace 0
    python3 benchmark/run.py --record-golden

Run it from the repository root. One repetition is one session of two fresh
processes, so the process-global ``embed``/``parse_description`` caches
start cold as they do for a CLI user:

1. load the config, apply the workload's overrides, then
   ``run_experiment`` + ``RunArtifact.save`` into a fresh directory;
2. ``RunArtifact.load`` of that directory, then a closed loop with a single
   client that sends seed-generated free-text queries, one query being
   ``query(text, k=5)`` on every robot's database.

Every artifact file is checked against the sha256 in ``golden.json`` and
every query answer against its recorded digest. One run or one query is one
operation; it fails when it raises or its digest mismatches. Each run also
shows that the check fires: a copy of an artifact with one byte changed must
be counted as failed, else the result is marked incorrect.

``--seed`` picks the order in which the simulation seeds of the golden pool
are visited and the query stream; the program only receives the generated
inputs. ``--trace 0`` repeats sessions for ``--seconds`` and reports the
end-to-end metrics with tracing off. ``--trace 1`` runs the first simulation
of the order twice untraced and twice traced (see ``tracer.py``), checks that
traced and untraced artifacts are identical and that both traced sessions
count exactly the same work, and reports the per-layer metrics.

Timings and peak RSS (from the child's ``rusage``) go to standard output
only; the run directory holds exactly what ``RunArtifact.save`` writes.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
WORK_DIR = ".bench_work"
TRACED_REPS = 2
# Whole-invocation limit; every child is killed when it passes.
DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    config: str
    overrides: tuple[str, ...]
    sims: int     # simulation seeds 0..sims-1, one session each per pass
    queries: int  # per session


# Single runs of one simulation vary by about 10% from seed to seed, so every
# benchmark run visits the whole seed pool at least once; one visit of each
# seed takes about 40 s on a 2-core sandbox.
WORKLOADS = {
    "isolated": Workload("crowded.yaml", ("communication_enabled=false",), 6, 300),
    "swarm16": Workload("crowded.yaml", ("robots.count=16", "duration_ticks=1000"), 3, 200),
}


class BenchError(RuntimeError):
    """A session process failed or passed the deadline."""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


@dataclass
class Session:
    sim: int
    run: dict | None = None
    query: dict | None = None
    rss_mb: float = 0.0
    spawned: float = 0.0
    files: dict = field(default_factory=dict)


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap ``proc`` with its own rusage; kill it at ``deadline``."""
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return usage
            if time.monotonic() > deadline:
                raise BenchError("session process passed the deadline")
            time.sleep(0.05)
    finally:
        if proc.returncode is None:
            proc.kill()
            _, status, _ = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)


def spawn(root: Path, request: dict, deadline: float) -> tuple[dict, float, float]:
    """Run one session stage; returns (its JSON result, peak RSS MB, spawn time)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    request = dict(request, root=str(root))
    with tempfile.TemporaryFile("w+", dir=root / WORK_DIR) as out:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "session.py"), json.dumps(request)],
            stdout=out, env=env, cwd=root)
        usage = _wait(proc, deadline)
        out.seek(0)
        text = out.read()
    if proc.returncode != 0 or not text.strip():
        raise BenchError(f"{request['stage']} stage exited with {proc.returncode}")
    return json.loads(text.splitlines()[-1]), usage.ru_maxrss / 1024.0, spawned


def digest_dir(path: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir())}


def perturbed_copy_fails(rundir: Path, golden_files: dict) -> bool:
    """Change one byte of a copy of the run and check it is counted failed."""
    copy = rundir.with_name(rundir.name + "-perturbed")
    shutil.copytree(rundir, copy)
    try:
        target = copy / "metrics.json"
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 1
        target.write_bytes(bytes(data))
        check = Tally()
        check.count(digest_dir(copy) == golden_files)
        return check.failed == 1
    finally:
        shutil.rmtree(copy)


class Bench:
    def __init__(self, root: Path, name: str, golden: dict, deadline: float) -> None:
        self.root = root
        self.workload = WORKLOADS[name]
        self.golden = golden["workloads"].get(name, {})
        self.deadline = deadline
        self.tally = Tally()
        self.selfcheck_fired: bool | None = None
        self.work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=root / WORK_DIR))

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def run_request(self, sim: int, outdir: Path, trace: bool) -> dict:
        wl = self.workload
        return {"stage": "run", "config": wl.config, "overrides": list(wl.overrides),
                "sim_seed": sim, "outdir": str(outdir), "trace": trace}

    def query_request(self, rundir: Path, stream: list[int] | None, trace: bool) -> dict:
        return {"stage": "query", "rundir": str(rundir), "stream": stream, "trace": trace}

    def session(self, sim: int, stream: list[int] | None, trace: bool = False,
                query: bool = True) -> Session:
        """One repetition; counts its operations and checks their digests."""
        s = Session(sim)
        golden = self.golden.get(str(sim), {})
        rundir = Path(tempfile.mkdtemp(dir=self.work))
        try:
            try:
                s.run, s.rss_mb, s.spawned = spawn(
                    self.root, self.run_request(sim, rundir, trace), self.deadline)
            except (BenchError, ValueError):
                self.tally.count(False)
                return s
            s.files = digest_dir(rundir)
            self.tally.count(s.files == golden.get("files"))
            if self.selfcheck_fired is None and golden:
                self.selfcheck_fired = perturbed_copy_fails(rundir, golden["files"])
            if not query:
                return s
            try:
                s.query, rss, _ = spawn(
                    self.root, self.query_request(rundir, stream, trace), self.deadline)
            except (BenchError, ValueError):
                for _ in stream:
                    self.tally.count(False)
                return s
            s.rss_mb = max(s.rss_mb, rss)
            expected = golden.get("answers", [])
            pool_ok = s.query["pool_sha256"] == golden.get("pool_sha256")
            for i, answer in zip(stream, s.query["answers"]):
                self.tally.count(pool_ok and i < len(expected) and answer == expected[i])
            return s
        finally:
            shutil.rmtree(rundir, ignore_errors=True)

    def stream(self, seed: int, rep: int) -> list[int]:
        rng = np.random.default_rng(np.random.SeedSequence([seed, rep]))
        pool = len(next(iter(self.golden.values()))["answers"])
        return [int(i) for i in rng.integers(0, pool, self.workload.queries)]

    def sim_order(self, seed: int) -> list[int]:
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        return [int(x) for x in rng.permutation(self.workload.sims)]


def _median(values):
    return statistics.median(values) if values else float("nan")


def _mean(values):
    return statistics.fmean(values) if values else float("nan")


def end_to_end(bench: Bench, seed: int, seconds: float) -> tuple[dict, list[str]]:
    order = bench.sim_order(seed)
    sessions: list[Session] = []
    durations: list[float] = []
    start = time.monotonic()
    # Every seed once, then more sessions in the same order while one fits.
    while len(sessions) < len(order) or (
            time.monotonic() - start + statistics.median(durations) <= seconds
            and time.monotonic() + 2 * max(durations) < bench.deadline):
        t = time.monotonic()
        rep = len(sessions)
        sessions.append(bench.session(order[rep % len(order)], bench.stream(seed, rep)))
        durations.append(time.monotonic() - t)
    runs = [s for s in sessions if s.run]
    queries = [s for s in sessions if s.query]
    latencies = [x * 1e3 for s in queries for x in s.query["latencies_s"]]
    cuts = statistics.quantiles(latencies, n=100, method="inclusive") if len(latencies) > 1 \
        else [float("nan")] * 99
    metrics = {
        "run_s": (_mean([s.run["run_s"] for s in runs]), "s"),
        "load_s": (_mean([s.query["load_s"] for s in queries]), "s"),
        "query_mean_ms": (_mean(latencies), "ms"),
        "query_p95_ms": (cuts[94], "ms"),
        "peak_rss_mb": (_median([s.rss_mb for s in runs]), "MB"),
        "setup_s": (_median([s.run["first_call"] - s.spawned for s in runs]), "s"),
    }
    notes = [f"sessions {len(sessions)} over {time.monotonic() - start:.1f} s, "
             f"simulation seeds {[s.sim for s in sessions]}",
             f"run_s per session {[round(s.run['run_s'], 3) for s in runs]}",
             f"load_s per session {[round(s.query['load_s'], 3) for s in queries]}",
             f"queries {len(latencies)}, distinct texts per session "
             f"{[s.query['distinct_texts'] for s in queries]}"]
    return metrics, notes


def _merge(parts: list[dict]) -> dict:
    out: dict = {}
    for part in parts:
        for key, value in part.items():
            if isinstance(value, dict):
                slot = out.setdefault(key, {})
                for k, v in value.items():
                    slot[k] = slot.get(k, 0) + v
            else:
                out[key] = out.get(key, 0) + value
    return out


def _layer_metrics(s: Session) -> dict:
    spans = _merge([s.run["spans"], s.query["spans"]])
    c = _merge([s.run["counts"], s.query["counts"]])

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    sent = c.get("exchange.records_sent", 0)
    added = c.get("exchange.records_added", 0)
    parse = c.get("parse.hits", 0) + c.get("parse.misses", 0)
    return {
        "world.motion.calls": (calls("world.motion"), "count"),
        "world.motion.self_s": (self_s("world.motion"), "s"),
        "world.visibility.calls": (calls("world.visibility"), "count"),
        "world.visibility.self_s": (self_s("world.visibility"), "s"),
        "world.visibility.visible_ratio": (ratio(c.get("visibility.returned", 0),
                                                 c.get("visibility.tested", 0)), "ratio"),
        "world.comm.self_s": (self_s("world.comm"), "s"),
        "world.comm.pairs": (c.get("comm.pairs", 0), "count"),
        "perception.track.self_s": (self_s("perception.track"), "s"),
        "perception.describe.calls": (calls("perception.describe"), "count"),
        "perception.describe.self_s": (self_s("perception.describe"), "s"),
        "language.embed.calls": (calls("language.embed"), "count"),
        "language.embed.self_s": (self_s("language.embed"), "s"),
        "language.embed.hit_ratio": (1.0 - ratio(c.get("embed.distinct", 0),
                                                 calls("language.embed")), "ratio"),
        "language.summarize.calls": (calls("language.summarize"), "count"),
        "language.summarize.self_s": (self_s("language.summarize"), "s"),
        "language.summarize.members": (c.get("summarize.members", 0), "count"),
        "vocab.parse.hit_ratio": (ratio(c.get("parse.hits", 0), parse), "ratio"),
        "reid.assign.calls": (calls("reid.assign"), "count"),
        "reid.assign.self_s": (self_s("reid.assign"), "s"),
        "reid.assign.created": (c.get("assign.created", 0), "count"),
        "reid.exchange.calls": (calls("reid.exchange"), "count"),
        "reid.exchange.self_s": (self_s("reid.exchange"), "s"),
        "reid.exchange.records_sent": (sent, "count"),
        "reid.exchange.bytes_sent": (c.get("exchange.bytes_sent", 0), "B"),
        "reid.exchange.records_added": (added, "count"),
        "reid.exchange.useful_ratio": (ratio(added, sent), "ratio"),
        "reid.records_held": (s.run["records_held"], "count"),
        "reid.clusters": (s.run["clusters"], "count"),
        "reid.from_json.self_s": (self_s("reid.from_json"), "s"),
        "reid.query.self_s": (self_s("reid.query"), "s"),
        "reid.query.clusters_scored": (c.get("query.clusters_scored", 0), "count"),
        "reid.query.distinct_texts": (s.query["distinct_texts"], "count"),
        "metrics.report.self_s": (self_s("metrics.report"), "s"),
        "metrics.report.pairs_ranked": (c.get("report.pairs_ranked", 0), "count"),
        "runner.loop.self_s": (self_s("runner.loop"), "s"),
        "runner.save.self_s": (self_s("runner.save"), "s"),
        "runner.save.bytes": (c.get("save.bytes", 0), "B"),
        "runner.load.self_s": (self_s("runner.load"), "s"),
    }


def per_layer(bench: Bench, seed: int) -> tuple[dict, list[str], bool]:
    sim = bench.sim_order(seed)[0]
    stream = bench.stream(seed, 0)
    plain: list[Session] = []
    traced: list[Session] = []
    for _ in range(TRACED_REPS):
        plain.append(bench.session(sim, None, query=False))
        traced.append(bench.session(sim, stream, trace=True))
    done = [s for s in traced if s.run and s.query]
    consistent = len(done) == TRACED_REPS and all(s.run for s in plain)
    consistent = consistent and all(s.files == plain[0].files for s in plain + traced)
    per_rep = [_layer_metrics(s) for s in done]
    counts = [{k: v for k, (v, unit) in m.items() if unit != "s"} for m in per_rep]
    calls = [{k: v["calls"] for k, v in _merge([s.run["spans"], s.query["spans"]]).items()}
             for s in done]
    consistent = consistent and counts.count(counts[0]) == len(counts) \
        and calls.count(calls[0]) == len(calls)
    # Counts repeat exactly (checked above); only times take the median.
    metrics = {k: (_median([m[k][0] for m in per_rep]) if unit == "s" else value, unit)
               for k, (value, unit) in per_rep[0].items()} if per_rep else {}
    overhead = (_median([s.run["run_s"] for s in done])
                - _median([s.run["run_s"] for s in plain if s.run]))
    metrics["trace.overhead_s"] = (overhead, "s")
    notes = [f"simulation seed {sim}; traced and untraced artifacts identical and "
             f"traced counts repeat exactly: {consistent}"]
    return metrics, notes, consistent


def record_golden(root: Path) -> None:
    """Record artifact and answer digests for every pool seed of every workload.

    Each simulation runs twice in separate processes and must give identical
    files before its digests are written."""
    golden = {"workloads": {}}
    for name, workload in WORKLOADS.items():
        bench = Bench(root, name, golden, deadline=float("inf"))
        try:
            entries = golden["workloads"][name] = {}
            for sim in range(workload.sims):
                dirs = [Path(tempfile.mkdtemp(dir=bench.work)) for _ in range(2)]
                for rundir in dirs:
                    spawn(root, bench.run_request(sim, rundir, trace=False), bench.deadline)
                files = digest_dir(dirs[0])
                if files != digest_dir(dirs[1]):
                    raise BenchError(f"{name} seed {sim}: repeated run differs")
                answers, _, _ = spawn(root, bench.query_request(dirs[0], None, False),
                                      bench.deadline)
                entries[str(sim)] = {"files": files, "pool_sha256": answers["pool_sha256"],
                                     "answers": answers["answers"]}
                print(f"{name} seed {sim}: {len(files)} files, "
                      f"{len(answers['answers'])} answers", file=sys.stderr)
        finally:
            bench.close()
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="re-record golden.json from the current sources")
    args = parser.parse_args(argv)
    if not args.record_golden and args.workload is None:
        parser.error("--workload is required")

    root = Path.cwd()
    for needed in (root / "src" / "swarmreid" / "__init__.py",
                   root / "configs" / "crowded.yaml"):
        if not needed.is_file():
            print(f"benchmark: {needed} not found; run from the repository root",
                  file=sys.stderr)
            return 2
    (root / WORK_DIR).mkdir(exist_ok=True)
    if args.record_golden:
        record_golden(root)
        return 0

    golden = json.loads(GOLDEN.read_text())
    bench = Bench(root, args.workload, golden, time.monotonic() + DEADLINE_S)
    try:
        if args.trace:
            metrics, notes, consistent = per_layer(bench, args.seed)
        else:
            metrics, notes = end_to_end(bench, args.seed, args.seconds)
            consistent = True
    finally:
        bench.close()

    fired = bench.selfcheck_fired is True
    notes.append(f"operations {bench.tally.attempted}, failed {bench.tally.failed}; "
                 f"perturbed artifact counted as failed: {fired}")
    for note in notes:
        print(f"# {args.workload}: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6f} {unit}")
    correct = (bench.tally.failed == 0 and fired and consistent
               and all(v == v for v, _ in metrics.values()))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": {k: {"value": v if v == v else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
