"""Experiment orchestration: seeded world setup, the tick loop, artifacts.

Randomness fans out from the single root seed through fixed namespace keys,
one independent stream per person and per robot, so adding an agent never
perturbs the streams of the existing ones and any behavioral difference is
attributable to interaction.

The tick loop is two stages. The world stage (``_world_stage``) moves the
agents, senses, tracks, applies the description period, renders the
reference descriptions and finds the robot pairs in range; it reads no
database, as each robot perceives on its own. The reid stage consumes its
ticks in order: it builds each record, assigns it, applies the exchange
cooldown, exchanges and logs the events. A describer provider is called
from the reid stage, once per sighting in sighting order. Where ``os.fork``
exists and more than one CPU is usable, the world stage runs ahead in a
forked child and sends its ticks down a pipe (``_run_ahead``); otherwise,
or when the fork fails, the same generator runs in this process. Both
routes give the same artifacts. Python 3.12 and later warn when a process
that has threads forks, and numpy's OpenBLAS starts threads at import; the
child calls no BLAS routine, so none of its locks is taken there.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import os
import pickle
import signal
import statistics
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence, TypeVar

import numpy as np

from . import config as cfg
from .config import SimConfig
from .errors import ConfigError, ContractError
from .metrics import MetricsReport, compute_report
from .perception import (
    DescriptionNoise,
    DescriptionRecord,
    PersonAttributes,
    TrackTable,
    describe,
    sample_attributes,
)
from .providers import resolve_providers
from .reid import ClusterDatabase, canonical_json, exchange, shared_records
from .world import (
    TAU,
    AgentArrays,
    Arena,
    PersonState,
    Rect,
    RobotState,
    ballistic_step,
    comm_pairs,
    sensing_candidates,
    visible_people,
)

# Seed-stream namespaces. Changing these invalidates recorded artifacts.
_NS_ATTRIBUTES = 1
_NS_PERSON = 2
_NS_ROBOT_MOTION = 3
_NS_ROBOT_PERCEPTION = 4


def _stream(seed: int, namespace: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, namespace, index]))


def _spawn_position(arena: Arena, rng: np.random.Generator) -> tuple[float, float]:
    for _ in range(1000):
        x = rng.uniform(arena.xmin, arena.xmax)
        y = rng.uniform(arena.ymin, arena.ymax)
        if not arena.in_obstacle(x, y):
            return (x, y)
    raise ConfigError("arena.obstacles: no free space left to spawn agents")


T = TypeVar("T")


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, restoring the caller's setting
    however the block ends. A load or a run makes tens of thousands of
    tracked objects and no reference cycle, so the collections they would
    trigger find nothing to free. When the collector was on, one young pass
    at the end moves the block's objects to the oldest generation."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
            gc.collect(1)


def _parse(path: Path, parse: Callable[[str], T]) -> T:
    """``parse`` of the file's text; text that is not UTF-8, content
    ``parse`` rejects, or whose shape it cannot decode, raises ContractError
    naming the file."""
    try:
        return parse(path.read_text())
    except KeyError as exc:
        raise ContractError(f"{path}: missing key {exc}") from exc
    # UnicodeDecodeError, JSONDecodeError, ConfigError and ContractError are
    # ValueErrors; the others come from values of the wrong JSON type.
    except (ValueError, TypeError, AttributeError) as exc:
        raise ContractError(f"{path}: {exc}") from exc


def _parse_config(text: str) -> tuple[SimConfig, str]:
    doc = json.loads(text)
    return cfg.from_dict(doc["config"]), doc["fingerprint"]


def _check_fingerprint(path: Path, saved: str, fingerprint: str) -> None:
    if saved != fingerprint:
        raise ContractError(f"{path}: fingerprint {saved!r} is not the "
                            f"loaded config's {fingerprint!r}")


def _parse_people(text: str) -> list[tuple[int, PersonAttributes]]:
    return [(p["person_id"], PersonAttributes.from_dict(p["attributes"]))
            for p in json.loads(text)]


def _parse_metrics(text: str) -> MetricsReport:
    return MetricsReport(**{
        k: tuple(v) if isinstance(v, list) else v
        for k, v in json.loads(text).items()
    })


def _parse_events(text: str) -> list[dict]:
    """One JSON value per non-blank line, decoded in one call."""
    lines = [line for line in text.split("\n") if line.strip()]
    events = json.loads("[" + ",".join(lines) + "]")
    if len(events) != len(lines):
        raise ContractError(f"{len(lines)} lines hold {len(events)} JSON values")
    return events


def build_arena(c: SimConfig) -> Arena:
    return Arena(
        width=c.arena.width,
        height=c.arena.height,
        obstacles=tuple(Rect(*r) for r in c.arena.obstacles),
    )


@dataclass
class RunArtifact:
    """Everything a finished run leaves behind, reloadable from disk."""

    config: SimConfig
    people: list[tuple[int, PersonAttributes]]
    databases: list[ClusterDatabase]
    events: list[dict]
    metrics: MetricsReport

    @property
    def fingerprint(self) -> str:
        return cfg.fingerprint(self.config)

    def save(self, outdir: str | Path) -> Path:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.json").write_text(canonical_json({
            "config": cfg.to_dict(self.config),
            "fingerprint": self.fingerprint,
        }) + "\n")
        (out / "people.json").write_text(canonical_json([
            {"person_id": pid, "attributes": attrs.to_dict()}
            for pid, attrs in self.people
        ]) + "\n")
        # A run's databases share member texts; each is encoded once.
        memo: dict[str, str] = {}
        for db in self.databases:
            with (out / f"db_robot_{db.owner}.json").open("w") as fh:
                fh.writelines(db.json_chunks(memo))
                fh.write("\n")
        with (out / "events.ndjson").open("w") as fh:
            for event in self.events:
                fh.write(canonical_json(event) + "\n")
        (out / "metrics.json").write_text(self.metrics.to_json() + "\n")
        (out / "cmc.csv").write_text(self.metrics.cmc_csv())
        return out

    @classmethod
    def load(cls, outdir: str | Path) -> "RunArtifact":
        """Reload a saved run; a malformed file, or a fingerprint in
        ``config.json`` or ``metrics.json`` other than the loaded config's,
        raises ContractError naming the file.

        The databases load in one ``shared_records`` scope, so they share
        one record object per record as the saved run's databases did. The
        cyclic garbage collector is paused while the files are decoded and
        built (``_collector_paused``).
        """
        with _collector_paused():
            return cls._load(Path(outdir))

    @classmethod
    def _load(cls, out: Path) -> "RunArtifact":
        configuration, saved = _parse(out / "config.json", _parse_config)
        fingerprint = cfg.fingerprint(configuration)
        _check_fingerprint(out / "config.json", saved, fingerprint)
        people = _parse(out / "people.json", _parse_people)
        databases = []
        with shared_records():
            for i in range(configuration.robots.count):
                path = out / f"db_robot_{i}.json"
                # One positional argument: the benchmark tracer replaces
                # from_json with a (cls, text, ops=...) wrapper.
                db = _parse(path, ClusterDatabase.from_json)
                if db.owner != i:
                    raise ContractError(f"{path}: owner is {db.owner}, not {i}")
                databases.append(db)
        events = _parse(out / "events.ndjson", _parse_events)
        metrics = _parse(out / "metrics.json", _parse_metrics)
        _check_fingerprint(out / "metrics.json", metrics.config_fingerprint,
                           fingerprint)
        return cls(config=configuration, people=people, databases=databases,
                   events=events, metrics=metrics)


# One tick of the world stage: the sightings (robot, track id, person id,
# text) that pass the description period, in robot then track order, and
# the robot pairs in communication range.
_Sighting = tuple[int, int, int, "str | None"]
_WorldTick = tuple[list[_Sighting], list[tuple[int, int]]]


def _world_stage(c: SimConfig, arena: Arena, people: list[PersonState],
                 robots: list[RobotState], motion: AgentArrays,
                 attributes: list[PersonAttributes],
                 noise: DescriptionNoise | None,
                 perception_rngs: list[np.random.Generator]) -> Iterator[_WorldTick]:
    """Motion, sensing, tracking and describing, one item per tick. None of
    it reads a database. With ``noise`` None a describer provider describes
    in the reid stage: each text is None and no perception draw is made."""
    tables = [TrackTable() for _ in robots]
    last_emit: list[dict[int, int]] = [{} for _ in robots]
    n_people = len(people)
    for tick in range(c.duration_ticks):
        # ballistic_step is looked up here at each tick, so a wrapper put on
        # this module's name (as the benchmark tracer does) sees every
        # surface hit. The wrapper runs where the world stage does: in the
        # forked child, when there is one, whose counts the parent never sees.
        motion.step(ballistic_step)
        candidates = sensing_candidates(robots, motion.xy[:, :n_people])
        sightings: list[_Sighting] = []
        for i, robot in enumerate(robots):
            visible = visible_people(robot, [people[j] for j in candidates[i]], arena)
            assignments = tables[i].update_tracks(
                visible, tick, c.perception.max_gap_ticks,
                c.perception.p_track_break, perception_rngs[i],
            )
            for track_id, person_id in assignments:
                last = last_emit[i].get(track_id)
                if last is not None and tick - last < c.perception.description_period:
                    continue
                last_emit[i][track_id] = tick
                text = None if noise is None else describe(
                    attributes[person_id], noise, perception_rngs[i])
                sightings.append((i, track_id, person_id, text))
        yield sightings, comm_pairs(robots) if c.communication_enabled else []


# Ticks per message from the forked world stage: enough to make pickling
# and the pipe cheap, few enough that the reid stage starts at once.
_BATCH_TICKS = 64


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _send(items: Iterator[T], out: BinaryIO) -> None:
    """Pickle ``items`` to ``out`` as (items, end) messages: ``end`` is False
    while more follow, True after the last item, or the exception that
    stopped ``items``, sent after every item made before it with the
    child's traceback as a note. An exception that does not survive pickling
    is sent as a RuntimeError naming its type and message."""
    batch: list[T] = []
    end: bool | BaseException = True
    try:
        for item in items:
            batch.append(item)
            if len(batch) == _BATCH_TICKS:
                pickle.dump((batch, False), out, pickle.HIGHEST_PROTOCOL)
                out.flush()
                batch = []
    except Exception as exc:
        end = exc
        if hasattr(exc, "add_note"):  # Python >= 3.11
            exc.add_note("".join(traceback.format_exception(exc)).rstrip())
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:  # a local class, or arguments its class refuses
            end = RuntimeError(f"{type(exc).__name__}: {exc}")
    pickle.dump((batch, end), out, pickle.HIGHEST_PROTOCOL)


def _receive(src: BinaryIO) -> Iterator[T]:
    """The items ``_send`` wrote, in order; its exception is raised here."""
    while True:
        try:
            batch, end = pickle.load(src)
        except EOFError:
            raise RuntimeError("the world stage exited before its last tick") from None
        yield from batch
        if isinstance(end, BaseException):
            raise end
        if end:
            return


def _fork_sender(items: Iterator[T]) -> tuple[int, int] | None:
    """Fork a child that sends ``items`` down a pipe; the child's pid and the
    pipe's read end, or None where there is no ``os.fork``, one usable CPU,
    or the fork fails. The child ends with ``os._exit``, so it runs none of
    the parent's exit handlers, provider shutdowns or stdio flushes."""
    if not hasattr(os, "fork") or _usable_cpus() < 2:
        return None
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        try:
            os.close(read_end)
            with open(write_end, "wb") as out:
                _send(items, out)
        finally:
            os._exit(0)
    os.close(write_end)
    return pid, read_end


@contextmanager
def _run_ahead(items: Iterator[T]) -> Iterator[Iterator[T]]:
    """``items`` in order, computed ahead in a forked child where one can
    run on another CPU (``_fork_sender``), else in this process. The child
    is killed and reaped however the block ends. It is an ``os.fork`` rather
    than a ``multiprocessing`` process: it inherits the started state as it
    is, which the spawn and forkserver start methods would have to pickle,
    and a ``sweep`` pool worker forks it like any other process."""
    forked = _fork_sender(items)
    if forked is None:
        yield items
        return
    pid, read_end = forked
    try:
        with open(read_end, "rb") as src:
            yield _receive(src)
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def run_experiment(configuration: SimConfig) -> RunArtifact:
    """Simulate one full run and evaluate it."""
    cfg.require_valid(configuration)
    c = configuration
    arena = build_arena(c)
    seed = c.seed

    attr_rng = _stream(seed, _NS_ATTRIBUTES)
    attributes = sample_attributes(
        c.people.count, attr_rng, distinct=c.people.distinct_outfits
    )

    people = []
    person_rngs = []
    for i in range(c.people.count):
        rng = _stream(seed, _NS_PERSON, i)
        position = _spawn_position(arena, rng)
        heading = rng.uniform(0.0, TAU)
        people.append(PersonState(
            person_id=i, position=position, heading=heading,
            speed=c.people.speed, lambda_turn=c.people.lambda_turn,
        ))
        person_rngs.append(rng)

    robots = []
    robot_motion_rngs = []
    robot_perception_rngs = []
    for i in range(c.robots.count):
        rng = _stream(seed, _NS_ROBOT_MOTION, i)
        position = _spawn_position(arena, rng)
        heading = rng.uniform(0.0, TAU)
        robots.append(RobotState(
            robot_id=i, position=position, heading=heading,
            speed=c.robots.speed, fov_half_angle=c.robots.fov_half_angle,
            sensing_range=c.robots.sensing_range, comm_range=c.robots.comm_range,
            lambda_turn=c.robots.lambda_turn,
        ))
        robot_motion_rngs.append(rng)
        robot_perception_rngs.append(_stream(seed, _NS_ROBOT_PERCEPTION, i))

    noise = DescriptionNoise(
        p_drop=c.noise.p_drop,
        p_synonym=c.noise.p_synonym,
        p_color_confusion=c.noise.p_color_confusion,
    )

    # The collector is paused over the tick loop and the report, as over a load.
    with resolve_providers(c.providers) as providers, _collector_paused():
        databases = [
            ClusterDatabase(owner=i, mode=c.mode, tombstone_cap=c.tombstone_cap,
                            ops=providers.ops)
            for i in range(c.robots.count)
        ]
        pair_last_exchange: dict[tuple[int, int], int] = {}
        events: list[dict] = []

        # From here on the motion streams are read only by ``motion``, and
        # the perception streams only by the world stage.
        motion = AgentArrays(people + robots, c.dt, arena,
                             person_rngs + robot_motion_rngs)
        stage = _world_stage(c, arena, people, robots, motion, attributes,
                             noise if providers.describe_fn is None else None,
                             robot_perception_rngs)
        with _run_ahead(stage) as ticks:
            for tick, (sightings, pairs) in enumerate(ticks):
                for i, track_id, person_id, text in sightings:
                    if text is None:
                        text = providers.describe_fn(attributes[person_id])
                    record = DescriptionRecord.create(
                        text=text, robot_id=i, tick=tick,
                        track_id=track_id, person_id=person_id,
                    )
                    uid, created = databases[i].assign_description(
                        record, c.thresholds.theta_local
                    )
                    events.append({
                        "type": "assign", "tick": tick, "robot": i,
                        "track_id": track_id, "uid": list(uid), "created": created,
                    })
                for pair in pairs:
                    last = pair_last_exchange.get(pair)
                    if last is not None and tick - last < c.exchange_cooldown_ticks:
                        continue
                    stats = exchange(databases[pair[0]], databases[pair[1]],
                                     c.thresholds.theta_merge)
                    pair_last_exchange[pair] = tick
                    events.append({
                        "type": "exchange", "tick": tick,
                        "robots": list(pair), **vars(stats),
                    })

        people_out = list(enumerate(attributes))
        report = compute_report(
            databases, people_out, range(c.people.count), cfg.fingerprint(c),
            ops=providers.ops,
        )

    return RunArtifact(config=c, people=people_out, databases=databases,
                       events=events, metrics=report)


# ---------- sweeps ----------

_SWEEP_METRICS = ("cmc1", "map", "avg_purity", "normalized_purity",
                  "total_clusters", "detected")


def _extract_metrics(report: MetricsReport) -> dict[str, float]:
    return {
        "cmc1": report.cmc[0] if report.cmc else 0.0,
        "map": report.map_score,
        "avg_purity": report.avg_purity,
        "normalized_purity": report.normalized_purity,
        "total_clusters": float(sum(report.clusters_per_robot)),
        "detected": float(report.detected_identity_count),
    }


@dataclass(frozen=True)
class SweepRow:
    axis: str
    value: object
    n_runs: int
    means: dict[str, float]
    stds: dict[str, float]


def _run_cell(config: SimConfig) -> dict[str, float]:
    return _extract_metrics(run_experiment(config).metrics)


def sweep(base: SimConfig, axis: str, values: Sequence[object],
          seeds: Sequence[int], workers: int = 1,
          progress: Callable[[str], None] | None = None) -> list[SweepRow]:
    """Run ``axis=value`` for every value and seed; aggregate mean and stddev."""
    from concurrent.futures import ProcessPoolExecutor

    if axis == "seed":
        raise ConfigError("sweep cannot vary 'seed' as its axis: seeds sets "
                          "each run's seed")
    if workers < 1:
        raise ConfigError("workers: must be at least 1")
    for name, given in (("values", values), ("seeds", seeds)):
        repeated = [v for i, v in enumerate(given) if v in given[:i]]
        if repeated:
            # A repeat would only run the same cells twice.
            raise ConfigError(f"{name}: {repeated[0]!r} is given more than once; "
                              f"sweep {name} must be distinct")
    # Cell i is of value i // len(seeds): cells are value-major and both maps
    # keep their order. So a value need not hash, as a list of obstacles.
    # Every cell is checked before the first one runs.
    cells = [cfg.set_value(cfg.set_value(base, axis, value), "seed", seed)
             for value in values for seed in seeds]
    for cell in cells:
        cfg.require_valid(cell)
    results: list[list[dict[str, float]]] = [[] for _ in values]
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else nullcontext()) as pool:
        for i, m in enumerate((map if pool is None else pool.map)(_run_cell, cells)):
            cell = i // len(seeds)
            results[cell].append(m)
            if progress:
                progress(f"{axis}={values[cell]} done ({len(results[cell])}/{len(seeds)})")
    rows = []
    for value, ms in zip(values, results):
        means = {k: statistics.mean(m[k] for m in ms) for k in _SWEEP_METRICS}
        stds = {
            k: statistics.stdev([m[k] for m in ms]) if len(ms) > 1 else 0.0
            for k in _SWEEP_METRICS
        }
        rows.append(SweepRow(axis=axis, value=value, n_runs=len(ms),
                             means=means, stds=stds))
    return rows


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["axis", "value", "n_runs"]
    for k in _SWEEP_METRICS:
        header.extend([f"{k}_mean", f"{k}_std"])
    writer.writerow(header)
    for row in rows:
        line = [row.axis, row.value, row.n_runs]
        for k in _SWEEP_METRICS:
            line.extend([repr(row.means[k]), repr(row.stds[k])])
        writer.writerow(line)
    return buf.getvalue()
