"""Experiment orchestration: seeded world setup, the tick loop, artifacts.

Randomness fans out from the single root seed through fixed namespace keys,
one independent stream per person and per robot, so adding an agent never
perturbs the streams of the existing ones and any behavioral difference is
attributable to interaction.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import statistics
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence, TypeVar

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
        # A run's databases share record objects; each is encoded once.
        memo: dict[int, str] = {}
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
        one record object per record as the saved run's databases did.

        The cyclic garbage collector is paused while the files are decoded
        and built, and the caller's setting is restored however the load
        ends. Loading creates tens of thousands of tracked objects (records,
        clusters, decoded dicts and lists) and no reference cycle, so the
        collections they would trigger, full heap scans among them, find
        nothing to free. When the collector was on, one young-generation
        pass at the end moves the loaded objects to the oldest generation:
        that scan is charged to the load, not to the first query.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            return cls._load(Path(outdir))
        finally:
            if enabled:
                gc.enable()
                gc.collect(1)

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

    with resolve_providers(c.providers) as providers:
        databases = [
            ClusterDatabase(owner=i, mode=c.mode, tombstone_cap=c.tombstone_cap,
                            ops=providers.ops)
            for i in range(c.robots.count)
        ]
        tables = [TrackTable() for _ in range(c.robots.count)]
        last_emit: list[dict[int, int]] = [{} for _ in range(c.robots.count)]
        pair_last_exchange: dict[tuple[int, int], int] = {}
        events: list[dict] = []

        # From here on the motion streams are read only by ``motion``.
        n_people = len(people)
        motion = AgentArrays(people + robots, c.dt, arena,
                             person_rngs + robot_motion_rngs)

        for tick in range(c.duration_ticks):
            # ballistic_step is looked up here at each tick, so a wrapper put
            # on this module's name (as the benchmark tracer does) sees every
            # surface hit.
            motion.step(ballistic_step)
            candidates = sensing_candidates(robots, motion.xy[:, :n_people])
            for i, robot in enumerate(robots):
                visible = visible_people(robot, [people[j] for j in candidates[i]], arena)
                assignments = tables[i].update_tracks(
                    visible, tick, c.perception.max_gap_ticks,
                    c.perception.p_track_break, robot_perception_rngs[i],
                )
                for track_id, person_id in assignments:
                    last = last_emit[i].get(track_id)
                    if last is not None and tick - last < c.perception.description_period:
                        continue
                    if providers.describe_fn is not None:
                        text = providers.describe_fn(attributes[person_id])
                    else:
                        text = describe(attributes[person_id], noise,
                                        robot_perception_rngs[i])
                    record = DescriptionRecord.create(
                        text=text, robot_id=i, tick=tick,
                        track_id=track_id, person_id=person_id,
                    )
                    uid, created = databases[i].assign_description(
                        record, c.thresholds.theta_local
                    )
                    last_emit[i][track_id] = tick
                    events.append({
                        "type": "assign", "tick": tick, "robot": i,
                        "track_id": track_id, "uid": list(uid), "created": created,
                    })
            if c.communication_enabled:
                for pair in comm_pairs(robots):
                    last = pair_last_exchange.get(pair)
                    if last is not None and tick - last < c.exchange_cooldown_ticks:
                        continue
                    stats = exchange(databases[pair[0]], databases[pair[1]],
                                     c.thresholds.theta_merge)
                    pair_last_exchange[pair] = tick
                    events.append({
                        "type": "exchange", "tick": tick,
                        "robots": list(pair), **asdict(stats),
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
