"""Experiment orchestration: seeded world setup, the tick loop, artifacts.

Randomness fans out from the single root seed through fixed namespace keys,
one independent stream per person and per robot, so adding an agent never
perturbs the streams of the existing ones and any behavioral difference is
attributable to interaction.
"""

from __future__ import annotations

import csv
import io
import statistics
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import config as cfg
from .config import SimConfig
from .errors import ConfigError
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
from .reid import ClusterDatabase, canonical_json, exchange
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
    fingerprint: str
    people: list[tuple[int, PersonAttributes]]
    databases: list[ClusterDatabase]
    events: list[dict]
    metrics: MetricsReport

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
        for db in self.databases:
            (out / f"db_robot_{db.owner}.json").write_text(db.to_json() + "\n")
        with (out / "events.ndjson").open("w") as fh:
            for event in self.events:
                fh.write(canonical_json(event) + "\n")
        (out / "metrics.json").write_text(self.metrics.to_json() + "\n")
        (out / "cmc.csv").write_text(self.metrics.cmc_csv())
        return out

    @classmethod
    def load(cls, outdir: str | Path) -> "RunArtifact":
        import json

        out = Path(outdir)
        config_doc = json.loads((out / "config.json").read_text())
        configuration = cfg.from_dict(config_doc["config"])
        people = [
            (p["person_id"], PersonAttributes.from_dict(p["attributes"]))
            for p in json.loads((out / "people.json").read_text())
        ]
        databases = []
        for i in range(configuration.robots.count):
            databases.append(ClusterDatabase.from_json(
                (out / f"db_robot_{i}.json").read_text()
            ))
        events = []
        with (out / "events.ndjson").open() as fh:
            for line in fh:
                line = line.strip()
                if line:
                    events.append(json.loads(line))
        metrics_doc = json.loads((out / "metrics.json").read_text())
        metrics = MetricsReport(**{
            k: tuple(v) if isinstance(v, list) else v for k, v in metrics_doc.items()
        })
        return cls(config=configuration, fingerprint=config_doc["fingerprint"],
                   people=people, databases=databases, events=events, metrics=metrics)


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
            speed=c.people.speed, attributes=attributes[i],
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
        motion = AgentArrays(
            people + robots,
            [c.people.lambda_turn] * n_people + [c.robots.lambda_turn] * len(robots),
            c.dt, arena, person_rngs + robot_motion_rngs,
        )

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

        fingerprint = cfg.fingerprint(c)
        people_out = [(p.person_id, p.attributes) for p in people]
        report = compute_report(
            databases, people_out, range(c.people.count), fingerprint,
            ops=providers.ops,
        )

    return RunArtifact(
        config=c, fingerprint=fingerprint, people=people_out,
        databases=databases, events=events, metrics=report,
    )


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


def _run_cell(args: tuple[SimConfig, str, object, int]) -> tuple[object, dict[str, float]]:
    base, axis, value, seed = args
    one = cfg.set_value(base, axis, value)
    one = cfg.set_value(one, "seed", seed)
    report = run_experiment(one).metrics
    return value, _extract_metrics(report)


def sweep(base: SimConfig, axis: str, values: Sequence[object],
          seeds: Sequence[int], workers: int = 1,
          progress: Callable[[str], None] | None = None) -> list[SweepRow]:
    """Run ``axis=value`` for every value and seed; aggregate mean and stddev."""
    cells = [(base, axis, value, seed) for value in values for seed in seeds]
    results: dict[object, list[dict[str, float]]] = {v: [] for v in values}
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for value, m in pool.map(_run_cell, cells):
                results[value].append(m)
                if progress:
                    progress(f"{axis}={value} done ({len(results[value])}/{len(seeds)})")
    else:
        for cell in cells:
            value, m = _run_cell(cell)
            results[value].append(m)
            if progress:
                progress(f"{axis}={value} done ({len(results[value])}/{len(seeds)})")
    rows = []
    for value in values:
        ms = results[value]
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
