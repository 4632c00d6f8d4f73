"""Command-line front end: run, sweep, query, report."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import yaml

from . import config as cfg
from .errors import ConfigError, ContractError, EmptyDescriptionError, ProviderError
from .runner import RunArtifact, run_experiment, sweep, sweep_csv


def _load(args: argparse.Namespace) -> cfg.SimConfig:
    configuration = cfg.load_config(args.config) if args.config else cfg.SimConfig()
    if args.set:
        configuration = cfg.apply_overrides(configuration, args.set)
    cfg.require_valid(configuration)
    return configuration


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML config file; defaults apply otherwise")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE", default=[],
                        help="override a config key (repeatable)")


def _check_out(out: Path, kind: str) -> None:
    """Raise ConfigError unless ``out`` can be written as a ``kind``,
    "directory" or "file". Called before any run, after which writing would
    otherwise fail."""
    if any(parent.is_file() for parent in out.parents):
        raise ConfigError(f"--out {out} lies under a file")
    if out.is_file() if kind == "directory" else out.is_dir():
        raise ConfigError(f"--out {out} must name a {kind}")


def _cmd_run(args: argparse.Namespace) -> int:
    configuration = _load(args)
    out = Path(args.out)
    _check_out(out, "directory")
    artifact = run_experiment(configuration)
    artifact.save(out)
    m = artifact.metrics
    print(f"run complete: seed={configuration.seed} fingerprint={artifact.fingerprint[:12]}")
    print(f"  detected identities: {m.detected_identity_count}/{configuration.people.count}")
    print(f"  clusters per robot:  {list(m.clusters_per_robot)}")
    print(f"  avg purity:          {m.avg_purity:.4f}")
    print(f"  normalized purity:   {m.normalized_purity:.4f}")
    if m.cmc:
        print(f"  rank-1 / rank-5:     {m.cmc[0]:.4f} / {m.cmc[min(4, len(m.cmc) - 1)]:.4f}")
    print(f"  mAP:                 {m.map_score:.4f}")
    print(f"  artifacts: {out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = _load(args)
    values = []
    for v in args.values:
        try:
            values.append(yaml.safe_load(v))
        except yaml.YAMLError:
            raise ConfigError(f"--values: {v!r} is not YAML") from None
    try:
        seeds = [int(s) for s in args.seeds]
    except ValueError as exc:
        raise ConfigError(f"--seeds: {exc}") from None
    if args.out:
        _check_out(Path(args.out), "file")
    rows = sweep(base, args.axis, values, seeds, workers=args.workers,
                 progress=lambda msg: print(f"  {msg}", file=sys.stderr))
    text = sweep_csv(rows)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text)
        print(f"sweep written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _print_hits(hits, prefix: str = "") -> None:
    if not hits:
        print(f"{prefix}no clusters in this robot's database")
        return
    for rank, hit in enumerate(hits, start=1):
        print(f"{prefix}{rank}. uid={tuple(hit.uid)} score={hit.score:.4f}")
        print(f"{prefix}   summary: {hit.summary_text}")
        for sample in hit.samples:
            print(f"{prefix}   seen tick {sample.tick} by robot {sample.robot_id}: "
                  f"{sample.text}")


def _cmd_query(args: argparse.Namespace) -> int:
    artifact = RunArtifact.load(args.run)
    by_owner = {db.owner: db for db in artifact.databases}
    if args.robot == "all":
        owners = sorted(by_owner)
    else:
        try:
            owner = int(args.robot)
        except ValueError:
            owner = -1
        if owner not in by_owner:
            valid = ", ".join(str(r) for r in sorted(by_owner))
            print(f"error: no robot {args.robot} in this run (valid: {valid}, all)",
                  file=sys.stderr)
            return 2
        owners = [owner]
    try:
        for owner in owners:
            hits = by_owner[owner].query(args.text, k=args.k)
            if len(owners) > 1:
                print(f"robot {owner}:")
                _print_hits(hits, prefix="  ")
            else:
                _print_hits(hits)
    except EmptyDescriptionError:
        print("error: the query contains no usable words; "
              "describe clothing, colors, or accessories", file=sys.stderr)
        return 2
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    artifact = RunArtifact.load(args.run)
    print(artifact.metrics.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmreid",
        description="Decentralized person re-identification from language "
                    "descriptions in a simulated robot swarm.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one run and save artifacts")
    _add_config_args(p_run)
    p_run.add_argument("--out", default="runs/latest", help="artifact directory")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep over seeds")
    _add_config_args(p_sweep)
    p_sweep.add_argument("--axis", required=True, help="dotted config key to vary")
    p_sweep.add_argument("--values", required=True, nargs="+",
                         help="values for the axis (YAML scalars)")
    p_sweep.add_argument("--seeds", nargs="+", default=["0", "1", "2"],
                         help="seeds to average over")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--out", help="CSV output path (stdout otherwise)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_query = sub.add_parser("query", help="free-text search of a saved run")
    p_query.add_argument("text", help="description to search for")
    p_query.add_argument("--run", default="runs/latest", help="artifact directory")
    p_query.add_argument("--robot", default="0",
                         help="robot id, or 'all' for every database")
    p_query.add_argument("-k", type=int, default=5, help="number of hits")
    p_query.set_defaults(func=_cmd_query)

    p_report = sub.add_parser("report", help="print the metrics of a saved run")
    p_report.add_argument("--run", default="runs/latest", help="artifact directory")
    p_report.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # Flushed here, so that a reader gone before the last output is met
        # below, not by the interpreter's flush at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early, as ``| head`` does: end quietly.
        # Pointing stdout at devnull keeps the flush at exit from raising
        # again (see the note on SIGPIPE in Python's signal docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    # An OSError is a path that cannot be read or written as asked.
    except (ConfigError, ContractError, ProviderError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
