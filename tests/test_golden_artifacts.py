"""Run artifacts must match committed sha256 digests byte for byte.

``test_runs_are_byte_deterministic`` only compares a run with its own repeat,
so a change that altered every result would still pass it. These short runs
pin the content: text mode with and without crowding, gossip under scarce
sightings, a tombstone cap small enough to evict during exchanges, and the
``vector-baseline`` centroid path, which the benchmark's golden file does not
cover. Three of them run again with the world stage in this process, as on
a machine with one usable CPU or where ``os.fork`` fails.

Re-record the digest file only in a change that declares new artifacts:

    PYTHONPATH=src python tests/test_golden_artifacts.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from swarmreid import config as cfg
from swarmreid.runner import run_experiment

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "golden_artifacts.json"

CASES = {
    "baseline": ("baseline.yaml", []),
    "comm_benefit": ("comm_benefit.yaml", []),
    "crowded_8_robots": ("crowded.yaml", ["robots.count=8", "duration_ticks=1000"]),
    "crowded_8_robots_tombstone_cap": ("crowded.yaml", ["robots.count=8",
                                                        "duration_ticks=1000",
                                                        "tombstone_cap=64"]),
    "crowded_vector_baseline": ("crowded.yaml", ["mode=vector-baseline",
                                                 "duration_ticks=1500"]),
    "crowded_obstacles": ("crowded.yaml", ["arena.obstacles=[[-6,-6,-2,-2],[2,3,7,8]]",
                                           "duration_ticks=1500"]),
}


def artifact_digests(case: str, outdir: Path) -> dict[str, str]:
    config_file, overrides = CASES[case]
    c = cfg.apply_overrides(cfg.load_config(ROOT / "configs" / config_file), overrides)
    run_experiment(c).save(outdir)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir())}


def test_every_golden_case_runs():
    """A case dropped from ``CASES`` would otherwise stop being checked
    while its digests stay in the file."""
    assert set(CASES) == set(json.loads(DIGESTS.read_text()))


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_golden_digests(case, tmp_path):
    golden = json.loads(DIGESTS.read_text())
    assert artifact_digests(case, tmp_path) == golden[case]


@pytest.mark.parametrize("case", ["baseline", "crowded_8_robots", "crowded_vector_baseline"])
def test_in_process_world_stage_matches_golden_digests(case, world_stage_in_process,
                                                        tmp_path):
    """Where the world stage cannot run in a forked child it runs in this
    process, the same generator consumed in place, with the same artifacts."""
    golden = json.loads(DIGESTS.read_text())
    assert artifact_digests(case, tmp_path) == golden[case]


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    record = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            record[name] = artifact_digests(name, Path(tmp))
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
