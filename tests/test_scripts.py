"""Smoke tests for the helper scripts under ``scripts/``.

Each script runs in its own process from a scratch directory, with the
package under test first on ``PYTHONPATH``, and must exit 0 with output.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import swarmreid

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, args", [
    ("query_demo.py", []),
    ("make_collision_report.py", []),
    ("run_scenarios.py", ["--seeds", "1"]),
])
def test_script_runs(tmp_path, script, args):
    package_root = str(Path(swarmreid.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
