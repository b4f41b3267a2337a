"""Smoke runs of the experiment scripts, which no other test imports."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SMALL_ARGS = {
    "delay_spectrum.py": ["--count", "3", "--grid", "32"],
    "mathieu_tongue.py": ["--n-delta", "3", "--eps", "0.1", "--grid", "32"],
    "nonlocal_bands.py": ["--count", "3", "--grid", "16"],
}


def test_every_script_has_smoke_arguments():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(SMALL_ARGS)


@pytest.mark.parametrize("script", sorted(SMALL_ARGS))
def test_script_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *SMALL_ARGS[script]],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
