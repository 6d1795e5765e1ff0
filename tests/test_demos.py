"""Every demo script runs to completion against the package in src."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_exits_zero(script, src_env):
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=src_env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
