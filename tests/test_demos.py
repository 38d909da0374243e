"""Smoke test: the quick walkthrough demos run to completion, with numeric
warnings as errors.

Demo 05 trains two agents for about 25 s and is left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def test_all_quick_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path,
                                 "PYTHONWARNINGS": "error::RuntimeWarning"}, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
