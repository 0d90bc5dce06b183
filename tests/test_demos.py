"""Smoke test: the demos run to completion.

Demos 01 to 04 run as separate processes and must exit 0; together they
take about a second.  Demo 05 (adequacy and induction) is left out because
it takes over 20 seconds; run it by hand with
``PYTHONPATH=src python demos/05_adequacy_and_induction.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-4]_*.py"))


def test_the_four_quick_demos_are_found():
    assert [name[:2] for name in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
