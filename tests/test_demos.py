"""Smoke test: every script in demos/ runs to completion and reports no
target outside its interval.

Each demo is copied into a temporary directory and run from there, so
files a demo writes next to itself stay out of the checkout.
"""
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos"))
               if f.endswith(".py"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    script = shutil.copy(os.path.join(ROOT, "demos", name), tmp_path)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    # certified_bracket.py reports a missed target as OUTSIDE and exits 0
    assert "OUTSIDE" not in done.stdout, done.stdout
