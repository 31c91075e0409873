"""``pytest benchmarks/layered``: the harness's own self-test.

Not named ``bench_*.py`` so the pytest-benchmark collection of
``benchmarks/`` ignores it, and outside ``testpaths`` so tier-1 does too.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_quick_selftest():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.layered", "--quick"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
