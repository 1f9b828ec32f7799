"""The benchmark's own tiny-size self test runs clean against this tree.

It checks, among other things, that the benchmark still reaches every
by-name alias it wraps (such as ``modkernel.transfer.kernel_matrix``).
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_perfbench_smoke_exits_zero():
    result = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
