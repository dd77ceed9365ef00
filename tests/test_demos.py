"""The quick demos run to completion on the public API and leave nothing behind.

Each runs in its own interpreter, as a user would run it.  Demos 03 and 04
(chained imputation and the benchmark grid) take tens of seconds and are
left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    ["01_adversarial_column_fit.py", "02_synthetic_data_and_missingness.py", "05_csv_workflow.py"],
)
def test_demo_exits_zero_and_cleans_up(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert list(tmp_path.iterdir()) == []
