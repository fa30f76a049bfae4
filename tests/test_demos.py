"""Smoke test: the short narrative demos run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_make_data.py", "02_autodiff.py", "03_features.py", "04_attention_views.py",
         "05_train_synthetic.py", "06_view_analysis.py"]


@pytest.mark.parametrize("script", DEMOS)
def test_demo_exits_cleanly(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    env["TMPDIR"] = str(tmp_path)  # demos that write files use tempfile
    result = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                            cwd=tmp_path, env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
