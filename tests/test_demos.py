"""Smoke test: the short narrative demos and the README's library example
run to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_make_data.py", "02_autodiff.py", "03_features.py", "04_attention_views.py",
         "05_train_synthetic.py", "06_view_analysis.py"]


def run_python(args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    env["TMPDIR"] = str(tmp_path)  # demos that write files use tempfile
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", DEMOS)
def test_demo_exits_cleanly(script, tmp_path):
    result = run_python([str(ROOT / "demos" / script)], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_library_example_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    result = run_python(["-c", code], tmp_path)
    assert result.returncode == 0, result.stderr
    assert 0.0 <= float(result.stdout.strip()) <= 1.0
