import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp_path)  # the demos' working directories land here
    run = subprocess.run([sys.executable, str(demo)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    if demo.stem == "03_rehabilitation_trajectory":  # scores every session
        q_lines = [line for line in run.stdout.splitlines() if "Q =" in line]
        assert [line.split(":")[0].strip() for line in q_lines] == [f"session {s}" for s in range(3, 8)]
