import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_rehabilitation_trajectory_demo_scores_every_session():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / "03_rehabilitation_trajectory.py")],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    q_lines = [line for line in run.stdout.splitlines() if "Q =" in line]
    assert [line.split(":")[0].strip() for line in q_lines] == [f"session {s}" for s in range(3, 8)]
