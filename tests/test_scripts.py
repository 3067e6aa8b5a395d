import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_survey_counts_pages_candidates_and_answers():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "survey.py"), "--max-p", "6"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    rows = {line.split()[0]: line.split()[1:4] for line in result.stdout.splitlines()}
    assert rows["Gr3(R^6,3)"] == ["6", "24", "6"]
