import os
import runpy
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


def test_regen_goldens_reproduces_committed_files():
    script = runpy.run_path(str(ROOT / "scripts" / "regen_goldens.py"))
    texts = script["goldens"]()
    data = ROOT / "tests" / "data"
    assert sorted(texts) == sorted(path.name for path in data.iterdir())
    for name, text in texts.items():
        assert (data / name).read_bytes() == text.encode(), name
