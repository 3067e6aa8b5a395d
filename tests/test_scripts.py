import json
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


def test_bench_records_the_ladder_and_keeps_other_labels(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"rows": {"parent": {"spaces": []}}}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = str(ROOT / "scripts" / "bench.py")
    result = subprocess.run(
        [sys.executable, script, "--out", str(out), "--label", "change"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    data = json.loads(out.read_text())
    assert data["rows"]["parent"] == {"spaces": []}
    rows = {tuple(row["space"]): row for row in data["rows"]["change"]["spaces"]}
    assert list(rows) == [(3, 6, 3), (3, 7, 2), (4, 8, 2), (2, 13, 6), (4, 8, 3)]
    assert (rows[2, 13, 6]["survivors"], rows[2, 13, 6]["abort"]) == (1, None)
    assert rows[4, 8, 3]["survivors"] is None
    assert rows[4, 8, 3]["abort"] == "candidate enumeration exceeded 1000000 modules"
    assert all(row["wall_ms"] > 0 and row["peak_mib"] > 0 for row in rows.values())


def test_level_crossover_prints_the_rule_pick_per_block():
    # The last column is _Weigher.by_levels, as
    # test_level_count_goes_where_it_was_measured_cheaper pins it.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "level_crossover.py"), "3,6,3", "1,30,1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    header, *lines = result.stdout.splitlines()
    assert header.split()[-1] == "by_levels"
    assert {line[:11].strip(): line.split()[-1] for line in lines} == {
        "(3, 6, 3)": "True", "(1, 30, 1)": "False"}
