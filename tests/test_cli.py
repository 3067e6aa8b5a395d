import io
import json
from pathlib import Path

import pytest

from eqgrass import cache as result_cache
from eqgrass.cli import EXIT_AMBIGUOUS, EXIT_BUDGET, EXIT_OK, EXIT_USAGE, run
from eqgrass.search import SolveReport, solve

DATA = Path(__file__).parent / "data"


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def test_e1_poly_output():
    code, text = invoke(["e1", "--k", "2", "--word", "++--", "--format", "poly"])
    assert code == EXIT_OK
    assert text == "x^4y^4 + x^3y + 2x^2y + xy + 1\n"


def test_e1_json_output():
    code, text = invoke(["e1", "--k", "1", "--word", "++-", "--format", "json"])
    assert code == EXIT_OK
    assert json.loads(text) == {"generators": [[0, 0, 1], [1, 0, 1], [2, 2, 1]]}


def test_story_output():
    code, text = invoke(["story", "--a", "1 + x + x^2y^2", "--b", "1 + xy + x^2y"])
    assert code == EXIT_OK
    assert text == "x\n"


def test_story_unrelated():
    code, text = invoke(["story", "--a", "1", "--b", "x"])
    assert code == EXIT_OK
    assert text == "not related by shifts\n"


def test_totalweight():
    code, text = invoke(["totalweight", "--k", "2", "--p", "4", "--q", "2"])
    assert code == EXIT_OK and text == "8\n"


def test_bad_sign_word_exit_2(capsys):
    code, _ = invoke(["e1", "--k", "1", "--word", "+?-"])
    assert code == EXIT_USAGE
    assert "'?'" in capsys.readouterr().err


def test_bad_polynomial_exit_2(capsys):
    code, _ = invoke(["story", "--a", "1 +", "--b", "x"])
    assert code == EXIT_USAGE
    assert "--a" in capsys.readouterr().err


def test_inconsistent_kpq_exit_2(capsys):
    code, _ = invoke(["totalweight", "--k", "4", "--p", "3", "--q", "1"])
    assert code == EXIT_USAGE
    assert "k=4" in capsys.readouterr().err


def test_unknown_subcommand_exit_2(capsys):
    code, _ = invoke(["rotate", "--k", "1"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--strategy", "matchings"],
        ["solve", "--depth", "2"],
        ["solve", "--jobs", "2"],
        ["candidates", "--strategy", "matchings"],
        ["candidates", "--depth", "2"],
    ],
    ids=" ".join,
)
def test_unknown_option_exit_2(argv, tmp_path, monkeypatch):
    monkeypatch.setenv(result_cache.CACHE_ENV_VAR, str(tmp_path))
    code, _ = invoke([*argv, "--k", "1", "--p", "3", "--q", "1"])
    assert code == EXIT_USAGE


def test_pages_poly_format():
    code, text = invoke(["pages", "--k", "1", "--p", "3", "--q", "1", "--format", "poly"])
    assert code == EXIT_OK
    assert text == (
        "# page 0: tension 5\n"
        "x^2y + xy + 1\n"
        "# page 1: tension 6\n"
        "x^2y^2 + x + 1\n"
    )


def test_candidates_count_line():
    code, text = invoke(
        ["candidates", "--k", "3", "--p", "6", "--q", "3", "--format", "json"]
    )
    assert code == EXIT_OK
    assert json.loads(text)["count"] == 24


def test_candidates_past_degree_255():
    code, text = invoke(
        ["candidates", "--k", "1", "--p", "300", "--q", "1", "--format", "json"]
    )
    assert code == EXIT_OK
    assert json.loads(text)["count"] == 1


def test_quotient_cell_count():
    # words starting with '-' need the --word=VALUE spelling
    code, text = invoke(
        ["quotient", "--k", "3", "--word=--+++-", "--m", "5", "--format", "json"]
    )
    assert code == EXIT_OK
    payload = json.loads(text)
    assert sum(entry[2] for entry in payload["generators"]) == 10


def test_validate_word():
    code, text = invoke(
        ["validate", "--k", "2", "--p", "4", "--q", "2", "--word", "++--"]
    )
    assert code == EXIT_OK
    assert text == "underlying: pass\nfixed-set: pass\ntotal-weight: pass\n"


def test_validate_poly_module_failing():
    code, text = invoke(
        ["validate", "--k", "2", "--p", "4", "--q", "2", "--module", "1"]
    )
    assert code == EXIT_AMBIGUOUS
    assert "FAIL" in text


@pytest.mark.parametrize(
    "module",
    ['{"generators": [null]}', '{"generators": 5}', '{"generators": [[0, 0, 1.5]]}'],
)
def test_validate_malformed_module_json_exit_2(module, capsys):
    code, text = invoke(
        ["validate", "--k", "1", "--p", "2", "--q", "1", "--module", module]
    )
    assert code == EXIT_USAGE and text == ""
    assert capsys.readouterr().err.startswith("error: bad module: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--max-modules", "-1", "--no-cache"],
        ["pages", "--max-words", "-1"],
        ["candidates", "--max-seconds", "-0.5"],
    ],
    ids=lambda argv: argv[1],
)
def test_negative_budget_exit_2(argv, capsys):
    code, text = invoke([*argv, "--k", "1", "--p", "3", "--q", "1"])
    assert code == EXIT_USAGE and text == ""
    assert "must be nonnegative" in capsys.readouterr().err


def test_solve_table_matches_golden(tmp_path):
    code, text = invoke(
        ["solve", "--k", "3", "--p", "6", "--q", "2", "--format", "table",
         "--cache-dir", str(tmp_path)]
    )
    assert code == EXIT_OK
    golden = (DATA / "gr3_6_2.txt").read_text()
    assert text == golden


def test_solve_deterministic_bytes(tmp_path):
    args = ["solve", "--k", "2", "--p", "6", "--q", "3", "--format", "json",
            "--no-cache"]
    assert invoke(args) == invoke(args)


def test_solve_ambiguous_exit_1(tmp_path):
    code, text = invoke(
        ["solve", "--k", "3", "--p", "6", "--q", "3", "--cache-dir", str(tmp_path),
         "--format", "poly"]
    )
    assert code == EXIT_AMBIGUOUS
    assert text.startswith("# 6 surviving candidates\n")
    assert text.count("# candidate") == 6


def test_solve_budget_exit_3(tmp_path, capsys):
    code, _ = invoke(
        ["solve", "--k", "3", "--p", "6", "--q", "3", "--max-modules", "3",
         "--cache-dir", str(tmp_path)]
    )
    assert code == EXIT_BUDGET
    assert "budget exceeded" in capsys.readouterr().err


def test_pages_word_budget_exit_3(tmp_path, capsys):
    code, _ = invoke(
        ["pages", "--k", "2", "--p", "14", "--q", "7"]
    )
    assert code == EXIT_BUDGET
    assert "3432" in capsys.readouterr().err


def test_solve_normalize_flag(tmp_path, capsys):
    code, text = invoke(
        ["solve", "--k", "3", "--p", "4", "--q", "3", "--normalize",
         "--cache-dir", str(tmp_path), "--format", "poly"]
    )
    assert code == EXIT_OK
    assert "normalized" in capsys.readouterr().err
    base = invoke(["solve", "--k", "1", "--p", "4", "--q", "1", "--no-cache",
                   "--format", "poly"])[1]
    assert text == base


# -- cache behaviour ------------------------------------------------------


def test_cache_roundtrip(tmp_path):
    report = solve(3, 6, 3)
    result_cache.store(tmp_path, report)
    loaded = result_cache.load(tmp_path, 3, 6, 3)
    assert loaded is not None
    assert loaded.to_json_bytes() == report.to_json_bytes()
    assert loaded.survivors == report.survivors


def test_cache_version_bump_misses(tmp_path, monkeypatch):
    report = solve(1, 3, 1)
    result_cache.store(tmp_path, report)
    assert result_cache.load(tmp_path, 1, 3, 1) is not None
    monkeypatch.setattr(result_cache, "CACHE_VERSION", result_cache.CACHE_VERSION + 1)
    assert result_cache.load(tmp_path, 1, 3, 1) is None


def test_cache_key_stable():
    # the key a closure entry had while the strategy was selectable
    assert result_cache.cache_key(3, 6, 3) == (
        "0f6e421f0e5a11e573dd7286bfd4d456ccd0fbe50e570ead5468da852e1011cf"
    )


def test_cache_corrupt_entry_recomputed(tmp_path, capsys):
    report = solve(1, 3, 1)
    path = result_cache.store(tmp_path, report)
    path.write_text("{broken json")
    assert result_cache.load(tmp_path, 1, 3, 1) is None
    assert "corrupt" in capsys.readouterr().err
    code, _ = invoke(["solve", "--k", "1", "--p", "3", "--q", "1",
                      "--cache-dir", str(tmp_path)])
    assert code == EXIT_OK
    reloaded = result_cache.load(tmp_path, 1, 3, 1)
    assert reloaded is not None and not reloaded.incomplete


@pytest.mark.parametrize(
    "survivors",
    [lambda n: [99], lambda n: list(range(n))],
    ids=["out-of-range", "all-candidates"],
)
def test_cache_entry_disagreeing_with_itself_recomputed(tmp_path, capsys, survivors):
    # A parseable entry whose survivors are not its log's replay.
    path = result_cache.store(tmp_path, solve(3, 6, 2))
    data = json.loads(path.read_text())
    data["survivor_indices"] = survivors(len(data["candidates"]))
    path.write_text(json.dumps(data))
    code, text = invoke(["solve", "--k", "3", "--p", "6", "--q", "2",
                         "--cache-dir", str(tmp_path)])
    assert code == EXIT_OK
    assert text == (DATA / "gr3_6_2.txt").read_text()
    assert "corrupt" in capsys.readouterr().err
    assert result_cache.load(tmp_path, 3, 6, 2).to_json_bytes() == solve(3, 6, 2).to_json_bytes()


def test_cache_entry_for_other_space_recomputed(tmp_path, capsys):
    other = result_cache.store(tmp_path, solve(1, 4, 1))
    other.rename(other.with_name(result_cache.cache_key(1, 3, 1) + ".json"))
    code, text = invoke(["solve", "--k", "1", "--p", "3", "--q", "1",
                         "--cache-dir", str(tmp_path), "--format", "poly"])
    assert code == EXIT_OK
    assert text == "x^2y + xy + 1\n"
    assert "corrupt" in capsys.readouterr().err


def test_cli_no_cache_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.setenv(result_cache.CACHE_ENV_VAR, str(tmp_path / "cachedir"))
    code, _ = invoke(["solve", "--k", "1", "--p", "3", "--q", "1", "--no-cache"])
    assert code == EXIT_OK
    assert not (tmp_path / "cachedir").exists()


def test_cli_cache_hit_identical_output(tmp_path):
    args = ["solve", "--k", "2", "--p", "5", "--q", "2", "--format", "json",
            "--cache-dir", str(tmp_path)]
    first = invoke(args)
    assert len(list(tmp_path.glob("*.json"))) == 1
    second = invoke(args)
    assert first == second


def test_cache_env_var_default(tmp_path, monkeypatch):
    monkeypatch.setenv(result_cache.CACHE_ENV_VAR, str(tmp_path / "envcache"))
    assert result_cache.default_cache_dir() == tmp_path / "envcache"
    code, _ = invoke(["solve", "--k", "1", "--p", "3", "--q", "1"])
    assert code == EXIT_OK
    assert list((tmp_path / "envcache").glob("*.json"))
