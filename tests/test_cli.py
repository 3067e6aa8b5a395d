import hashlib
import io
import json
import time
import tracemalloc
from pathlib import Path

import pytest

from eqgrass import search
from eqgrass.bipoly import parse_bipoly
from eqgrass.cli import EXIT_AMBIGUOUS, EXIT_BUDGET, EXIT_OK, EXIT_USAGE, run
from eqgrass.known import KNOWN_TABLES, six_candidates
from eqgrass.search import solve

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


@pytest.mark.parametrize(
    "a, b", [("1", "x^400y^400"), ("x^400y^400", "x^400y^800")], ids=["y=1", "y=1/x"]
)
def test_story_rejects_a_non_multiple_before_dividing(a, b):
    # Long division took 2.4 and 9.1 s to reject these: O(n^2) steps, each
    # rescanning the remainder.  The difference fails one substitution.
    best = float("inf")
    for _ in range(3):
        began = time.perf_counter()
        code, text = invoke(["story", "--a", a, "--b", b])
        best = min(best, time.perf_counter() - began)
        assert (code, text) == (EXIT_OK, "not related by shifts\n")
    assert best < 0.1


# Stories from page 0 of Gr_3(R^{6,3}) to each of its six survivors, in
# survivor order; each has several terms.
STORIES_363 = [
    "x^3y^2 + x^3y + x^2y",
    "x^4y^3 + x^4y^2 + x^3y^2 + x^3y + x^2y",
    "x^4y^3 + 2x^3y^2 + x^3y + x^2y",
    "x^4y^3 + x^4y^2 + 2x^3y^2 + x^3y + x^2y",
    "x^4y^3 + 2x^3y^2 + x^3y + 2x^2y",
    "x^4y^3 + x^4y^2 + 2x^3y^2 + x^3y + 2x^2y",
]


def test_story_page_to_each_survivor_363():
    report = solve(3, 6, 3)
    start = str(report.pages[0].poincare())
    got = [
        invoke(["story", "--a", start, "--b", str(m.poincare())])
        for m in report.survivors
    ]
    assert got == [(EXIT_OK, story + "\n") for story in STORIES_363]


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


def test_space_split_number_exit_2(capsys):
    code, text = invoke(["story", "--a", "2*3", "--b", "6"])
    assert code == EXIT_USAGE and text == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_inconsistent_kpq_exit_2(capsys):
    code, _ = invoke(["totalweight", "--k", "4", "--p", "3", "--q", "1"])
    assert code == EXIT_USAGE
    assert "k=4" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, error",
    [
        (["e1", "--k", "4", "--word", "+-+"], "k=4 out of range for a length-3 word"),
        (["quotient", "--k", "5", "--word", "++-", "--m", "1"],
         "k=5 out of range for a length-3 word"),
        (["quotient", "--k", "1", "--word", "++-", "--m", "3"],
         "m=3 out of range: need 0 <= m < 3"),
        (["validate", "--k", "1", "--p", "3", "--q", "1", "--word", "++--"],
         "word '++--' has (p, q) = (4, 2), not (3, 1)"),
    ],
    ids=["e1-k", "quotient-k", "quotient-m", "validate-word"],
)
def test_word_out_of_range_exit_2(argv, error, capsys):
    assert invoke(argv) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == f"error: {error}\n"


def test_unknown_subcommand_exit_2(capsys):
    code, _ = invoke(["rotate", "--k", "1"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--strategy", "matchings"],
        ["solve", "--depth", "2"],
        ["solve", "--jobs", "2"],
        ["solve", "--no-cache"],
        ["solve", "--cache-dir", "X"],
        ["candidates", "--strategy", "matchings"],
        ["candidates", "--depth", "2"],
        ["pages", "--max-modules", "5"],
        ["pages", "--max-seconds", "1"],
    ],
    ids=" ".join,
)
def test_unknown_option_exit_2(argv):
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


def test_pages_json_format():
    code, text = invoke(["pages", "--k", "1", "--p", "3", "--q", "1", "--format", "json"])
    assert code == EXIT_OK
    assert json.loads(text) == {
        "count": 2,
        "pages": [
            {"generators": [[0, 0, 1], [1, 1, 1], [2, 1, 1]]},
            {"generators": [[0, 0, 1], [1, 0, 1], [2, 2, 1]]},
        ],
        "tensions": [5, 6],
    }


# sha256 of the stdout of `candidates` in each format; every exit code is 0.
CANDIDATES_STDOUT_SHA256 = {
    ((1, 3, 1), "json"): "bc67b38abd44230cd3f300f88baa039edf6950a33d79a6ffb0c15330e72dc01e",
    ((1, 3, 1), "poly"): "849ea32f65fdd78b440a4d2b25a1056d06850d127617bd531fadbfbb8efbe869",
    ((1, 3, 1), "table"): "cef30787c4395ae7009a54198b066f88c55c8b3074c6ae87224cfbeda4e9cffd",
    ((3, 6, 3), "json"): "40361c7969962972c96a7c5806bba76bf18f9f5de562172d93f1bc2b9a8a0d02",
    ((3, 6, 3), "poly"): "b2f543cce8d6fb250f8bbb9bc6a1d1beeab6e6a6dc7868babbe6dc12c98c4a17",
    ((3, 6, 3), "table"): "adbf006df02dbef5f6359edab412fcf84b051ffa0facb3451882f29f56074605",
    ((3, 7, 2), "json"): "be1e2adedec9230efc261764c611a552021bc37cd950b75aa9997dfd95a2cb30",
    ((3, 7, 2), "poly"): "0210eb2bfdea410bfaa826a1b04f9e9427792729e3b364dc716c228b6c08446f",
    ((3, 7, 2), "table"): "dbc0438885aed25be1468b5295ce4a191e2f33996a404937eae557bba6d4631b",
    ((2, 8, 4), "json"): "7f1b2dac8f35d08bf47349f3d16d82423133fd8b0c2d7500117e2ca6f52dea62",
    ((2, 8, 4), "poly"): "33ef29f7e96a1bb090d620e54b8d7b82a063ee6389780be5d5bc482dbe569f3c",
    ((2, 8, 4), "table"): "26d86cc1e8b39554b99b3bdbc3558cfb63f6565dcd961a4d238c51f92772db27",
}


@pytest.mark.parametrize(
    "space, fmt",
    sorted(CANDIDATES_STDOUT_SHA256),
    ids=lambda v: v if isinstance(v, str) else "%d-%d-%d" % v,
)
def test_candidates_deterministic_bytes(space, fmt):
    k, p, q = map(str, space)
    code, text = invoke(["candidates", "--k", k, "--p", p, "--q", q, "--format", fmt])
    assert code == EXIT_OK
    assert hashlib.sha256(text.encode()).hexdigest() == CANDIDATES_STDOUT_SHA256[space, fmt]


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


@pytest.mark.parametrize("module", ['{"generators": [[0, 0, 1000000000]]}', "1000000000"])
def test_validate_checks_counts_without_building_generators(module):
    # One generator per unit of a count of 10**6 took 1.0 s and 32 MiB.
    tracemalloc.start()
    try:
        code, text = invoke(["validate", "--k", "2", "--p", "4", "--q", "2", "--module", module])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_AMBIGUOUS
    assert text == (
        "underlying: FAIL\nfixed-set: FAIL\ntotal-weight: FAIL\n"
        "  underlying: expected x^4 + x^3 + 2x^2 + x + 1, got 1000000000\n"
        "  fixed set: expected x^2 + 2x + 3, got 1000000000\n"
        "  total weight: expected 8, got 0\n"
    )
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "module",
    [
        '{"generators": [null]}',
        '{"generators": 5}',
        '{"generators": [[0, 0, 1.5]]}',
        '{"generators": [[0, 0, 1], [1, 1, 2], [1, 1, -1]]}',
        '{"generators": [[0, 0, 1], [2, -1, 1]]}',
    ],
)
def test_validate_malformed_module_json_exit_2(module, capsys):
    code, text = invoke(
        ["validate", "--k", "1", "--p", "2", "--q", "1", "--module", module]
    )
    assert code == EXIT_USAGE and text == ""
    assert capsys.readouterr().err.startswith("error: bad module: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["story", "--a", "x^-1", "--b", "1"], "bad polynomial for --a: unparseable term 'x^-1'"),
        (["story", "--a", "1", "--b", "x^+2"], "bad polynomial for --b: unparseable term 'x^+2'"),
        (["validate", "--k", "1", "--p", "2", "--q", "1", "--module", "x^-1"],
         "bad module: unparseable term 'x^-1'"),
    ],
)
def test_signed_exponent_is_named_whole_exit_2(argv, message, capsys):
    assert invoke(argv) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("module", ['{"generators": [[0, 0, 1], [1, 0, 1], [2, 2, 1]]}',
                                    "1 + x", "x^-1"])
def test_validate_module_dash_reads_stdin(module, monkeypatch, capsys):
    argv = ["validate", "--k", "1", "--p", "3", "--q", "1", "--module"]
    direct = invoke(argv + [module]), capsys.readouterr().err
    monkeypatch.setattr("sys.stdin", io.StringIO(module + "\n"))
    assert (invoke(argv + ["-"]), capsys.readouterr().err) == direct


def test_validate_empty_module_text_exit_2(capsys):
    # Path("") is the current directory; empty text must not read it.
    code, text = invoke(
        ["validate", "--k", "1", "--p", "2", "--q", "1", "--module", ""]
    )
    assert code == EXIT_USAGE and text == ""
    assert capsys.readouterr().err == "error: bad module: empty polynomial text\n"


@pytest.mark.parametrize("kind", ["directory", "non-utf-8 file"])
def test_validate_unreadable_module_path_exit_2(kind, tmp_path, capsys):
    path = tmp_path / "module"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'\xff{"generators": []}')
    code, text = invoke(
        ["validate", "--k", "1", "--p", "2", "--q", "1", "--module", str(path)]
    )
    assert code == EXIT_USAGE and text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: bad module: ") and err.count("\n") == 1


def test_validate_long_poly_round_trip():
    # The (2,13,6) answer is 320 characters: too long to be a file name.
    kpq = ["--k", "2", "--p", "13", "--q", "6"]
    code, poly = invoke(["solve", *kpq, "--format", "poly"])
    assert code == EXIT_OK and len(poly) > 255
    code, text = invoke(["validate", *kpq, "--module", poly.strip()])
    assert code == EXIT_OK
    assert text == "underlying: pass\nfixed-set: pass\ntotal-weight: pass\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--max-modules", "-1"],
        ["pages", "--max-words", "-1"],
        ["candidates", "--max-seconds", "-0.5"],
    ],
    ids=lambda argv: argv[1],
)
def test_negative_budget_exit_2(argv, capsys):
    code, text = invoke([*argv, "--k", "1", "--p", "3", "--q", "1"])
    assert code == EXIT_USAGE and text == ""
    assert "must be nonnegative" in capsys.readouterr().err


def test_solve_table_matches_golden():
    code, text = invoke(
        ["solve", "--k", "3", "--p", "6", "--q", "2", "--format", "table"]
    )
    assert code == EXIT_OK
    golden = (DATA / "gr3_6_2.txt").read_text()
    assert text == golden


# sha256 of the stdout of `solve --format json` and its exit code.
SOLVE_JSON_STDOUT_SHA256 = {
    (1, 3, 1): (EXIT_OK, "552d987ceb9c3da23b25034929f078446ca88886dabe32251785a03c776db4a0"),
    (2, 6, 3): (EXIT_OK, "762294144dc5c7943be97a74a372fd3e1d2c3315a7b7ec521a55fd6dd33a82d5"),
    (3, 6, 3): (
        EXIT_AMBIGUOUS,
        "e08a86dfd27037672555b9223f3ceea3bf0a53d47b929caa8867212139de7c15",
    ),
    (2, 8, 4): (EXIT_OK, "82884689caf696af3931492f4bc6492eb1090852941d8f0343a681905e294885"),
    (3, 7, 2): (
        EXIT_AMBIGUOUS,
        "37224c876a935df63e3a6a1f99f72ddc44b03138952c2e8edce9f5386504e9bd",
    ),
    (2, 9, 4): (EXIT_OK, "9a0a16a7d9b2447de4bf224b6e9b7f5d82d51f13346a4d0f4ac9e96504e06dfb"),
}


@pytest.mark.parametrize("space", sorted(SOLVE_JSON_STDOUT_SHA256))
def test_solve_deterministic_bytes(space):
    k, p, q = map(str, space)
    code, text = invoke(["solve", "--k", k, "--p", p, "--q", q, "--format", "json"])
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (code, digest) == SOLVE_JSON_STDOUT_SHA256[space]


def test_answers_build_no_corner_keys(monkeypatch):
    # The survivors come from one need summed off the census's packed
    # pages; only the log, which the JSON reads, reduces pages on keys.
    def refuse(page0):
        raise AssertionError("corner keys built for an answer")

    monkeypatch.setattr(search, "_corner_keys", refuse)
    for (k, p, q), table in KNOWN_TABLES.items():
        argv = ["solve", "--k", str(k), "--p", str(p), "--q", str(q), "--format"]
        assert invoke(argv + ["table"]) == (EXIT_OK, (DATA / f"gr{k}_{p}_{q}.txt").read_text())
        assert invoke(argv + ["poly"]) == (EXIT_OK, f"{table.poincare()}\n")
        assert solve(k, p, q).survivors == [table]
    code, text = invoke(["solve", "--k", "3", "--p", "6", "--q", "3", "--format", "poly"])
    polys = [parse_bipoly(line) for line in text.splitlines() if not line.startswith("#")]
    assert code == EXIT_AMBIGUOUS and len(polys) == 6 and set(polys) == set(six_candidates())
    for (space, fmt), digest in CANDIDATES_STDOUT_SHA256.items():
        k, p, q = map(str, space)
        code, text = invoke(["candidates", "--k", k, "--p", p, "--q", q, "--format", fmt])
        assert (code, hashlib.sha256(text.encode()).hexdigest()) == (EXIT_OK, digest)
    with pytest.raises(AssertionError, match="corner keys"):
        solve(3, 6, 3).to_json()


def test_solve_ambiguous_exit_1():
    code, text = invoke(
        ["solve", "--k", "3", "--p", "6", "--q", "3", "--format", "poly"]
    )
    assert code == EXIT_AMBIGUOUS
    assert text.startswith("# 6 surviving candidates\n")
    assert text.count("# candidate") == 6


def test_solve_budget_exit_3(capsys):
    code, _ = invoke(
        ["solve", "--k", "3", "--p", "6", "--q", "3", "--max-modules", "3"]
    )
    assert code == EXIT_BUDGET
    assert "budget exceeded" in capsys.readouterr().err


def test_solve_module_budget_of_zero_counts_the_start(capsys):
    # Gr_1(R^{3,1}) has a start with no moves, which a cap of 0 still refuses.
    code, text = invoke(
        ["solve", "--k", "1", "--p", "3", "--q", "1", "--max-modules", "0"]
    )
    assert code == EXIT_BUDGET and text == ""
    assert "exceeded 0 modules" in capsys.readouterr().err


def test_pages_word_budget_exit_3(tmp_path, capsys):
    code, _ = invoke(
        ["pages", "--k", "2", "--p", "14", "--q", "7"]
    )
    assert code == EXIT_BUDGET
    assert "3432" in capsys.readouterr().err


def test_solve_normalize_flag(capsys):
    code, text = invoke(
        ["solve", "--k", "3", "--p", "4", "--q", "3", "--normalize",
         "--format", "poly"]
    )
    assert code == EXIT_OK
    assert "normalized" in capsys.readouterr().err
    base = invoke(["solve", "--k", "1", "--p", "4", "--q", "1",
                   "--format", "poly"])[1]
    assert text == base


def test_solve_writes_no_files(tmp_path, monkeypatch):
    home, env_dir = tmp_path / "home", tmp_path / "env"
    home.mkdir()
    env_dir.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("EQGRASS_CACHE_DIR", str(env_dir))
    code, text = invoke(["solve", "--k", "3", "--p", "6", "--q", "2"])
    assert code == EXIT_OK
    assert text == (DATA / "gr3_6_2.txt").read_text()
    assert list(home.iterdir()) == [] and list(env_dir.iterdir()) == []
