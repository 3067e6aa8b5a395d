"""Command-line front end.

Exit status: 0 on success, 1 when a unique-answer command ends with more
than one surviving candidate (survivors are still printed), 2 on usage
errors, 3 on budget aborts.  Output for a fixed invocation is
byte-for-byte deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bipoly import PolynomialParseError, parse_bipoly
from .modalg import FreeModule, module_poly, poincare_from_json, poly_story, render_rank_table
from .oracle import validate_poincare
from .schubert import (
    SignWord,
    check_parameters,
    e1_page,
    e1_quotient_page,
    normalize_parameters,
    total_weight_formula,
    unique_e1_pages,
)
from .search import (
    Budget,
    BudgetExceededError,
    DEFAULT_MAX_MODULES,
    DEFAULT_MAX_WORDS,
    SolveReport,
    solve,
)

EXIT_OK = 0
EXIT_AMBIGUOUS = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class _CliError(Exception):
    """Usage-level error; rendered as one diagnostic line, exit 2."""


def _parse_word(text: str) -> SignWord:
    try:
        return SignWord.from_string(text)
    except ValueError as exc:
        raise _CliError(f"bad sign word {text!r}: {exc}") from exc


def _parse_poly(text: str, flag: str):
    try:
        return parse_bipoly(text)
    except PolynomialParseError as exc:
        raise _CliError(f"bad polynomial for {flag}: {exc}") from exc


def _word_and_k(args) -> SignWord:
    """``--word`` parsed, once ``--k`` is checked against its length."""
    word = _parse_word(args.word)
    if args.k < 0 or args.k > word.p:
        raise _CliError(f"k={args.k} out of range for a length-{word.p} word")
    return word


def _emit_module(module: FreeModule, fmt: str, out) -> None:
    if fmt == "table":
        out.write(render_rank_table(module) + "\n")
    elif fmt == "poly":
        out.write(str(module.poincare()) + "\n")
    else:
        out.write(json.dumps(module.to_json(), sort_keys=True) + "\n")


def _add_format(parser, default="table"):
    parser.add_argument(
        "--format",
        choices=["table", "poly", "json"],
        default=default,
        help="output rendering",
    )


def _add_k_word(parser, word_help=None):
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--word", required=True, help=word_help)


def _add_kpq(parser):
    parser.add_argument("--k", type=int, required=True, help="plane dimension k")
    parser.add_argument("--p", type=int, required=True, help="ambient dimension p")
    parser.add_argument("--q", type=int, required=True, help="sign dimensions q")


def _nonnegative(convert):
    """An argparse type for a budget: ``convert``, then reject a negative
    or NaN value."""

    def parse(text: str):
        value = convert(text)
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def _add_max_words(parser):
    parser.add_argument(
        "--max-words",
        type=_nonnegative(int),
        default=DEFAULT_MAX_WORDS,
        help="cap on the sign words the census examines (default %(default)s)",
    )


def _add_budget(parser):
    parser.add_argument(
        "--max-modules",
        type=_nonnegative(int),
        default=DEFAULT_MAX_MODULES,
        help="candidate enumeration cap, checked against a count of the first "
        "page's down-set made before the search (default %(default)s)",
    )
    _add_max_words(parser)
    parser.add_argument(
        "--max-seconds",
        type=_nonnegative(float),
        default=None,
        help="wall-clock cap from the start of the census through the count, the "
        "closure, the filter and, for --format json, the page reduction",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqgrass",
        description="Bredon cohomology of real Grassmannians from Schubert-cell first pages",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        """A subparser for ``name``, which ``run`` hands to ``handler``."""
        parsed = sub.add_parser(name, help=help)
        parsed.set_defaults(handler=handler)
        return parsed

    p_e1 = command("e1", _cmd_e1, "first page for one sign word")
    _add_k_word(p_e1, "sign word over +/-, e.g. ++--")
    _add_format(p_e1)

    p_pages = command("pages", _cmd_pages, "distinct first pages over all sign words")
    _add_kpq(p_pages)
    _add_max_words(p_pages)
    _add_format(p_pages, default="poly")

    p_cand = command(
        "candidates", _cmd_candidates, "possible limits of the lowest-tension first page"
    )
    _add_kpq(p_cand)
    _add_budget(p_cand)
    _add_format(p_cand, default="poly")

    p_solve = command("solve", _cmd_solve, "run the full pruned search")
    _add_kpq(p_solve)
    _add_budget(p_solve)
    _add_format(p_solve)
    p_solve.add_argument(
        "--normalize",
        action="store_true",
        help="replace (k, q) by the smaller equivalent parameters first",
    )

    p_story = command("story", _cmd_story, "shift story from one module to another")
    p_story.add_argument("--a", required=True, help="Poincare polynomial of the start")
    p_story.add_argument("--b", required=True, help="Poincare polynomial of the end")

    _add_kpq(command("totalweight", _cmd_totalweight, "total weight of any first page"))

    p_val = command("validate", _cmd_validate, "classical cross-checks on a module")
    _add_kpq(p_val)
    group = p_val.add_mutually_exclusive_group(required=True)
    group.add_argument("--word", help="validate the first page of this sign word")
    group.add_argument(
        "--module",
        help="module JSON file ('-' for stdin) or Poincare polynomial text",
    )

    p_quot = command(
        "quotient", _cmd_quotient, "first page of the quotient by a prefix sub-Grassmannian"
    )
    _add_k_word(p_quot)
    p_quot.add_argument("--m", type=int, required=True, help="prefix length")
    _add_format(p_quot)

    return parser


def _solve(args, k: int, p: int, q: int) -> SolveReport:
    """``solve`` under the command's budget; an incomplete report raises."""
    report = solve(k, p, q, Budget(args.max_modules, args.max_words, args.max_seconds))
    if report.incomplete:
        raise BudgetExceededError(report.failure)
    return report


def _cmd_e1(args, out) -> int:
    _emit_module(e1_page(args.k, _word_and_k(args)), args.format, out)
    return EXIT_OK


def _cmd_pages(args, out) -> int:
    pages = unique_e1_pages(args.k, args.p, args.q, max_words=args.max_words)
    if args.format == "json":
        payload = {
            "count": len(pages),
            "pages": [m.to_json() for m in pages],
            "tensions": [m.tension() for m in pages],
        }
        out.write(json.dumps(payload, sort_keys=True) + "\n")
        return EXIT_OK
    for i, page in enumerate(pages):
        out.write(f"# page {i}: tension {page.tension()}\n")
        _emit_module(page, args.format, out)
    return EXIT_OK


def _cmd_candidates(args, out) -> int:
    cands = _solve(args, args.k, args.p, args.q).candidates
    if args.format == "json":
        payload = {"count": len(cands), "candidates": [m.to_json() for m in cands]}
        out.write(json.dumps(payload, sort_keys=True) + "\n")
        return EXIT_OK
    out.write(f"# {len(cands)} candidates\n")
    for m in cands:
        _emit_module(m, args.format, out)
    return EXIT_OK


def _cmd_solve(args, out) -> int:
    k, p, q = args.k, args.p, args.q
    if args.normalize:
        nk, np_, nq = normalize_parameters(k, p, q)
        if (nk, nq) != (k, q):
            print(f"normalized (k={k}, p={p}, q={q}) to (k={nk}, p={np_}, q={nq})",
                  file=sys.stderr)
        k, p, q = nk, np_, nq
    report = _solve(args, k, p, q)
    if args.format == "json":
        out.write(json.dumps(report.to_json(), sort_keys=True) + "\n")
    else:
        survivors = report.survivors
        # A unique answer prints bare, so table output can be diffed
        # against published tables directly.
        if len(survivors) == 1:
            _emit_module(survivors[0], args.format, out)
        else:
            out.write(f"# {len(survivors)} surviving candidates\n")
            for i, m in enumerate(survivors):
                out.write(f"# candidate {i}\n")
                _emit_module(m, args.format, out)
    return EXIT_OK if len(report.survivor_states) == 1 else EXIT_AMBIGUOUS


def _cmd_story(args, out) -> int:
    story = poly_story(_parse_poly(args.a, "--a"), _parse_poly(args.b, "--b"))
    out.write("not related by shifts\n" if story is None else f"{story}\n")
    return EXIT_OK


def _cmd_totalweight(args, out) -> int:
    out.write(str(total_weight_formula(args.k, args.p, args.q)) + "\n")
    return EXIT_OK


def _cmd_validate(args, out) -> int:
    if args.word is not None:
        word = _parse_word(args.word)
        if word.p != args.p or word.q != args.q:
            raise _CliError(
                f"word {args.word!r} has (p, q) = ({word.p}, {word.q}), "
                f"not ({args.p}, {args.q})"
            )
        poly = e1_page(args.k, word).poincare()
    else:
        path = Path(args.module)
        try:
            named = args.module not in ("-", "") and path.exists()
        except OSError:  # e.g. longer than a file name may be
            named = False
        try:
            if args.module == "-":
                raw = sys.stdin.read()
            else:
                raw = path.read_text(encoding="utf-8") if named else args.module
            raw = raw.strip()
            # Counts stay counts: no generator is built per unit of one.
            if raw.startswith("{"):
                poly = poincare_from_json(json.loads(raw))
            else:
                poly = module_poly(parse_bipoly(raw))
        except (OSError, ValueError) as exc:
            raise _CliError(f"bad module: {exc}") from exc
    diag = validate_poincare(poly, args.k, args.p, args.q)
    for name, flag in [
        ("underlying", diag.underlying_ok),
        ("fixed-set", diag.fixed_set_ok),
        ("total-weight", diag.weight_ok),
    ]:
        out.write(f"{name}: {'pass' if flag else 'FAIL'}\n")
    for msg in diag.messages:
        out.write(f"  {msg}\n")
    return EXIT_OK if diag.ok else EXIT_AMBIGUOUS


def _cmd_quotient(args, out) -> int:
    word = _word_and_k(args)
    if not (0 <= args.m < word.p):
        raise _CliError(f"m={args.m} out of range: need 0 <= m < {word.p}")
    _emit_module(e1_quotient_page(args.k, word, args.m), args.format, out)
    return EXIT_OK


def run(argv: list[str], out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if "p" in vars(args):  # every command that takes --p takes --k and --q
            try:
                check_parameters(args.k, args.p, args.q)
            except ValueError as exc:
                raise _CliError(str(exc)) from exc
        return args.handler(args, out)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
