"""Command-line entry point.

Subcommands: ``solve`` decides a problem file, ``oracle`` runs the
brute-force bounded search on one, ``analyze`` reports solved-form counts
over a corpus, and ``encode-2cm`` prints the universal sentence for a
two-counter machine and input word.

Exit codes: 0 sat / success, 1 unsat (or no bounded model), 2 unsupported
or out of budget, 3 usage or input errors, 4 internal error (a crash,
reported with its traceback, never mistaken for a verdict).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from .corpus import analyze_corpus
from .errors import ResourceExhausted, WordeqError
from .oracle import NoModelUpTo, SatWith, brute_force_sat
from .parser import parse_2cm, parse_problem
from .printer import print_formula, print_model
from .solver import Sat, Unsat, Unsupported, check_sat
from .twocounter import Counterexample, bounded_validity_check, encode


def _full_model(problem, strings: dict[str, str], ints: dict[str, int]) -> str:
    """Model text covering every declared variable, defaults filled in."""
    return print_model(
        {v: strings.get(v, "") for v in problem.str_vars},
        {v: ints.get(v, 0) for v in problem.int_vars},
    )


def _read(path: str) -> str:
    """The file's text; bytes that are not UTF-8 are an input error naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise WordeqError(f"{path}: {exc}") from None


def _cmd_solve(args: argparse.Namespace) -> int:
    problem = parse_problem(_read(args.file))
    phi = problem.conjunction()
    if phi is None:
        print("sat")
        if problem.get_model:
            print(_full_model(problem, {}, {}))
        return 0
    verdict = check_sat(phi, problem.alphabet)
    if isinstance(verdict, Sat):
        print("sat")
        if problem.get_model:
            print(_full_model(problem, verdict.strings, verdict.ints))
        return 0
    if isinstance(verdict, Unsat):
        print("unsat")
        return 1
    assert isinstance(verdict, Unsupported)
    print(f"unsupported: {verdict.reason}")
    return 2


def _cmd_oracle(args: argparse.Namespace) -> int:
    problem = parse_problem(_read(args.file))
    phi = problem.conjunction()
    if phi is None:
        print("sat")
        print(_full_model(problem, {}, {}))
        return 0
    verdict = brute_force_sat(phi, problem.alphabet, args.max_len, args.max_int)
    if isinstance(verdict, SatWith):
        print("sat")
        print(_full_model(problem, verdict.model.strings, verdict.model.ints))
        return 0
    assert isinstance(verdict, NoModelUpTo)
    print(f"no model up to length {verdict.bound}")
    return 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    files: list[Path] = []
    for raw in args.paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.eq")))
        else:
            files.append(p)
    stats = analyze_corpus(files)
    if args.tsv:
        for f in stats.per_file:
            print(f"{f.path}\t{f.equations}\t{f.solved}\t{f.ratio:.4f}")
        return 0
    width = max((len(f.path) for f in stats.per_file), default=4)
    print(f"{'file':<{width}}  {'eqs':>5}  {'solved':>6}  {'ratio':>6}")
    for f in stats.per_file:
        if f.error is not None:
            print(f"{f.path:<{width}}  error: {f.error}")
        else:
            print(f"{f.path:<{width}}  {f.equations:>5}  {f.solved:>6}  {f.ratio:>6.4f}")
    print(
        f"total: {stats.files} files ({stats.failed_files} failed), "
        f"{stats.equations_total} equations, {stats.equations_solved} solved, "
        f"ratio {stats.ratio:.4f}"
    )
    return 0


def _split_input(raw: str, alphabet: tuple[str, ...]) -> list[str]:
    tokens = raw.replace(",", " ").split()
    if all(t in alphabet for t in tokens):
        return tokens
    if all(ch in alphabet for ch in raw):
        return list(raw)
    raise WordeqError(f"input {raw!r} is not over the machine alphabet {alphabet}")


def _cmd_encode_2cm(args: argparse.Namespace) -> int:
    machine = parse_2cm(_read(args.file))
    word = _split_input(args.input, machine.input_alphabet)
    sentence = encode(machine, word)
    for letter, state, head in sentence.legend:
        print(f"; letter {letter} = state {state}, head {head}")
    print(f"; counter letters: b c; alphabet {sentence.alphabet}")
    exists = " ".join(sentence.existentials)
    print(f"(forall (S) (exists ({exists}) {print_formula(sentence.body)}))")
    if args.check_bound is not None:
        outcome = bounded_validity_check(sentence, args.check_bound)
        if isinstance(outcome, Counterexample):
            print(f'; counterexample "{outcome.word}"')
        else:
            print(f"; no counterexample up to length {outcome.max_len}")
    return 0


def _natural(text: str) -> int:
    """A bound given on the command line: a nonnegative integer in ASCII
    digits, as in problem files."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"not a nonnegative integer: {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordeq",
        description="Word-equation solving, bounded oracles, corpus analysis, "
        "and two-counter-machine sentence encoding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="decide a problem file")
    p_solve.add_argument("file")
    p_solve.set_defaults(fn=_cmd_solve)

    p_oracle = sub.add_parser("oracle", help="brute-force bounded search")
    p_oracle.add_argument("file")
    p_oracle.add_argument("--max-len", type=_natural, required=True)
    p_oracle.add_argument(
        "--max-int", type=_natural, default=8, metavar="M", help="try the integers -M to M"
    )
    p_oracle.set_defaults(fn=_cmd_oracle)

    p_analyze = sub.add_parser("analyze", help="solved-form counts over files")
    p_analyze.add_argument("paths", nargs="+")
    p_analyze.add_argument("--tsv", action="store_true")
    p_analyze.set_defaults(fn=_cmd_analyze)

    p_enc = sub.add_parser("encode-2cm", help="emit the sentence for a machine")
    p_enc.add_argument("file")
    p_enc.add_argument("--input", required=True)
    p_enc.add_argument("--check-bound", type=_natural, default=None)
    p_enc.set_defaults(fn=_cmd_encode_2cm)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 3
    try:
        return args.fn(args)
    except ResourceExhausted as exc:
        print(f"unsupported: {exc}")
        return 2
    except (WordeqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
