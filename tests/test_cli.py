"""Tests for the command-line interface."""

import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from wordeq import cli, errors, solver
from wordeq.cli import main
from wordeq.parser import MAX_DEPTH

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_sat_prints_model(capsys):
    code, out, _ = run(capsys, "solve", str(SAMPLES / "conjugate.eq"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "sat"
    m = re.search(r'\(define-fun X \(\) String "([ab]*)"\)', out)
    assert m is not None
    assert m.group(1) in ("aba", "ababa")


def test_solve_length_formula_over_the_empty_alphabet(capsys, tmp_path):
    # X = "" and m = -1 satisfy it; a model with |X| > 0 has no words
    path = tmp_path / "empty.smt2"
    path.write_text(
        '(set-alphabet "")\n'
        "(declare-const X String)\n"
        "(declare-const m Int)\n"
        "(assert (<= (+ (* -1 (str.len X)) (* 3 m)) -2))\n"
        "(check-sat)\n"
    )
    code, out, _ = run(capsys, "solve", str(path))
    assert (code, out) == (0, "sat\n")


def test_opposite_inequalities_are_refuted_as_one_equality(capsys, tmp_path, monkeypatch):
    # the first two atoms say 2|X0| - 3|X1| - 2|X2| = -3, and the third
    # pins |X1| to 0, which leaves an odd bound for 2(|X0| - |X2|)
    monkeypatch.setattr(errors, "WORK_BUDGET", 5)
    path = tmp_path / "paired.eq"
    path.write_text(
        '(set-alphabet "ab")\n'
        "(declare-const X0 String)\n"
        "(declare-const X1 String)\n"
        "(declare-const X2 String)\n"
        "(assert (<= (+ (* 2 (str.len X0)) (* -3 (str.len X1)) (* -2 (str.len X2))) -3))\n"
        "(assert (<= (+ (* -2 (str.len X0)) (* 3 (str.len X1)) (* 2 (str.len X2))) 3))\n"
        "(assert (<= (* 2 (str.len X1)) 1))\n"
        "(check-sat)\n"
    )
    code, out, _ = run(capsys, "solve", str(path))
    assert (code, out) == (1, "unsat\n")


@pytest.mark.parametrize(
    "bound",
    ["(<= n -9223372036854775808)", "(<= (* -9223372036854775808 n) -9223372036854775808)"],
)
def test_solve_decides_the_least_64_bit_integer(capsys, tmp_path, bound):
    path = tmp_path / "least.eq"
    path.write_text(f'(set-alphabet "a")\n(declare-const n Int)\n(assert {bound})\n(check-sat)\n')
    code, out, _ = run(capsys, "solve", str(path))
    assert (code, out) == (0, "sat\n")


@pytest.mark.parametrize(
    "declare, formula, coefficient",
    [
        # the flipped negation scales -2^63 to 2^63, and m keeps the gcd at 1
        ("(declare-const n Int)", "(not (<= (* -9223372036854775808 n) (* -3 m)))", 2**63),
        # the length of X X is 2 |X|, and m keeps the gcd at 1
        (
            "(declare-const X String)",
            "(<= (* 9223372036854775807 (str.len (str.++ X X))) m)",
            2**64 - 2,
        ),
    ],
)
def test_a_row_past_64_bits_is_unsupported(capsys, tmp_path, declare, formula, coefficient):
    path = tmp_path / "overflow.eq"
    path.write_text(
        f'(set-alphabet "ab")\n{declare}\n(declare-const m Int)\n(assert {formula})\n(check-sat)\n'
    )
    code, out, _ = run(capsys, "solve", str(path))
    assert (code, out) == (2, f"unsupported: coefficient {coefficient} exceeds 64 bits\n")


@pytest.mark.parametrize(
    "declare, formula, model",
    [
        # 2^63 n <= -1 divided by its gcd is n <= -1
        ("(declare-const n Int)", "(not (<= (* -9223372036854775808 n) 0))",
         "(define-fun n () Int -1)"),
        # (2^64 - 2) |X| <= 5 divided by its gcd is |X| <= 0
        ("(declare-const X String)", "(<= (* 9223372036854775807 (str.len (str.++ X X))) 5)",
         '(define-fun X () String "")'),
    ],
)
def test_a_row_within_64_bits_after_its_gcd_is_decided(capsys, tmp_path, declare, formula, model):
    path = tmp_path / "gcd.eq"
    path.write_text(
        f'(set-alphabet "ab")\n{declare}\n(assert {formula})\n(check-sat)\n(get-model)\n'
    )
    code, out, _ = run(capsys, "solve", str(path))
    assert (code, out) == (0, f"sat\n(model\n  {model}\n)\n")


def test_a_row_past_64_bits_blocks_only_its_disjunct(capsys, tmp_path):
    path = tmp_path / "overflow.eq"
    path.write_text(
        '(set-alphabet "ab")\n(declare-const X String)\n(declare-const Y String)\n'
        "(assert (or (<= (+ (* 9223372036854775807 (str.len (str.++ X X))) (str.len Y)) 5)"
        ' (= X "a")))\n'
        "(check-sat)\n(get-model)\n"
    )
    code, out, _ = run(capsys, "solve", str(path))
    assert (code, out) == (
        0,
        'sat\n(model\n  (define-fun X () String "a")\n  (define-fun Y () String "")\n)\n',
    )


def test_solve_unsat(capsys):
    code, out, _ = run(capsys, "solve", str(SAMPLES / "chained_unsat.eq"))
    assert code == 1
    assert out == "unsat\n"


def test_solve_unsupported(capsys):
    code, out, _ = run(capsys, "solve", str(SAMPLES / "crossed.eq"))
    assert code == 2
    assert out.startswith("unsupported: ")


def test_solve_missing_file(capsys):
    code, out, err = run(capsys, "solve", "/nonexistent/problem.eq")
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


def test_input_that_is_not_utf8_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.eq"
    bad.write_bytes(b'\xff(set-alphabet "ab")\n')
    for argv in (
        ["solve", str(bad)],
        ["oracle", str(bad), "--max-len", "2"],
        ["encode-2cm", str(bad), "--input", "a"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert out == ""
        assert err.startswith("error:") and "utf-8" in err, argv
        assert str(bad) in err, argv


def test_non_ascii_digits_are_symbols_not_integers(capsys, tmp_path):
    # "²" passes str.isdigit but not int(); it is an undeclared name, not a crash
    path = tmp_path / "digits.eq"
    path.write_text('(set-alphabet "a")\n(declare-const n Int)\n(assert (<= n \u00b2))\n')
    code, out, err = run(capsys, "solve", str(path))
    assert code == 3
    assert out == ""
    assert err == "error: line 3, column 15: undeclared variable \u00b2\n"


def test_crash_exits_4_not_unsat(capsys, monkeypatch):
    def crash(phi, alphabet):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "check_sat", crash)
    code, out, err = run(capsys, "solve", str(SAMPLES / "conjugate.eq"))
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: RuntimeError: boom")
    assert "Traceback" in err


def test_a_model_that_fails_its_recheck_exits_4(capsys, monkeypatch):
    # every Sat is evaluated against the formula before it is reported; a
    # model that fails is an internal error, never a verdict
    monkeypatch.setattr(solver, "eval_formula", lambda *a: False)
    code, out, err = run(capsys, "solve", str(SAMPLES / "conjugate.eq"))
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: AssertionError: the model ")
    assert "does not satisfy the formula" in err


NO_ASSERT = '(set-alphabet "ab")\n(declare-const X String)\n(declare-const n Int)\n(check-sat)\n'
DEFAULT_MODEL = '(model\n  (define-fun X () String "")\n  (define-fun n () Int 0)\n)\n'


def test_solve_without_asserts_is_sat_with_the_default_model(capsys, tmp_path):
    path = tmp_path / "none.eq"
    path.write_text(NO_ASSERT)
    assert run(capsys, "solve", str(path)) == (0, "sat\n", "")
    path.write_text(NO_ASSERT + "(get-model)\n")
    assert run(capsys, "solve", str(path)) == (0, "sat\n" + DEFAULT_MODEL, "")


def test_oracle_without_asserts_is_sat_with_the_default_model(capsys, tmp_path):
    path = tmp_path / "none.eq"
    path.write_text(NO_ASSERT)
    assert run(capsys, "oracle", str(path), "--max-len", "2") == (0, "sat\n" + DEFAULT_MODEL, "")


def _nested_problem(path: Path, depth: int) -> Path:
    """A problem whose assert nests ``depth`` parentheses deep, alternating
    ``and`` and ``or`` so that no layer flattens the nesting away."""
    body = '(= X "a")'
    for i in range(depth - 2):
        body = f'({"and" if i % 2 else "or"} (= X "a") {body})'
    path.write_text(
        f'(set-alphabet "ab")\n(declare-const X String)\n(assert {body})\n(check-sat)\n'
    )
    return path


def test_nesting_at_the_limit_solves(capsys, tmp_path):
    code, out, _ = run(capsys, "solve", str(_nested_problem(tmp_path / "deep.eq", MAX_DEPTH)))
    assert code == 0
    assert out == "sat\n"


def test_nesting_past_the_limit_exits_3(capsys, tmp_path):
    deep = _nested_problem(tmp_path / "deep.eq", MAX_DEPTH + 1)
    code, out, err = run(capsys, "solve", str(deep))
    assert code == 3
    assert out == ""
    # the innermost connective holds the first parenthesis one level too deep
    col = deep.read_text().splitlines()[2].index('(= X "a") (= X "a")') + 1
    assert err == f"error: line 3, column {col}: nesting deeper than {MAX_DEPTH}\n"


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


def test_expansions_fail_closed_before_they_allocate(tmp_path):
    header = '(set-alphabet "ab")\n' + "".join(
        f"(declare-const {v}{i} String)\n" for v in "XYZ" for i in range(12)
    )

    def block(v):  # an or of 9 ands of 4 ors of 10 atoms: 9 * 10^4 disjuncts
        ors = " ".join(
            "(or " + " ".join(f'(= {v}{i} "{"a" * n}")' for n in range(10)) + ")"
            for i in range(4)
        )
        return f"(or {' '.join([f'(and {ors})'] * 9)})"

    def solve(text, budget):
        path = tmp_path / "problem.eq"
        path.write_text(header + text + "\n(check-sat)\n")
        # the work budget is read at call time, so the child sets its own
        child = (
            "import sys; from wordeq import errors; from wordeq.cli import main; "
            f"errors.WORK_BUDGET = {budget}; sys.exit(main(sys.argv[1:]))"
        )
        return subprocess.run(
            [sys.executable, "-c", child, "solve", str(path)],
            capture_output=True,
            text=True,
            preexec_fn=limit_memory,
            timeout=10,
        )

    # 8.1 * 10^9 conjunctions, of which the walk decides the first
    done = solve(f"(assert (and {block('X')} {block('Y')}))", errors.WORK_BUDGET)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "sat"
    # twelve negated equations: 4^12 positive branches, each of them blocked,
    # so the walk goes on until the budget runs out (seconds at the default
    # budget; a smaller one keeps the test short)
    negs = " ".join(f'(not (= (str.++ Z{i} "ab") (str.++ "ba" Z{i})))' for i in range(12))
    done = solve(f"(assert (and {negs}))", 5000)
    assert done.returncode == 2, done.stderr
    assert done.stdout == "unsupported: work budget exhausted in normalize\n"


def test_usage_errors_exit_3(capsys):
    assert main([]) == 3
    capsys.readouterr()
    assert main(["frobnicate"]) == 3
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_negative_bounds_are_usage_errors(capsys):
    conjugate, incdec = str(SAMPLES / "conjugate.eq"), str(SAMPLES / "incdec.2cm")
    for argv in (
        ["oracle", conjugate, "--max-len", "-1"],
        ["oracle", conjugate, "--max-len", "3", "--max-int", "-1"],
        ["encode-2cm", incdec, "--input", "0", "--check-bound", "-2"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert out == ""
        assert "not a nonnegative integer" in err


def test_bounds_are_ascii_digits(capsys):
    # Arabic-Indic three and a fullwidth one are decimal digits to Python,
    # but not the digits a problem file reads
    conjugate = str(SAMPLES / "conjugate.eq")
    for bound in ("\u0663", "\uff11"):
        code, out, err = run(capsys, "oracle", conjugate, "--max-len", bound)
        assert code == 3, bound
        assert out == ""
        assert "not a nonnegative integer" in err


def test_oracle_finds_bounded_model(capsys):
    code, out, _ = run(capsys, "oracle", str(SAMPLES / "conjugate.eq"), "--max-len", "5")
    assert code == 0
    assert out.splitlines()[0] == "sat"
    assert '(define-fun X () String "aba")' in out


def test_oracle_reports_no_model(capsys):
    code, out, _ = run(
        capsys, "oracle", str(SAMPLES / "chained_unsat.eq"), "--max-len", "4"
    )
    assert code == 1
    assert out == "no model up to length 4\n"


def test_analyze_table_and_tsv(capsys, tmp_path):
    good = tmp_path / "good.eq"
    good.write_text(
        '(set-alphabet "ab")\n(declare-const X String)\n'
        '(assert (= X "ab"))\n(check-sat)\n'
    )
    bad = tmp_path / "bad.eq"
    bad.write_text("nonsense\n")

    code, out, _ = run(capsys, "analyze", str(tmp_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("total: 2 files (1 failed), 1 equations, 1 solved")
    assert any("error:" in ln for ln in lines)

    code, out, _ = run(capsys, "analyze", "--tsv", str(good), str(bad))
    assert code == 0
    rows = [ln.split("\t") for ln in out.splitlines()]
    assert len(rows) == 2
    assert rows[0] == [str(good), "1", "1", "1.0000"]
    assert rows[1][1:] == ["0", "0", "0.0000"]


def test_analyze_lists_a_file_that_is_not_utf8_as_failed(capsys, tmp_path):
    (tmp_path / "good.eq").write_text(
        '(set-alphabet "ab")\n(declare-const X String)\n'
        '(assert (= X "ab"))\n(check-sat)\n'
    )
    bad = tmp_path / "bad.eq"
    bad.write_bytes(b"\xff\n")
    code, out, _ = run(capsys, "analyze", str(tmp_path))
    assert code == 0
    lines = out.splitlines()
    assert any(ln.startswith(str(bad)) and "error:" in ln and "utf-8" in ln for ln in lines)
    assert "(1 failed)" in lines[-1]


def test_encode_2cm_with_counterexample(capsys):
    code, out, _ = run(
        capsys,
        "encode-2cm",
        str(SAMPLES / "incdec.2cm"),
        "--input",
        "0",
        "--check-bound",
        "4",
    )
    assert code == 0
    lines = out.splitlines()
    assert "; letter 0 = state q0, head 0" in lines
    assert "; letter 2 = state qf, head 0" in lines
    assert "; counter letters: b c; alphabet 012bc" in lines
    sentence = next(ln for ln in lines if ln.startswith("(forall"))
    assert sentence.startswith("(forall (S) (exists (S1 S2 S3 S4 U V) ")
    assert lines[-1] == '; counterexample "01b2"'


def test_encode_2cm_check_that_runs_out(capsys, monkeypatch):
    # the sentence is printed before the check runs out of work units
    monkeypatch.setattr(errors, "WORK_BUDGET", 10)
    code, out, _ = run(
        capsys, "encode-2cm", str(SAMPLES / "incdec.2cm"), "--input", "0", "--check-bound", "4"
    )
    assert code == 2
    lines = out.splitlines()
    assert lines[-2].startswith("(forall (S) (exists (S1 S2 S3 S4 U V) ")
    assert lines[-1] == "unsupported: work budget exhausted in propagate"


def test_encode_2cm_without_check(capsys):
    code, out, _ = run(capsys, "encode-2cm", str(SAMPLES / "incdec.2cm"), "--input", "0")
    assert code == 0
    assert "counterexample" not in out


# reads a and accepts with its head on the second letter, so it accepts
# no input: a run accepts only with its head back on the first letter
AB_MACHINE = "states: q0 qf\ninput-alphabet: a b\ninitial: q0\nfinal: qf\nq0 a Z Z -> qf in R\n"


def test_encode_2cm_input_letters_may_be_unseparated(capsys, tmp_path):
    path = tmp_path / "ab.2cm"
    path.write_text(AB_MACHINE)
    code, out, _ = run(capsys, "encode-2cm", str(path), "--input", "ab")
    assert code == 0
    assert "; letter 3 = state qf, head 1" in out.splitlines()
    assert run(capsys, "encode-2cm", str(path), "--input", "a b") == (0, out, "")
    assert run(capsys, "encode-2cm", str(path), "--input", "ba")[1] != out


def test_encode_2cm_check_without_counterexample(capsys, tmp_path):
    path = tmp_path / "ab.2cm"
    path.write_text(AB_MACHINE)
    code, out, _ = run(capsys, "encode-2cm", str(path), "--input", "a b", "--check-bound", "4")
    assert code == 0
    assert out.splitlines()[-1] == "; no counterexample up to length 4"


def test_encode_2cm_rejects_foreign_input(capsys):
    code, _, err = run(capsys, "encode-2cm", str(SAMPLES / "incdec.2cm"), "--input", "7")
    assert code == 3
    assert "error:" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wordeq", "solve", str(SAMPLES / "conjugate.eq")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "sat"
