"""Tests for corpus statistics over problem files, and for the names the
traced benchmark patches."""

import wordeq.automata
import wordeq.normalize
from helpers import generate_corpus  # also puts perfbench/ on the import path
from wordeq.corpus import CorpusStats, FileStats, analyze_corpus, analyze_file

MIXED = """\
(set-alphabet "ab")
(declare-const X String)
(declare-const Y String)
(declare-const Z String)
(assert (= X (str.++ "ab" Y)))
(assert (= (str.++ "ab" Z) (str.++ Z "ba")))
(check-sat)
"""


def test_analyze_file_counts_solved_definitions(tmp_path):
    p = tmp_path / "mixed.eq"
    p.write_text(MIXED)
    stats = analyze_file(p)
    assert stats == FileStats(path=str(p), equations=2, solved=1)
    assert stats.ratio == 0.5


def test_analyze_file_descends_into_connectives(tmp_path):
    p = tmp_path / "nested.eq"
    p.write_text(
        '(set-alphabet "ab")\n'
        "(declare-const X String)\n"
        "(declare-const Y String)\n"
        '(assert (or (= X "a") (= Y (str.++ X "b"))))\n'
        '(assert (not (= X (str.++ "a" X))))\n'
        "(assert (<= (str.len X) 3))\n"
        "(check-sat)\n"
    )
    stats = analyze_file(p)
    # Both disjuncts and the negated equation count; the length atom does not.
    assert stats.equations == 3
    assert stats.solved == 2  # X = "a" and Y = X b; X = aX recurs on the right


def test_analyze_file_records_errors(tmp_path):
    bad = tmp_path / "bad.eq"
    bad.write_text("(assert (= X Y))\n")  # no alphabet, no declarations
    stats = analyze_file(bad)
    assert stats.error is not None
    assert stats.equations == 0 and stats.solved == 0
    assert stats.ratio == 0.0

    missing = analyze_file(tmp_path / "absent.eq")
    assert missing.error is not None


def test_corpus_aggregation(tmp_path):
    a = tmp_path / "a.eq"
    a.write_text(MIXED)
    b = tmp_path / "b.eq"
    b.write_text(
        '(set-alphabet "ab")\n'
        "(declare-const X String)\n"
        "(declare-const Y String)\n"
        "(assert (= Y X))\n"
        "(check-sat)\n"
    )
    bad = tmp_path / "bad.eq"
    bad.write_text("garbage\n")
    stats = analyze_corpus([a, b, bad])
    assert stats.files == 3
    assert stats.failed_files == 1
    assert stats.equations_total == 3
    assert stats.equations_solved == 2
    assert stats.ratio == 2 / 3


def test_empty_corpus():
    stats = analyze_corpus([])
    assert stats == CorpusStats(per_file=())
    assert stats.files == 0 and stats.ratio == 0.0


def test_generate_corpus_hits_the_requested_fraction(tmp_path):
    paths = generate_corpus(tmp_path / "corpus", n_files=40, seed=7)
    assert len(paths) == 40
    stats = analyze_corpus(paths)
    assert stats.failed_files == 0
    assert all(f.equations in (5, 10, 15) for f in stats.per_file)
    # Per-file counts are multiples of five, so 0.8 is hit exactly.
    assert stats.ratio == 0.8


def test_generate_corpus_is_deterministic(tmp_path):
    first = generate_corpus(tmp_path / "one", n_files=5, seed=3)
    second = generate_corpus(tmp_path / "two", n_files=5, seed=3)
    for p1, p2 in zip(first, second):
        assert p1.read_text() == p2.read_text()
    third = generate_corpus(tmp_path / "three", n_files=5, seed=4)
    assert any(p1.read_text() != p3.read_text() for p1, p3 in zip(first, third))


def test_generate_corpus_other_fractions(tmp_path):
    paths = generate_corpus(tmp_path / "none", n_files=10, seed=1, solved_fraction=0.0)
    assert analyze_corpus(paths).ratio == 0.0
    paths = generate_corpus(tmp_path / "all", n_files=10, seed=1, solved_fraction=1.0)
    assert analyze_corpus(paths).ratio == 1.0


def test_benchmark_patch_table_names_exist():
    # perfbench/spans.py wraps pipeline functions by name in the modules
    # that call them, so a rename there has to fail here
    from spans import NORMALIZE_WRAPPED, WRAPPED

    for name, (_, module, _) in WRAPPED.items():
        assert callable(getattr(module, name, None)), (module.__name__, name)
    for name in NORMALIZE_WRAPPED:
        assert callable(getattr(wordeq.normalize, name, None)), name
    assert callable(wordeq.automata.regex_to_dfa.cache_info)
