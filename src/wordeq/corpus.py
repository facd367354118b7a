"""Corpus statistics: how many equations are already in solved form.

An equation counts as solved when its left side is a bare variable that
does not recur on the right — such equations are definitions and need no
rewriting.  ``analyze_corpus`` reports per-file and aggregate counts over
problem files; ``generate_corpus`` writes a synthetic corpus with a known
solved fraction so the pipeline can be exercised end to end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .parser import ParseError, parse_problem
from .printer import print_problem
from .solved_form import is_solved_equation
from .terms import Formula, Lit, StrTerm, Var, WordEq, concat, nodes


@dataclass(frozen=True)
class FileStats:
    path: str
    equations: int
    solved: int
    error: str | None = None

    @property
    def ratio(self) -> float:
        return self.solved / self.equations if self.equations else 0.0


@dataclass(frozen=True)
class CorpusStats:
    per_file: tuple[FileStats, ...]

    @property
    def files(self) -> int:
        return len(self.per_file)

    @property
    def failed_files(self) -> int:
        return sum(1 for f in self.per_file if f.error is not None)

    @property
    def equations_total(self) -> int:
        return sum(f.equations for f in self.per_file)

    @property
    def equations_solved(self) -> int:
        return sum(f.solved for f in self.per_file)

    @property
    def ratio(self) -> float:
        total = self.equations_total
        return self.equations_solved / total if total else 0.0


def analyze_file(path: str | Path) -> FileStats:
    try:
        problem = parse_problem(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, ParseError) as exc:
        return FileStats(path=str(path), equations=0, solved=0, error=str(exc))
    eqs = [n for phi in problem.asserts for n in nodes(phi) if isinstance(n, WordEq)]
    solved = sum(map(is_solved_equation, eqs))
    return FileStats(path=str(path), equations=len(eqs), solved=solved)


def analyze_corpus(paths: Sequence[str | Path]) -> CorpusStats:
    return CorpusStats(per_file=tuple(analyze_file(p) for p in paths))


# ---------------------------------------------------------------------------
# synthetic corpus


def _random_term(rng: random.Random, vars_: list[str], avoid: str | None) -> StrTerm:
    """Short concatenation of constants and variables other than ``avoid``."""
    pool = [v for v in vars_ if v != avoid]
    parts: list[StrTerm] = []
    for _ in range(rng.randint(1, 3)):
        if pool and rng.random() < 0.4:
            parts.append(Var(rng.choice(pool)))
        else:
            parts.append(Lit("".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))))
    return concat(*parts)


def _solved_equation(rng: random.Random, vars_: list[str]) -> WordEq:
    lhs = rng.choice(vars_)
    return WordEq(Var(lhs), _random_term(rng, vars_, avoid=lhs))


def _unsolved_equation(rng: random.Random, vars_: list[str]) -> WordEq:
    x = rng.choice(vars_)
    if rng.random() < 0.5:
        # Compound left side.
        lhs = concat(Lit(rng.choice("ab")), Var(x))
        return WordEq(lhs, _random_term(rng, vars_, avoid=None))
    # The left-side variable recurs on the right.
    rhs = concat(Lit(rng.choice("ab")), Var(x), Lit(rng.choice("ab")))
    return WordEq(Var(x), rhs)


def generate_corpus(
    out_dir: str | Path, n_files: int = 1000, seed: int = 2024, solved_fraction: float = 0.8
) -> list[Path]:
    """Write problem files whose aggregate solved-equation ratio is exact.

    Each file holds a multiple-of-five equation count so the per-file
    solved share hits the fraction with no rounding drift.
    """
    if not 0.0 <= solved_fraction <= 1.0:
        raise ValueError(f"solved_fraction {solved_fraction} is not between 0 and 1")
    rng = random.Random(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(n_files):
        n = rng.choice((5, 10, 15))
        k = round(solved_fraction * n)
        vars_ = [f"X{j}" for j in range(rng.randint(2, 4))]
        eqs: list[Formula] = [_solved_equation(rng, vars_) for _ in range(k)]
        eqs += [_unsolved_equation(rng, vars_) for _ in range(n - k)]
        rng.shuffle(eqs)
        text = print_problem("ab", vars_, (), eqs, check_sat=False)
        path = out / f"{i:04d}.eq"
        path.write_text(text + "\n")
        paths.append(path)
    return paths
