"""Corpus statistics: how many equations are already in solved form.

An equation counts as solved when its left side is a bare variable that
does not recur on the right — such equations are definitions and need no
rewriting.  ``analyze_corpus`` reports per-file and aggregate counts over
problem files.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from .parser import ParseError, parse_problem
from .solved_form import is_solved_equation
from .terms import WordEq, nodes, record, setfield


@record
class FileStats:
    def __init__(self, path: str, equations: int, solved: int, error: str | None = None) -> None:
        setfield(self, "path", path)
        setfield(self, "equations", equations)
        setfield(self, "solved", solved)
        setfield(self, "error", error)

    def __hash__(self) -> int:
        return hash((self.path, self.equations, self.solved, self.error))

    @property
    def ratio(self) -> float:
        return self.solved / self.equations if self.equations else 0.0


@record
class CorpusStats:
    def __init__(self, per_file: tuple[FileStats, ...]) -> None:
        setfield(self, "per_file", per_file)

    def __hash__(self) -> int:
        return hash((self.per_file,))

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
