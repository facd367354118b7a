"""Parametric words: constants, integer-parameter powers, unfixed parts.

A parametric word is a tuple of blocks (``Blocks``) and denotes a family
of concrete words.  ``Power("ab", "i")`` stands for (ab)^i with i ranging
over the nonnegative integers, and ``Unfixed("y")`` stands for an
arbitrary word substituted consistently at every occurrence of the same
part id.

The same blocks are the sides of the equations that ``solved_form``
rewrites and the words its solved forms bind: there an unfixed part is a
variable not yet solved, and ``substitute`` is how one is replaced.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Union

from .errors import UnfixedPartPresent
from .terms import record, setfield


@record
class Const:
    def __init__(self, word: str) -> None:
        if word == "":
            raise ValueError("empty constant blocks are dropped on construction")
        setfield(self, "word", word)


@record
class Power:
    """base repeated param times; the parameter ranges over 0, 1, 2, ..."""

    def __init__(self, base: str, param: str) -> None:
        if base == "":
            raise ValueError("a power needs a nonempty base")
        setfield(self, "base", base)
        setfield(self, "param", param)


@record
class Unfixed:
    def __init__(self, part: str) -> None:
        setfield(self, "part", part)


Block = Union[Const, Power, Unfixed]
Blocks = tuple[Block, ...]


def merge_blocks(blocks: Iterable[Block]) -> Blocks:
    """The normal form of a block sequence: adjacent constants merged."""
    merged: list[Block] = []
    for b in blocks:
        if isinstance(b, Const) and merged and isinstance(merged[-1], Const):
            merged[-1] = Const(merged[-1].word + b.word)
        else:
            merged.append(b)
    return tuple(merged)


def const_blocks(word: str) -> Blocks:
    """A constant word as blocks: one constant, or none for the empty word."""
    return (Const(word),) if word else ()


def substitute(blocks: Blocks, env: Mapping[str, Blocks]) -> Blocks:
    """Replace each unfixed part that ``env`` binds by its blocks, then
    normalize.  The same tuple comes back when no bound part occurs."""
    if not any(isinstance(b, Unfixed) and b.part in env for b in blocks):
        return blocks
    out: list[Block] = []
    for b in blocks:
        if isinstance(b, Unfixed) and b.part in env:
            out.extend(env[b.part])
        else:
            out.append(b)
    return merge_blocks(out)


def params_of(w: Blocks) -> list[str]:
    """Parameter ids in first-occurrence order."""
    out: list[str] = []
    for b in w:
        if isinstance(b, Power) and b.param not in out:
            out.append(b.param)
    return out


def parts_of(w: Blocks) -> list[str]:
    """Unfixed part ids in first-occurrence order."""
    out: list[str] = []
    for b in w:
        if isinstance(b, Unfixed) and b.part not in out:
            out.append(b.part)
    return out


def has_unfixed(w: Blocks) -> bool:
    return any(isinstance(b, Unfixed) for b in w)


def instantiate(
    w: Blocks,
    params: Mapping[str, int],
    parts: Mapping[str, str] | None = None,
) -> str:
    """Concrete word for given parameter values and unfixed-part words."""
    parts = parts or {}
    pieces: list[str] = []
    for b in w:
        if isinstance(b, Const):
            pieces.append(b.word)
        elif isinstance(b, Power):
            n = params[b.param]
            if n < 0:
                raise ValueError("parameters range over nonnegative integers")
            pieces.append(b.base * n)
        else:
            if b.part not in parts:
                raise UnfixedPartPresent(f"no word supplied for unfixed part {b.part!r}")
            pieces.append(parts[b.part])
    return "".join(pieces)
