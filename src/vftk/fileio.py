"""Plain-text exchange formats for Gram matrices and frames.

Gram files: first line the rank, then rank rows of rank integers; an
optional second line ``scale 1/2`` marks the entries as doubled inner
products (allowing exact half-integer forms).  Frame files: first line
the number of sign pairs, then one integer coordinate row per pair in
the lattice basis.

Blank lines and ``#`` comments are ignored everywhere.
"""

from .frames import LatticeFrame
from .lattices import IntegralLattice

__all__ = [
    "ParseError",
    "parse_gram",
    "parse_frame",
    "load_gram",
    "load_frame",
]


class ParseError(ValueError):
    """An exchange file does not follow its format."""


def _content_lines(text):
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append(line)
    return lines


def _int_row(line, width, what):
    toks = line.split()
    if len(toks) != width:
        raise ParseError(f"{what}: expected {width} entries, found {len(toks)} in {line!r}")
    try:
        return tuple(int(t) for t in toks)
    except ValueError:
        raise ParseError(f"{what}: non-integer entry in {line!r}") from None


def parse_gram(text):
    """IntegralLattice from Gram-file text."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty Gram file")
    try:
        rank = int(lines[0])
    except ValueError:
        raise ParseError(f"bad rank line {lines[0]!r}") from None
    if rank < 0:
        raise ParseError("rank must be nonnegative")
    body = lines[1:]
    halved = bool(body) and body[0].split() == ["scale", "1/2"]
    if halved:
        body = body[1:]
    if len(body) != rank:
        raise ParseError(f"expected {rank} matrix rows, found {len(body)}")
    rows = tuple(_int_row(ln, rank, "Gram row") for ln in body)
    try:
        if halved:
            return IntegralLattice(rows)
        return IntegralLattice.from_gram(rows)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_frame(text, lattice):
    """LatticeFrame from frame-file text (coordinates in the lattice basis)."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty frame file")
    try:
        pairs = int(lines[0])
    except ValueError:
        raise ParseError(f"bad pair-count line {lines[0]!r}") from None
    if len(lines) != 1 + pairs:
        raise ParseError(f"expected {pairs} frame rows, found {len(lines) - 1}")
    vectors = [_int_row(ln, lattice.rank, "frame row") for ln in lines[1:]]
    try:
        return LatticeFrame(lattice, vectors)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def load_gram(path):
    with open(path, encoding="utf-8") as fh:
        return parse_gram(fh.read())


def load_frame(path, lattice):
    with open(path, encoding="utf-8") as fh:
        return parse_frame(fh.read(), lattice)
