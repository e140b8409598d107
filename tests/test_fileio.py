"""Round trips and error paths for the plain-text exchange formats."""

import pytest

from oracles import format_frame, format_gram
from vftk.fileio import ParseError, parse_frame, parse_gram
from vftk.frames import e8_frame_representatives
from vftk.lattices import IntegralLattice, e8_lattice


def test_gram_round_trip_plain():
    e8 = e8_lattice()
    text = format_gram(e8)
    assert "scale" not in text
    assert parse_gram(text).gram2 == e8.gram2


def test_gram_round_trip_halved():
    odd = IntegralLattice(((1, 0), (0, 3)))  # half-integer form
    text = format_gram(odd)
    assert "scale 1/2" in text.splitlines()[1]
    assert parse_gram(text).gram2 == odd.gram2


def test_gram_rank_zero():
    assert parse_gram("0\n").rank == 0
    assert parse_gram(format_gram(IntegralLattice(()))).rank == 0


def test_gram_comments_and_blanks():
    text = "# a comment\n\n2\n# the rows\n2 1\n\n1 2\n"
    assert parse_gram(text).gram2 == ((4, 2), (2, 4))


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "x",
        "2\n1 0",
        "2\n1 0 0\n0 1 0",
        "2\n1 a\n0 1",
        "2\n2 1\n0 2",  # not symmetric
        "-1",
    ],
)
def test_gram_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_gram(bad)


def test_frame_round_trip():
    e8 = e8_lattice()
    frame = e8_frame_representatives()[3]
    text = format_frame(frame)
    parsed = parse_frame(text, e8)
    assert parsed.vectors == frame.vectors


def test_frame_parse_errors():
    e8 = e8_lattice()
    with pytest.raises(ParseError):
        parse_frame("", e8)
    with pytest.raises(ParseError):
        parse_frame("1\n1 0 0 0 0 0 0", e8)  # wrong width
    with pytest.raises(ParseError):
        parse_frame("1\n1/2 0 0 0 0 0 0 0", e8)  # not integral
    for entry in ("x", "1/0"):  # not a number
        with pytest.raises(ParseError):
            parse_frame(f"1\n{entry} 0 0 0 0 0 0 0", e8)
    # frame rows are integer rows: a frame vector written as fractions is refused
    rows = format_frame(e8_frame_representatives()[2]).splitlines()
    halves = [rows[0]] + [" ".join(f"{2 * int(x)}/2" for x in row.split()) for row in rows[1:]]
    with pytest.raises(ParseError):
        parse_frame("\n".join(halves), e8)
    # right shape but not a frame vector (norm != 4)
    with pytest.raises(ParseError):
        parse_frame("8\n" + "\n".join("1 0 0 0 0 0 0 0" for _ in range(8)), e8)

