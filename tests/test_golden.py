"""Every listed report prints the bytes and exits with the code of its
golden file (see tests/golden.py, which also rewrites them).

The E8 census and the n = 5 exhaustive f2quad census come from the
session fixtures, so the two census reports walk nothing here; every
other report runs in full, in this process.
"""

import pytest

import vftk.cli as cli
from golden import DEMOS, GOLDEN, REPORTS, golden_text, render, run_report


def test_every_golden_has_a_command():
    assert {p.stem for p in GOLDEN.glob("*.out")} == set(REPORTS) | {d.stem for d in DEMOS}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_its_golden(name, request, monkeypatch):
    argv = REPORTS[name]
    if argv == ["e8-frames", "--census"]:
        census, _ = request.getfixturevalue("e8_census")
        monkeypatch.setattr(cli, "classify_e8_frames", lambda: census)
    if argv == ["f2quad", "--n", "5", "--exhaustive"]:
        rows = request.getfixturevalue("n5_exhaustive_census")
        monkeypatch.setattr(cli, "orbit_census", lambda n, exhaustive: rows)
    assert render(*run_report(argv)) == golden_text(name)
