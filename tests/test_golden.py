"""The text reports of ``paper-table`` and ``even-odd`` are byte-stable:
their stdout matches the committed fixtures in ``tests/data``."""

from pathlib import Path

import pytest

from ringfield.cli import main

DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.filterwarnings("ignore:tau \\* g\\^2 \\* N\\^2")
@pytest.mark.parametrize("argv, fixture", [
    (["paper-table"], "paper_table.txt"),
    (["even-odd"], "even_odd.txt"),
])
def test_stdout_matches_fixture(argv, fixture, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (DATA / fixture).read_text()
