"""The package stays within the line bound of ROADMAP item 8."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hamvt"
#: The bound on ``wc -l src/hamvt/*.py`` that ROADMAP item 8 tracks.
LINE_BOUND = 2766


def test_package_within_line_bound():
    # newlines, as wc -l counts them
    lines = sum(f.read_bytes().count(b"\n") for f in SRC.glob("*.py"))
    assert 0 < lines <= LINE_BOUND, f"{lines} lines > {LINE_BOUND}"
