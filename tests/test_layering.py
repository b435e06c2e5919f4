"""Module boundaries: only linalg knows the F_2 row format, and only linalg eliminates."""

import re
from pathlib import Path

import subcat

SRC = Path(subcat.__file__).parent


def test_only_linalg_branches_on_the_field():
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(SRC.glob("*.py")) if path.name != "linalg.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"p (==|!=) 2", line)
    ]
    assert hits == []


def test_lattices_defines_no_elimination():
    """Spans in lattices come from linalg: no row arithmetic mod p, no echelon insert."""
    text = (SRC / "lattices.py").read_text()
    assert re.findall(r".*%\s*p\b.*", text) == []
    assert "_pivot_insert" not in text
