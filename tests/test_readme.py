"""README's tables are checked against the code they describe, so that a
route, verify suite or demo change cannot leave the docs stale."""

from pathlib import Path

from besovk.kfunc import _ROUTES
from besovk.verify import SUITES

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _table(heading: str) -> list[tuple[str, ...]]:
    """The rows of the first table under the README section `## heading`,
    header and rule dropped, each cell stripped of spaces and backticks."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    return [tuple(cell.strip().strip("`") for cell in line.strip("|").split("|"))
            for line in lines[2:]]


def test_routes_table_is_the_route_table():
    want = [(case.value, label, form or "xi", "none" if band is None else f"{band:g}")
            for case, (label, form, _, _, band) in _ROUTES.items()]
    assert _table("Routes") == want


def test_verify_section_lists_every_suite():
    names = [row[0] for row in _table("Verify suites")]
    assert sorted(names) == sorted(SUITES)


def test_demos_table_lists_every_demo():
    names = [row[0] for row in _table("Demos")]
    assert sorted(names) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))
