"""The README's module layout and list of verification checks stay in step
with the code."""

import json
import re
from pathlib import Path

from lanslab.checks import CHECKS

ROOT = Path(__file__).resolve().parent.parent


def _readme_check_ids():
    """The backquoted ids of the first paragraph of 'Verification checks'."""
    section = (ROOT / "README.md").read_text().split("## Verification checks\n", 1)[1]
    return re.findall(r"`(\w+)`", section.strip().split("\n\n", 1)[0])


def test_readme_lists_every_check_in_order():
    assert _readme_check_ids() == list(CHECKS)


def test_shipped_suites_run_every_check():
    shipped = set()
    for name in ("verify_default.json", "verify_extended.json"):
        suite = json.loads((ROOT / "configs" / name).read_text())
        shipped.update(entry["id"] for entry in suite["checks"])
    assert shipped == set(CHECKS)


def test_readme_layout_lists_every_module():
    block = (ROOT / "README.md").read_text().split("## Layout\n", 1)[1].split("```")[1]
    listed = set(re.findall(r"^  (\w+)\.py ", block, flags=re.M))
    modules = {p.stem for p in (ROOT / "src" / "lanslab").glob("*.py")}
    assert listed == modules - {"__init__", "__main__"}
