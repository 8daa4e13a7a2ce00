"""The README's library example runs against the library as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_usage_example_runs():
    # the one python block under "## Library usage", up to the next section;
    # its asserts state the values it documents
    section = README.read_text().split("## Library usage", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_table_of_checks_is_the_verify_table():
    # README's (check, anchor, tolerance) rows, in order, are verify.CHECKS;
    # a tolerance is a RunConfig field name or a number
    from banalg.verify import CHECKS

    section = README.read_text().split("### Checks", 1)[1].split("\n#", 1)[0]
    rows = [[cell.strip().strip("`") for cell in line.split("|")[1:4]]
            for line in section.splitlines() if line.startswith("| `")]
    table = [(name, anchor, tol if tol.startswith("tol_") else float(tol))
             for name, anchor, tol in rows]
    assert table == [(name, anchor, tol) for name, (anchor, tol) in CHECKS.items()]
