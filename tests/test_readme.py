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
