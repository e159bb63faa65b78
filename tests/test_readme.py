"""README's "Library" example and CSV columns match the code."""

import re
from pathlib import Path

from rmproduct import sim

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block under the Library heading"
    namespace = {}
    exec(compile(block.group(1), f"{README}:Library", "exec"), namespace)
    assert 0.0 <= namespace["point"].bler <= 1.0


def test_csv_columns_line_matches_the_code():
    lines = README.read_text(encoding="utf-8").splitlines()
    columns = lines[lines.index("CSV columns:") + 1]
    assert columns == f"`{','.join(sim.CSV_COLUMNS)}`"
