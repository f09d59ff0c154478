"""README.md against the code: its library example runs, and every test its glossary names exists."""

import importlib
import re
from pathlib import Path

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_library_example_runs():
    example = README.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})


def test_every_test_the_glossary_names_exists():
    table = README.split("## The book's terms\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("| ") and not line.startswith("| term |")]
    assert rows
    for row in rows:
        pinned_by = row.rsplit(" | ", 1)[1]
        ids = re.findall(r"`(test_\w+)\.py::([\w:]+)(?:\[[^`]*\])?`", pinned_by)  # a [...] case suffix is dropped
        assert ids, f"no test named in: {row}"
        for module, path in ids:
            found = importlib.import_module(module)
            for name in path.split("::"):
                assert hasattr(found, name), f"README names {module}.py::{path}, which does not exist"
                found = getattr(found, name)
