"""The README's "Library quick tour" runs as written, so the example cannot go stale."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library quick tour'"
    return match.group(1)


def test_quick_tour_runs(capsys):
    namespace: dict = {}
    exec(compile(_quick_tour(), f"{README.name} (Library quick tour)", "exec"), namespace)
    printed = capsys.readouterr().out.split()
    assert float(printed[-1]) < 1e-9  # the restricted Wigner-Eckart residual on B
    assert namespace["B"].dim == 3


def test_readme_schema_line_is_the_writers():
    """The README's "File formats" list names the report schema ``io.save_report``
    writes, so a format change cannot leave the documented tag behind."""
    from cqglab.io import REPORT_SCHEMA

    formats = README.read_text(encoding="utf-8").split("## File formats", 1)[1]
    formats = formats.split("\n## ", 1)[0]
    assert re.findall(r"^\* `(cqglab/report-v\d+)`", formats, re.MULTILINE) == [REPORT_SCHEMA]
