"""The README's "Library quick tour" and its C[S4]^J coideal block run as written, so the
examples cannot go stale."""

from __future__ import annotations

import re
import textwrap
from pathlib import Path

from beds import context

from cqglab import io as cio

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


def test_coideal_snippet_runs(tmp_path, monkeypatch):
    """The block that loads ``cs4_twist.json``, on the file written as the README says:
    the registry's C[S4]^J, twisted over K = <(01), (23)>, elements 6 and 1 of S4 in
    lexicographic order."""
    [block] = [b for b in re.findall(r"^( *)```python\n(.*?)^\1```", README.read_text(
        encoding="utf-8"), re.MULTILINE | re.DOTALL) if "cs4_twist.json" in b[1]]
    monkeypatch.chdir(tmp_path)
    cio.save_algebra(context("C[S4]^J").algebra, "cs4_twist.json")
    namespace: dict = {}
    exec(compile(textwrap.dedent(block[1]), f"{README.name} (coideal block)", "exec"), namespace)
    assert namespace["B"].dim == 8


def test_readme_schema_line_is_the_writers():
    """The README's "File formats" list names the report schema ``io.save_report``
    writes, so a format change cannot leave the documented tag behind."""
    from cqglab.io import REPORT_SCHEMA

    formats = README.read_text(encoding="utf-8").split("## File formats", 1)[1]
    formats = formats.split("\n## ", 1)[0]
    assert re.findall(r"^\* `(cqglab/report-v\d+)`", formats, re.MULTILINE) == [REPORT_SCHEMA]
