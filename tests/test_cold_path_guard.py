"""No CLI run imports a module that ``import numpy`` and ``import cqglab.cli`` did not.

numpy loads some of its subpackages only on first use (``numpy.ma``, which
``np.unique`` reaches, ``numpy.random``, ``numpy.fft``, ...), and each such
import is paid by every fresh ``cqglab`` process that reaches it.  One child
process imports numpy and the CLI, takes a snapshot of ``sys.modules``, runs
every subcommand through ``cli.main`` and records which modules each call added.
The only ones allowed are argparse's gettext (``locale``) and, for CSV output,
the ``csv`` module.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cqglab import io as cio
from cqglab.groups import build_function_algebra, symmetric_group_3

SRC = str(Path(__file__).resolve().parents[1] / "src")
ALWAYS = {"locale", "_locale"}  # argparse's gettext, on the first parse
CSV = {"csv", "_csv"}           # report_to_csv, for --format csv only
SUBCOMMANDS = ("validate", "haar", "irreps", "cg", "tensor-ops", "wigner-eckart",
               "homspace", "demo")

CHILD = r"""
import contextlib, io, json, sys
import numpy
from cqglab import cli

calls = json.loads(sys.argv[1])
seen, added = set(sys.modules), []
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    added.append([code, sorted(set(sys.modules) - seen)])
    seen = set(sys.modules)
print(json.dumps(added))
"""


def _calls(base: Path) -> list[list[str]]:
    group, algebra = base / "s3_group.json", base / "s3_function.json"
    cio.save_group(symmetric_group_3(), group)
    cio.save_algebra(build_function_algebra(symmetric_group_3()), algebra)
    calls = [[name, "--builtin", label] for label in ("C(S3)", "C[S3]")
             for name in SUBCOMMANDS]
    calls += [[name, "--group", str(group), "--construction", construction]
              for construction in ("function", "group") for name in ("irreps", "homspace")]
    calls += [["irreps", "--algebra", str(algebra)], ["cg", "--algebra", str(algebra)]]
    calls += [["homspace", "--builtin", "C(S3)", "--subgroup", "0,1", "--side", side]
              for side in ("L", "R")]
    calls += [["homspace", "--builtin", "C(S3)", "--output", str(base / "report.json")],
              ["validate", "--builtin", "C(S3)", "--format", "csv",
               "--output", str(base / "report.csv")]]
    return calls


@pytest.fixture(scope="module")
def imports(tmp_path_factory):
    """``(argv, exit code, modules the call added)`` for every call, in one fresh child."""
    calls = _calls(tmp_path_factory.mktemp("cold_path"))
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    child = subprocess.run([sys.executable, "-c", CHILD, json.dumps(calls)],
                           capture_output=True, text=True, env=env, timeout=600)
    assert child.returncode == 0, child.stderr
    return [(argv, code, added) for argv, (code, added) in zip(calls, json.loads(child.stdout))]


def test_every_call_ran(imports):
    assert [(argv, code) for argv, code, _ in imports if code != 0] == []


def test_no_call_imports_a_new_module(imports):
    broken = {" ".join(argv): sorted(set(added) - ALWAYS - (CSV if "csv" in argv else set()))
              for argv, _, added in imports}
    assert {command: extra for command, extra in broken.items() if extra} == {}
