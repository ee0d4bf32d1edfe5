"""Smoke test of the frontier harness ``scripts/bench_real_structure.py``: one C(S4)
``validate`` CLI cell, one repeat, no kernels, so the script cannot rot unseen."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_cli_cell_runs(tmp_path):
    out = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_real_structure.py"), "--src",
         f"change={ROOT}", "--skip", "kernels", "--repeats", "1", "--algebra", "C(S4)",
         "--command", "validate", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    cell = json.loads(out.read_text())["cli"]["C(S4)"]["validate"]["change"]
    assert cell["errors"] == 0 and cell["exits"] == [0] and len(cell["s_runs"]) == 1
    assert cell["s_median"] > 0 and cell["peak_rss_mb_median"] > 0
