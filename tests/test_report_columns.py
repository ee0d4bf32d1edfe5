"""Reports hold their checks as columns and build ``CheckResult``s only on access.

The columns must render exactly what the per-check ``CheckResult`` rendering in
``oracles`` renders: the same ``cqglab/report-v1`` bytes and the same stdout, on
every ``desk`` and ``fusion`` job of the benchmark (the built-ins, and C(D6) and
C[A4] relabelled by seed 1).
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from cqglab import cli
from cqglab.report import SUMMARY_CHECKS, CheckResult, Report
from cqglab.wigner_eckart import _reduced_pairs

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import jobs  # noqa: E402  (the benchmark's job lists)


def rendered(report: Report) -> tuple:
    """What the CLI prints and writes of one report, from the columns."""
    return (json.dumps(report.to_dict(), sort_keys=True), report.summary(), report.passed,
            repr(report.max_residual))


def reference(report: Report) -> tuple:
    """The same, rendered one ``CheckResult`` at a time."""
    return (json.dumps(oracles.report_dict(report), sort_keys=True),
            oracles.report_summary(report, SUMMARY_CHECKS), oracles.report_passed(report),
            repr(oracles.report_max_residual(report)))


def run_reports(argv) -> list[Report]:
    args = cli._parser().parse_args(list(argv))
    return cli._COMMANDS[args.command](args)


@pytest.mark.parametrize("workload", ["desk", "fusion"])
def test_columns_render_as_the_per_check_reference(tmp_path, workload):
    argvs = list(dict.fromkeys(job.argv for job in jobs.make_inputs(workload, 1, tmp_path)))
    assert len(argvs) == {"desk": 39, "fusion": 9}[workload]
    largest = 0
    for argv in argvs:
        for report in run_reports(argv):
            assert rendered(report) == reference(report), (argv, report.title)
            largest = max(largest, len(report.checks))
    assert largest > SUMMARY_CHECKS


def test_signed_zeros_in_reduced_render_as_the_reference():
    values = np.array([[0.0, complex(-0.0, -0.0)], [complex(-0.0, 1.5), complex(2.5e-17, -0.0)]])
    report = Report("wigner-eckart [R,twisted]")
    report.extend(["p,q,r", "p,q,s"], [0.0, -0.0], 1.0,
                  [{"reduced": _reduced_pairs(row), "cg_order": ["p", "q"]} for row in values])
    assert rendered(report) == reference(report)
    assert json.dumps(report.to_dict()).count("-0.0") == 5


def test_failing_check_in_a_large_report_renders_as_the_reference():
    report = Report("large", meta={"tol": 1.0})
    report.extend([f"c{i}" for i in range(2 * SUMMARY_CHECKS)],
                  np.where(np.arange(2 * SUMMARY_CHECKS) == 17, 2.5, 0.0), 1.0)
    assert rendered(report) == reference(report)
    assert not report.passed
    assert report.summary().splitlines()[1:] == ["  [BAD] c17: residual 2.500e+00 (tol 1.0e+00)"]


def test_empty_report_renders_as_the_reference():
    report = Report("empty")
    report.extend([], np.zeros(0), 1.0)
    assert rendered(report) == reference(report)
    assert report.passed and report.max_residual == 0.0 and report.checks == []


@pytest.mark.parametrize("residuals", [[1e-3, math.nan], [math.nan, 1e-3]])
def test_a_nan_residual_is_the_maximum_in_either_order(residuals):
    small, large = Report("small"), Report("large")
    for i, residual in enumerate(residuals):
        small.add(f"c{i}", residual, 1.0)
    large.extend([f"c{i}" for i in range(SUMMARY_CHECKS + 1)],
                  residuals + [0.0] * (SUMMARY_CHECKS - 1), 1.0)
    for report in (small, large):
        assert math.isnan(report.max_residual) and math.isnan(report.to_dict()["max_residual"])
        assert not report.passed
    assert "worst residual nan" in large.summary().splitlines()[0]


def test_add_and_extend_append_the_same_rows():
    one_by_one, table = Report("t"), Report("t")
    for name, residual in zip("abc", [0.5, 2.0, 1e-12]):
        one_by_one.add(name, residual, 1.0, value=[residual, 0.0])
    table.extend(list("abc"), np.array([0.5, 2.0, 1e-12]), 1.0,
                 [{"value": [residual, 0.0]} for residual in [0.5, 2.0, 1e-12]])
    assert one_by_one.checks == table.checks
    assert rendered(one_by_one) == rendered(table)
    assert table["b"] == CheckResult("b", 2.0, 1.0, {"value": [2.0, 0.0]})
    with pytest.raises(KeyError):
        table["d"]


def test_wigner_eckart_builds_check_results_only_on_access(tmp_path, monkeypatch):
    """``cqglab wigner-eckart`` on C[A4] writes its JSON and stdout straight from the
    columns: no ``CheckResult`` until ``checks`` or ``report[name]`` is read, and no
    ``Report.add`` call at all."""
    made, added = [], []
    init, add = CheckResult.__init__, Report.add

    def counting_init(self, *args, **kwargs):
        made.append(args[0])
        init(self, *args, **kwargs)

    def counting_add(self, *args, **kwargs):
        added.append(args[0])
        add(self, *args, **kwargs)

    monkeypatch.setattr(CheckResult, "__init__", counting_init)
    monkeypatch.setattr(Report, "add", counting_add)
    a4 = str(jobs.write_group("A4", 1, tmp_path)[0])
    argv = ["wigner-eckart", "--group", a4, "--construction", "group"]
    assert cli.main([*argv, "--output", str(tmp_path / "we.json")]) == 0
    assert made == [] and added == []
    reports = run_reports(argv)
    assert made == [] and [len(rep.to_dict()["checks"]) for rep in reports] == [1728] * 4
    checks = reports[0].checks
    assert len(made) == len(checks) == 1728
    assert reports[1][checks[7].name].name == checks[7].name
    assert len(made) == 1729


def test_extend_rejects_columns_of_different_lengths():
    report = Report("t")
    with pytest.raises(ValueError):
        report.extend(["a", "b"], [0.0], 1.0)
    with pytest.raises(ValueError):
        report.extend(["a"], [0.0], 1.0, [{}, {}])
    assert report.checks == []
