"""Reports hold their checks as columns and build ``CheckResult``s only on access.

The columns must render exactly what the per-check ``CheckResult`` rendering in
``oracles`` renders: the same ``cqglab/report-v1`` bytes and the same stdout, on
every ``desk`` and ``fusion`` job of the benchmark (the built-ins, and C(D6) and
C[A4] relabelled by seed 1).  ``io.save_report`` writes those bytes straight from
the columns; ``json.dumps`` of ``io.report_payload`` is its reference.  The
CSV is rendered from the columns too, against the per-check-dict CSV of
``oracles.payload_csv``.
"""

from __future__ import annotations

import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from cqglab import cli
from cqglab import io as cio
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


def written(tmp_path, reports: list[Report], operation: str = "op", inputs=None) -> str:
    """What ``save_report`` writes of ``reports``."""
    path = tmp_path / "written.json"
    cio.save_report(operation, reports, 1e-9, 3, inputs, path)
    return path.read_text(encoding="utf-8")


def dumped(reports: list[Report], operation: str = "op", inputs=None) -> str:
    """The same, as ``json.dumps`` renders the dict form."""
    return json.dumps(cio.report_payload(operation, reports, 1e-9, 3, inputs), sort_keys=True)


def csv_text(reports: list[Report]) -> str:
    """What ``report_to_csv`` streams of ``reports``."""
    out = io.StringIO()
    cio.report_to_csv(reports, out)
    return out.getvalue()


@pytest.mark.parametrize("workload", ["desk", "fusion"])
def test_columns_render_as_the_per_check_reference(tmp_path, workload):
    argvs = list(dict.fromkeys(job.argv for job in jobs.make_inputs(workload, 1, tmp_path)))
    assert len(argvs) == {"desk": 39, "fusion": 9}[workload]
    largest = 0
    for argv in argvs:
        reports = run_reports(argv)
        for report in reports:
            assert rendered(report) == reference(report), (argv, report.title)
            largest = max(largest, len(report.checks))
        inputs = {"argv": list(argv), "tolerance": 1e-9}
        assert written(tmp_path, reports, argv[0], inputs) == dumped(reports, argv[0], inputs), argv
        payload = cio.report_payload(argv[0], reports, 1e-9, 3, inputs)
        assert csv_text(reports) == oracles.payload_csv(payload), argv
    assert largest > SUMMARY_CHECKS


ODD_TEXT = 'quote " backslash \\ tab \t nul \x00 del \x7f e\u0301 \u00e9 \u03c0 \U0001d49c /'


def test_writer_spells_floats_and_text_as_json_does(tmp_path):
    """NaN, the infinities and -0.0 in residuals, tols, details and meta; quotes,
    backslashes, control characters and non-ASCII text in titles, names and
    detail strings; nested details of every JSON type."""
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308]
    odd = Report(f"title {ODD_TEXT}", meta={"tol": -0.0, ODD_TEXT: [math.nan, {"b": 1, "a": None}]})
    for i, residual in enumerate(special):
        for j, tol in enumerate(special):
            odd.add(f"check {i}.{j} {ODD_TEXT}", residual, tol)
    odd.extend([ODD_TEXT, "nested", "plain"], [-0.0, math.inf, 1e-17], -0.0,
               [{"text": ODD_TEXT, "values": special},
                {"z": [[1, True, False, None], {"y": [], "x": {}}], "a": -7, "m": "\u00e9"},
                {}])
    empty_meta = Report("empty meta", meta={})
    empty_meta.add("one", 0.25, 0.5, reduced=[[-0.0, 0.0]], cg_order=["p0", "p1"])
    reports = [odd, empty_meta, Report("no checks"), Report("")]
    text = written(tmp_path, reports, ODD_TEXT, {"builtin": ODD_TEXT, "seed": 0, "x": math.nan})
    assert text == dumped(reports, ODD_TEXT, {"builtin": ODD_TEXT, "seed": 0, "x": math.nan})
    assert csv_text(reports) == oracles.payload_csv(
        cio.report_payload(ODD_TEXT, reports, 1e-9, 3))
    assert text.isascii() and "-0.0" in text and "-Infinity" in text and "NaN" in text
    assert json.loads(text)["reports"][0]["title"] == f"title {ODD_TEXT}"


@pytest.mark.parametrize("reports", [[], [Report("empty")]], ids=["no reports", "empty report"])
def test_writer_renders_empty_input_as_json_does(tmp_path, reports):
    assert written(tmp_path, reports) == dumped(reports)
    assert written(tmp_path, reports, inputs={}) == dumped(reports, inputs={})


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
    ``Report.add`` or ``Report.to_dict`` call at all."""
    made, added, dicts = [], [], []
    init, add, to_dict = CheckResult.__init__, Report.add, Report.to_dict

    def counting_init(self, *args, **kwargs):
        made.append(args[0])
        init(self, *args, **kwargs)

    def counting_add(self, *args, **kwargs):
        added.append(args[0])
        add(self, *args, **kwargs)

    def counting_to_dict(self):
        dicts.append(self.title)
        return to_dict(self)

    monkeypatch.setattr(CheckResult, "__init__", counting_init)
    monkeypatch.setattr(Report, "add", counting_add)
    monkeypatch.setattr(Report, "to_dict", counting_to_dict)
    a4 = str(jobs.write_group("A4", 1, tmp_path)[0])
    argv = ["wigner-eckart", "--group", a4, "--construction", "group"]
    assert cli.main([*argv, "--output", str(tmp_path / "we.json")]) == 0
    assert made == [] and added == [] and dicts == []
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
