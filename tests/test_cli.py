from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from cqglab import cli
from cqglab import io as cio
from cqglab.algebra import HopfAlgebraSpec
from cqglab.errors import InvalidSpec
from cqglab.groups import build_function_algebra, builtin_algebras, symmetric_group_3
from beds import alternating_group_4


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*argv):
    """``python -m cqglab.cli`` in a child process that imports this checkout's ``src``."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "cqglab.cli", *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


@pytest.fixture(scope="module")
def s3_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("fixtures")
    group_path = base / "s3_group.json"
    algebra_path = base / "s3_function.json"
    cio.save_group(symmetric_group_3(), group_path)
    cio.save_algebra(build_function_algebra(symmetric_group_3()), algebra_path)
    return {"group": group_path, "algebra": algebra_path}


def test_validate_passes(s3_files):
    result = run_cli("validate", "--algebra", str(s3_files["algebra"]))
    assert result.returncode == 0
    assert "RESULT: PASS" in result.stdout


def test_validate_from_group_table(s3_files):
    result = run_cli("validate", "--group", str(s3_files["group"]),
                     "--construction", "group")
    assert result.returncode == 0


def test_unknown_subcommand_is_usage_error():
    result = run_cli("frobnicate")
    assert result.returncode == 2


def test_missing_file_is_usage_error(tmp_path):
    result = run_cli("validate", "--algebra", str(tmp_path / "nope.json"))
    assert result.returncode == 2
    assert "error" in result.stderr.lower()


def test_validate_fails_on_broken_spec(tmp_path, s3_files):
    payload = json.loads(s3_files["algebra"].read_text())
    payload["antipode"] = [[[0.0, 0.0]] * 6 for _ in range(6)]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload))
    result = run_cli("validate", "--algebra", str(broken))
    assert result.returncode == 1
    assert "RESULT: FAIL" in result.stdout


def _first_entry(matrix, value):
    """A dense ``[re, im]`` matrix with its first real part replaced."""
    return [[[value, 0.0]] + matrix[0][1:]] + matrix[1:]


# file kind -> case -> edit of a valid payload; every result must be rejected at load
MALFORMED = {
    "algebra": {
        "inf counit": lambda p: {**p, "counit": [[math.inf, 0.0]] + p["counit"][1:]},
        "NaN antipode": lambda p: {**p, "antipode": _first_entry(p["antipode"], math.nan)},
        "no dim": lambda p: {k: v for k, v in p.items() if k != "dim"},
        "no mult": lambda p: {k: v for k, v in p.items() if k != "mult"},
        "not an object": lambda p: [p],
        "ragged matrix": lambda p: {**p, "star": [p["star"][0][:-1]] + p["star"][1:]},
        "non-numeric dense entry": lambda p: {**p, "star": _first_entry(p["star"], "x")},
        "non-numeric sparse entry": lambda p: {**p, "mult": [[0, 0, 0, "x", 0.0]]},
        "non-numeric dim": lambda p: {**p, "dim": "two"},
    },
    "group": {
        "no order": lambda p: {k: v for k, v in p.items() if k != "order"},
        "ragged table": lambda p: {**p, "table": [p["table"][0][:-1]] + p["table"][1:]},
        "not an object": lambda p: [p],
    },
}


@pytest.mark.parametrize("command", ["validate", "haar", "irreps"])
@pytest.mark.parametrize("kind, case", [(kind, case) for kind, cases in MALFORMED.items()
                                        for case in cases])
def test_malformed_input_is_a_usage_error(tmp_path, capsys, kind, case, command):
    """Each malformed file exits 2 with an ``error:`` line, never a traceback or a PASS."""
    path = tmp_path / f"{kind}.json"
    if kind == "algebra":
        cio.save_algebra(builtin_algebras()["C(Z2)"], path)
    else:
        cio.save_group(symmetric_group_3(), path)
    path.write_text(json.dumps(MALFORMED[kind][case](json.loads(path.read_text()))))
    assert cli.main([command, f"--{kind}", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["mult", "comult", "antipode", "counit", "unit", "star"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_constructor_rejects_non_finite_entries(field, value):
    arrays = {name: np.array(getattr(builtin_algebras()["C(Z2)"], name))
              for name in ("mult", "comult", "antipode", "counit", "unit", "star")}
    arrays[field].flat[0] = value
    with pytest.raises(InvalidSpec, match="non-finite"):
        HopfAlgebraSpec(2, **arrays)


def test_wigner_eckart_subcommand(s3_files, tmp_path):
    out = tmp_path / "we.json"
    result = run_cli("wigner-eckart", "--algebra", str(s3_files["algebra"]),
                     "--p", "p2", "--q", "p2", "--r", "p2",
                     "--side", "R", "--kind", "ordinary",
                     "--output", str(out))
    assert result.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["operation"] == "wigner-eckart"
    assert payload["passed"] is True
    assert payload["reports"][0]["checks"][0]["residual"] <= 1e-9


def test_haar_and_irreps_subcommands(s3_files):
    assert run_cli("haar", "--algebra", str(s3_files["algebra"])).returncode == 0
    result = run_cli("irreps", "--builtin", "C[S3]")
    assert result.returncode == 0


def test_cg_subcommand_selected_pair(s3_files):
    result = run_cli("cg", "--algebra", str(s3_files["algebra"]),
                     "--p", "p2", "--q", "p2")
    assert result.returncode == 0


def test_cg_r_filters_the_triple_haar_targets(tmp_path):
    out = tmp_path / "cg.json"
    argv = ["cg", "--builtin", "C(S3)", "--p", "p2", "--q", "p2", "--r", "p0"]
    assert cli.main([*argv, "--output", str(out)]) == 0
    reports = json.loads(out.read_text())["reports"]
    assert [rep["title"] for rep in reports] == ["cg [p2 x p2]"]
    assert [check["name"] for check in reports[0]["checks"]] == [
        "block diagonalization", "triple haar p0 (p,q) order", "triple haar p0 (q,p) order"]
    # the pair's report keeps every multiplicity
    assert reports[0]["meta"]["multiplicities"] == {"p0": 1, "p1": 1, "p2": 1}


def test_parser_is_built_once(tmp_path, monkeypatch):
    """``main`` reuses one parser; ``build_parser`` still returns a new one."""
    calls, build = [], cli.build_parser

    def counting():
        calls.append(1)
        return build()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting)
    for _ in range(3):
        assert cli.main(["haar", "--builtin", "C(Z2)", "--output", str(tmp_path / "h.json")]) == 0
    assert cli.main(["no-such-command"]) == 2
    assert len(calls) == 1
    assert cli.build_parser() is not cli.build_parser()
    cli._parser.cache_clear()


def test_tensor_ops_subcommand(s3_files):
    result = run_cli("tensor-ops", "--algebra", str(s3_files["algebra"]),
                     "--q", "p2")
    assert result.returncode == 0


def test_tensor_ops_identity_report_carries_the_peter_weyl_factors(tmp_path):
    """The identity-operator report's meta holds ``kappa``, the factor by which every
    tensor-ops residual exceeds the one in the table's Peter-Weyl basis, and cond(P)."""
    out = tmp_path / "ops.json"
    assert cli.main(["tensor-ops", "--builtin", "C(S3)", "--output", str(out)]) == 0
    reports = json.loads(out.read_text())["reports"]
    assert set(reports[0]["meta"]) == {"peter_weyl"}
    assert reports[0]["meta"]["peter_weyl"]["kappa"] == pytest.approx(28.7514015917, rel=1e-9)
    assert reports[0]["meta"]["peter_weyl"]["cond"] == pytest.approx(2 ** 0.5, rel=1e-9)
    assert all("meta" not in rep for rep in reports[1:])


@pytest.mark.parametrize("command", ["validate", "haar", "cg"])
@pytest.mark.parametrize("tolerance", ["0", "-1", "nan", "inf"])
def test_tolerance_must_be_positive_and_finite(capsys, command, tolerance):
    """Zero and negative tolerances used to surface as a Haar failure, nan as a failing
    check and inf as a singular antipode; each is a usage error before any work."""
    assert cli.main([command, "--builtin", "C(S3)", "--tolerance", tolerance]) == 2
    assert capsys.readouterr().err == "error: --tolerance must be a positive finite number\n"


def test_homspace_subcommand(tmp_path, s3_files):
    out = tmp_path / "hom.json"
    result = run_cli("homspace", "--builtin", "C(S3)", "--subgroup", "0,1",
                     "--side", "L", "--output", str(out))
    assert result.returncode == 0
    payload = json.loads(out.read_text())
    [dims] = [rep for rep in payload["reports"]
              if rep["title"].startswith("restricted basis functions")]
    assert dims["meta"] == {"solution_dims": {"p0": 1, "p1": 0, "p2": 1}}
    assert dims["checks"] == [] and dims["passed"]


@pytest.mark.parametrize("side", ["L", "R"])
def test_homspace_repeated_subgroup_index_counts_once(tmp_path, side):
    """``0,1,1`` names the subgroup {e, (01)} of ``0,1``: B, its label and every
    report are the same."""
    reports = []
    for subgroup in ("0,1,1", "0,1"):
        out = tmp_path / f"{subgroup}.json"
        argv = ["homspace", "--builtin", "C(S3)", "--subgroup", subgroup, "--side", side]
        assert cli.main([*argv, "--output", str(out)]) == 0
        reports.append(json.loads(out.read_text())["reports"])
    assert reports[0] == reports[1]
    assert reports[0][0]["title"].endswith(f"C(S3)/H2:{side}]")


@pytest.mark.parametrize("source", [
    ("--builtin", "C[S3]", "--side", "L"),
    ("--builtin", "C[S3]", "--side", "R"),
    ("--group", "GROUP", "--construction", "group"),
])
def test_homspace_on_a_group_algebra_is_the_subgroup_algebra(tmp_path, s3_files, cs3_grp,
                                                              source):
    """On C[G] the subgroup's indicator is an idempotent state, and B = C[H] = span H: of
    C[S3]'s six group-like irreps, exactly those of H = {e, (01)} have a restricted set."""
    out = tmp_path / "hom.json"
    argv = [str(s3_files["group"]) if a == "GROUP" else a for a in source]
    result = run_cli("homspace", *argv, "--subgroup", "0,1", "--output", str(out))
    assert result.returncode == 0, result.stderr
    [dims] = [rep for rep in json.loads(out.read_text())["reports"]
              if rep["title"].startswith("restricted basis functions")]
    group_like = {pi.label: int(np.abs(pi.coeffs[0, 0]).argmax()) for pi in cs3_grp.table}
    assert dims["meta"]["solution_dims"] == {label: int(g in (0, 1))
                                             for label, g in group_like.items()}


@pytest.mark.parametrize("argv", [
    ("cg", "--builtin", "C(S3)", "--p", "p9"),
    ("wigner-eckart", "--builtin", "C(S3)", "--r", "7"),
    ("tensor-ops", "--builtin", "C(S3)", "--q", "nope"),
    ("homspace", "--builtin", "C(S3)", "--subgroup", "x"),
    ("homspace", "--builtin", "C(S3)", "--subgroup", "0,99"),
    ("homspace", "--builtin", "C(Z2)", "--subgroup", "0,1,-1"),
    ("homspace", "--builtin", "C(S3)", "--subgroup", "0,1,2"),
    ("homspace", "--algebra", "ALGEBRA", "--subgroup", "0,1"),
], ids=["cg-label", "we-index", "tensor-ops-label", "subgroup-text", "subgroup-99",
        "subgroup-negative", "subgroup-not-closed", "homspace-without-group"])
def test_bad_label_or_subgroup_is_a_usage_error(capsys, s3_files, argv):
    """An unknown irrep label, a malformed subgroup, a subset that is not a subgroup, or an
    ``--algebra`` spec (it has no group) exits 2 with an ``error:`` line."""
    assert cli.main([str(s3_files["algebra"]) if a == "ALGEBRA" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    *[(command, "--builtin", "C(S3)") for command in cli._COMMANDS if command != "homspace"],
    *[("homspace", "--builtin", "C(S3)", "--subgroup", subgroup, "--side", side)
      for subgroup in ("0", "0,1") for side in ("L", "R")],
])
def test_check_names_are_unique_within_each_report(tmp_path, argv):
    """No report repeats a check name; over the trivial subgroup p2 has two
    restricted sets, which the homspace check names tell apart."""
    out = tmp_path / "out.json"
    assert cli.main([*argv, "--output", str(out)]) == 0
    for rep in json.loads(out.read_text())["reports"]:
        names = [check["name"] for check in rep["checks"]]
        assert len(names) == len(set(names)), (rep["title"], argv)


def test_homspace_reads_the_group_file_once(tmp_path, s3_files, monkeypatch):
    """One read and validation of ``--group`` builds C(G) and gives the cosets."""
    calls, load = [], cio.load_group

    def counting(path):
        calls.append(path)
        return load(path)

    monkeypatch.setattr(cio, "load_group", counting)
    argv = ["homspace", "--group", str(s3_files["group"]), "--subgroup", "0,1",
            "--output", str(tmp_path / "hom.json")]
    assert cli.main(argv) == 0
    assert len(calls) == 1


def test_homspace_builtin_cyclic_group():
    result = run_cli("homspace", "--builtin", "C(Z4)", "--subgroup", "0,2")
    assert result.returncode == 0, result.stderr


def test_cg_solves_each_system_once(tmp_path, monkeypatch):
    """One table-wide solve covers all 36 ordered pairs."""
    calls, solve = [], cli.solve_cg_systems

    def counting(ps, qs, *rest, **kw):
        systems = solve(ps, qs, *rest, **kw)
        calls.append(list(systems))
        return systems

    monkeypatch.setattr(cli, "solve_cg_systems", counting)
    assert cli.main(["cg", "--builtin", "C[S3]", "--output", str(tmp_path / "cg.json")]) == 0
    assert len(calls) == 1
    assert len(calls[0]) == len(set(calls[0])) == 36


def test_cg_certifies_each_pair_in_one_call(tmp_path, monkeypatch):
    """One triple-Haar pass certifies every pair against all six targets."""
    calls, certify = [], cli._triple_haar_gaps

    def counting(ps, qs, targets, *rest):
        calls.append((len(ps), len(qs), len(targets)))
        return certify(ps, qs, targets, *rest)

    monkeypatch.setattr(cli, "_triple_haar_gaps", counting)
    assert cli.main(["cg", "--builtin", "C[S3]", "--output", str(tmp_path / "cg.json")]) == 0
    assert calls == [(6, 6, 6)]


def test_cg_solves_each_target_dimension_once(cd6_fun, monkeypatch):
    """One range batch per product size in a whole ``solve_cg`` walk: the first call
    solves the table, taking the projections ``P^r_11`` of all six targets of C(D6),
    of both dimensions, for every pair of one size (1, 2 and 4) in one
    :func:`cqglab.corep._range_basis` call; later calls read the table's memo."""
    from cqglab import cg, corep
    calls, range_basis = [], corep._range_basis

    def counting(mats, rcond):
        calls.append(mats.shape)
        return range_basis(mats, rcond)

    monkeypatch.setattr(corep, "_range_basis", counting)
    table = dataclasses.replace(cd6_fun.table)   # the same irreps, with an empty memo
    pairs = [(p, q) for p in table for q in table]
    cg.solve_cg(*pairs[0], table, cd6_fun.haar)
    # six targets for each of the 16 pairs of size 1, the 16 of size 2 and the 4 of size 4
    assert sorted(calls) == [(6 * 4, 4, 4), (6 * 16, 1, 1), (6 * 16, 2, 2)]
    calls.clear()
    for p, q in pairs:
        cg.solve_cg(p, q, table, cd6_fun.haar)
    assert calls == []


def test_wigner_eckart_factorizes_each_pair_once(tmp_path, monkeypatch):
    from cqglab import wigner_eckart
    calls, factorize = [], wigner_eckart._factorize_targets

    def counting(tmats, systems, targets):
        calls.append(([(system.p_label, system.q_label) for system in systems], len(targets)))
        return factorize(tmats, systems, targets)

    monkeypatch.setattr(wigner_eckart, "_factorize_targets", counting)
    out = tmp_path / "we.json"
    assert cli.main(["wigner-eckart", "--builtin", "C[S3]", "--output", str(out)]) == 0
    # one call over the 36 pairs of each (side, kind) and all six targets: ordinary
    # pairs (p, q) in their (q, p) systems, twisted ones in their (p, q) systems
    [(pairs, count)] = calls
    labels = [f"p{i}" for i in range(6)]
    ordinary = [(q, p) for p, q in product(labels, labels)]
    assert pairs == (ordinary + list(product(labels, labels))) * 2
    assert count == 6
    # each table is rendered once, as one report of 72 checks: per pair its one
    # occurring target and the selection rule over the other five
    reports = json.loads(out.read_text())["reports"]
    assert [rep["title"] for rep in reports] == [
        f"wigner-eckart [{side},{kind}]" for side in ("R", "L")
        for kind in ("ordinary", "twisted")]
    assert all(len(rep["checks"]) == 72 for rep in reports)
    assert all(chk["details"]["absent"] == 5 for rep in reports for chk in rep["checks"][1::2])


def test_reports_reproducible(tmp_path, s3_files):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        result = run_cli("haar", "--algebra", str(s3_files["algebra"]),
                         "--seed", "5", "--output", str(out))
        assert result.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_irreps_report_ignores_seed(tmp_path):
    """The irrep table draws nothing at random; ``--seed`` is only recorded."""
    payloads = []
    for seed in ("0", "5"):
        out = tmp_path / f"irreps-{seed}.json"
        assert cli.main(["irreps", "--builtin", "C(S3)", "--seed", seed,
                         "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload.pop("seed") == payload["inputs"].pop("seed") == int(seed)
        payloads.append(payload)
    assert payloads[0] == payloads[1]


def test_irreps_reports_follow_the_tolerance(tmp_path):
    """Every ``irreps`` report but the summary's block count judges at ``--tolerance``:
    a 100 times looser tolerance gives every check a 100 times looser tol, and a
    report's ``meta.tol`` is the tolerance itself."""
    payloads = {}
    for tolerance in ("1e-9", "1e-7"):
        out = tmp_path / f"irreps-{tolerance}.json"
        assert cli.main(["irreps", "--builtin", "C(S3)", "--tolerance", tolerance,
                         "--output", str(out)]) == 0
        payloads[float(tolerance)] = json.loads(out.read_text())["reports"]
    tight, loose = payloads[1e-9], payloads[1e-7]
    assert [rep["title"] for rep in tight] == [rep["title"] for rep in loose]
    assert any(rep["title"].startswith("dual regular actions") for rep in tight)
    for rep_t, rep_l in zip(tight[1:], loose[1:]):
        assert rep_t.get("meta", {}).get("tol", 1e-9) == 1e-9
        assert rep_l.get("meta", {}).get("tol", 1e-7) == 1e-7
        for chk_t, chk_l in zip(rep_t["checks"], rep_l["checks"]):
            assert chk_l["tol"] == pytest.approx(100 * chk_t["tol"], rel=1e-12), (
                rep_t["title"], chk_t["name"])


def test_irreps_output_reproducible(tmp_path):
    inputs = [("irreps", "--builtin", "C[S3]")] + [
        ("homspace", "--builtin", "C(S3)", "--subgroup", "0,1", "--side", side)
        for side in ("L", "R")]
    for idx, argv in enumerate(inputs):
        outs = [tmp_path / f"{idx}-1.json", tmp_path / f"{idx}-2.json"]
        for out in outs:
            result = run_cli(*argv, "--output", str(out))
            assert result.returncode == 0, result.stderr
            assert json.loads(out.read_text())["operation"] == argv[0]
        assert outs[0].read_bytes() == outs[1].read_bytes(), argv


def test_csv_output(tmp_path, s3_files):
    out = tmp_path / "report.csv"
    result = run_cli("validate", "--algebra", str(s3_files["algebra"]),
                     "--format", "csv", "--output", str(out))
    assert result.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "report,check,residual,tol,passed"
    assert any("associativity" in line for line in lines)


@pytest.mark.parametrize("argv", [
    ["wigner-eckart", "--builtin", "C(Z2)"],
    ["homspace", "--builtin", "C(S3)", "--subgroup", "0,1"],
])
def test_csv_rows_parse_to_five_fields(tmp_path, argv):
    """Titles and check names that hold commas are quoted: every row parses to
    five fields, the titles and names read back are the report's own, and a
    row with no comma in any field is the plain comma-joined line."""
    csv_path, json_path = tmp_path / "report.csv", tmp_path / "report.json"
    assert cli.main([*argv, "--format", "csv", "--output", str(csv_path)]) == 0
    assert cli.main([*argv, "--output", str(json_path)]) == 0
    text = csv_path.read_text(encoding="utf-8")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows[0] == ["report", "check", "residual", "tol", "passed"]
    assert all(len(row) == 5 for row in rows)
    reports = json.loads(json_path.read_text())["reports"]
    assert [row[:2] for row in rows[1:]] == [[rep["title"], chk["name"]]
                                              for rep in reports for chk in rep["checks"]]
    assert any("," in row[0] or "," in row[1] for row in rows[1:])
    for line, row in zip(text.splitlines(), rows):
        if not any("," in field for field in row):
            assert line == ",".join(row)


def test_demo_subcommand():
    result = run_cli("demo")
    assert result.returncode == 0
    assert "RESULT: PASS" in result.stdout


HAAR_CHECKS = ["normalization", "left invariance", "right invariance", "star reality",
               "antipode invariance", "gram hermitian", "gram positive",
               "antipode squares to identity", "trace property"]


@pytest.mark.parametrize("command", ["haar", "demo"])
def test_haar_certificates_end_with_the_kac_checks(command, tmp_path):
    """Every ``haar certificates`` report carries the Kac premise as its last two
    checks, passing on each built-in."""
    out = tmp_path / "out.json"
    argv = [command, "--output", str(out)] + (["--builtin", "C[S3]"] if command == "haar" else [])
    assert cli.main(argv) == 0
    certificates = [rep for rep in json.loads(out.read_text())["reports"]
                    if rep["title"].startswith("haar certificates")]
    assert len(certificates) == (1 if command == "haar" else len(builtin_algebras()))
    for rep in certificates:
        assert [check["name"] for check in rep["checks"]] == HAAR_CHECKS
        assert all(check["passed"] for check in rep["checks"])


def test_haar_checks_the_gram_twice(tmp_path, monkeypatch):
    """``cqglab haar`` takes the one Gram's eigenvalues twice: ``solve_haar``'s
    positivity check and ``certify_haar``'s report; nothing repeats them."""
    calls, eigvalsh = [], np.linalg.eigvalsh

    def counting(matrix):
        calls.append(matrix.shape)
        return eigvalsh(matrix)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert cli.main(["haar", "--builtin", "C(S3)", "--output", str(tmp_path / "h.json")]) == 0
    assert calls == [(6, 6), (6, 6)]


def test_large_report_summary_lists_only_failing_checks():
    """Past ``SUMMARY_CHECKS`` checks a summary keeps its verdict line, with the count and
    the worst residual, and lists only the failing checks; up to it, every check."""
    from cqglab.report import SUMMARY_CHECKS, Report

    small, large = Report("small"), Report("large")
    for i in range(SUMMARY_CHECKS):
        small.add(f"c{i}", 0.0, 1.0)
        large.add(f"c{i}", 0.0, 1.0)
    large.add("bad", 2.5, 1.0)
    assert len(small.summary().splitlines()) == SUMMARY_CHECKS + 1
    assert large.summary().splitlines() == [
        f"large: FAIL ({SUMMARY_CHECKS + 1} checks, worst residual 2.500e+00)",
        "  [BAD] bad: residual 2.500e+00 (tol 1.0e+00)"]


def test_wigner_eckart_stdout_is_bounded_and_output_complete(tmp_path, capsys):
    """``wigner-eckart`` on C[S3] writes four 72-check reports: stdout has one line per
    report plus the result, and the JSON file still holds every check."""
    out = tmp_path / "we.json"
    assert cli.main(["wigner-eckart", "--builtin", "C[S3]", "--output", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "RESULT: PASS" and len(lines) == 5
    reports = json.loads(out.read_text())["reports"]
    assert [len(rep["checks"]) for rep in reports] == [72] * 4


def test_csv_format_without_output_is_a_usage_error(capsys):
    """``--format csv`` only shapes the ``--output`` file, so without one it is
    refused before any work, not silently ignored."""
    assert cli.main(["validate", "--builtin", "C(Z2)", "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "--output" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_unwritable_output_is_a_file_error(tmp_path, capsys, fmt):
    """A report that cannot be written is a file error (exit 2), not a failed check."""
    out = tmp_path / "missing" / "report.out"
    assert cli.main(["validate", "--builtin", "C(Z2)", "--output", str(out),
                     "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "missing" in captured.err
    assert captured.out == "" and not out.exists()


def test_table_scale_stdout_is_brief_and_lists_failures(tmp_path, capsys, monkeypatch):
    """``cg`` on C[A4] holds 720 checks in 144 reports of 5: past ``SUMMARY_CHECKS``
    checks in all, each report prints only its verdict line, then its failing checks.
    Target p0 does not occur in p0 x p1, so its gap of 2.5 is the selection rule of
    that pair's (p,q) order and of p1 x p0's (q,p) order."""
    cio.save_group(alternating_group_4(), tmp_path / "a4.json")
    argv = ["cg", "--group", str(tmp_path / "a4.json"), "--construction", "group"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 145 and lines[-1] == "RESULT: PASS"
    assert all(" (5 checks, worst residual " in line for line in lines[:-1])

    def one_pair_off(*args):
        gaps = triple_haar_gaps(*args)
        key = next(key for key in gaps if key[0] != key[1])
        gaps[key] = np.where(np.arange(len(gaps[key])) == 0, 2.5, gaps[key])
        return gaps

    triple_haar_gaps = cli._triple_haar_gaps
    monkeypatch.setattr(cli, "_triple_haar_gaps", one_pair_off)
    assert cli.main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    bad = [line for line in lines if line.startswith("  [BAD] ")]
    assert len(lines) == 147 and lines[-1] == "RESULT: FAIL" and len(bad) == 2
    assert all("residual 2.500e+00" in line for line in bad)
    assert [line.split(":")[0] for line in bad] == ["  [BAD] selection rule (p,q) order",
                                                    "  [BAD] selection rule (q,p) order"]
