from __future__ import annotations

import io
import json
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import coset_rows, is_commutative, loop_group_arrays

from cqglab import io as cio
from cqglab.errors import InvalidGroupTable, SchemaError
from cqglab.groups import (_BUILTINS, GroupTable, all_permutation_group, build_function_algebra,
                           build_group_algebra, builtin_algebras, cyclic_group,
                           symmetric_group_3)
from cqglab.report import Report


def test_builtin_inventory():
    algs = builtin_algebras()
    assert set(algs) == {"C(Z2)", "C(Z3)", "C(Z4)", "C[Z3]", "C(S3)", "C[S3]"}
    assert is_commutative(algs["C(S3)"])
    assert not is_commutative(algs["C[S3]"])


def test_group_table_validation():
    with pytest.raises(InvalidGroupTable):
        GroupTable(2, np.array([[0, 1], [1, 1]]))  # not a Latin square
    with pytest.raises(InvalidGroupTable):
        GroupTable(2, np.array([[1, 0], [0, 1]]))  # identity not at 0
    with pytest.raises(InvalidGroupTable):
        GroupTable(2, np.array([[0, 2], [2, 0]]))  # out of range


def test_non_associative_table_rejected():
    # a Latin square with identity at 0 that is not a group (order 5 loop)
    table = np.array([
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ])
    # the first failing triple in lexicographic order, found by the plain loop
    first = next((i, j, k) for i in range(5) for j in range(5) for k in range(5)
                 if table[table[i, j], k] != table[i, table[j, k]])
    with pytest.raises(InvalidGroupTable, match=r"not associative at \(%d,%d,%d\)" % first):
        GroupTable(5, table)


def test_associativity_check_is_vectorized():
    """An order-200 table validates without a Python loop over every triple."""
    start = time.perf_counter()
    group = cyclic_group(200)
    assert time.perf_counter() - start < 0.5
    assert group.order == 200


def test_cosets_and_subgroups():
    s3 = symmetric_group_3()
    assert s3.is_subgroup([0, 1])
    assert not s3.is_subgroup([0, 4])
    assert len(coset_rows(s3, [0, 1], "L")) == 3
    assert len(coset_rows(s3, [0, 1], "R")) == 3
    assert (coset_rows(s3, [0, 1], "L").sum(axis=0) == 1).all()  # a partition of S3
    assert s3.inverse(4) == 5  # the 3-cycles invert each other
    assert cyclic_group(4).is_abelian()
    assert not s3.is_abelian()


@pytest.mark.parametrize("label", [*_BUILTINS, "Z24", "S4"])
def test_builders_match_the_entrywise_loops(label):
    """The fancy-indexed structure arrays of C(G) and C[G] equal, entry for entry, the
    arrays filled one table entry at a time, on every built-in group, Z24 and S4."""
    extra = {"Z24": lambda: cyclic_group(24), "S4": lambda: all_permutation_group(4)}
    group = extra[label]() if label in extra else _BUILTINS[label][1]()
    want = loop_group_arrays(group)
    for kind, build in (("function", build_function_algebra), ("group", build_group_algebra)):
        alg = build(group)
        for name, array in zip(("mult", "comult", "antipode"), want[kind]):
            assert np.array_equal(getattr(alg, name), array), (kind, name)


def test_algebra_round_trip(tmp_path):
    for label, alg in builtin_algebras().items():
        path = tmp_path / f"{label.replace('(', '_').replace(')', '').replace('[','_').replace(']','')}.json"
        cio.save_algebra(alg, path)
        back = cio.load_algebra(path)
        assert back.dim == alg.dim
        assert back.label == alg.label
        for name in ("mult", "comult", "antipode", "counit", "unit", "star"):
            assert np.abs(getattr(back, name) - getattr(alg, name)).max() < 1e-15


def test_group_round_trip(tmp_path):
    s3 = symmetric_group_3()
    path = tmp_path / "s3.json"
    cio.save_group(s3, path)
    back = cio.load_group(path)
    assert np.array_equal(back.table, s3.table)
    assert back.labels == s3.labels


def test_schema_rejections(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "nonsense", "dim": 2}))
    with pytest.raises(SchemaError):
        cio.load_algebra(bad)
    with pytest.raises(SchemaError):
        cio.load_group(bad)
    bad.write_text("{ not json")
    with pytest.raises(SchemaError):
        cio.load_algebra(bad)


FIXTURES = Path(__file__).parent / "fixtures"
Z2_TABLE = [[0, 1], [1, 0]]


@pytest.mark.parametrize("order, table, named", [
    (2, [[0, 1.9], [1.2, 0]], r"table\[0\]\[1\] is 1.9"),
    (2, [[0, True], [True, 0]], r"table\[0\]\[1\] is True"),
    (2, [["0", "1"], ["1", "0"]], r"table\[0\]\[0\] is '0'"),
    (2.7, Z2_TABLE, "order is 2.7"),
    (True, [[0]], "order is True"),
    ("2", Z2_TABLE, "order is '2'"),
], ids=["fractional entry", "boolean entry", "string entry", "fractional order",
        "boolean order", "string order"])
def test_group_file_with_a_non_integer_raises(tmp_path, order, table, named):
    """Each of these read as a valid group before (``int`` truncates 1.9 and 2.7, reads
    True as 1 and '1' as 1); each now raises ``SchemaError`` naming the entry."""
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"schema": cio.GROUP_SCHEMA, "order": order, "table": table}))
    with pytest.raises(SchemaError, match=named):
        cio.load_group(path)


def _edited_z2(tmp_path, edit):
    """The C(Z2) fixture with ``edit`` applied to its payload, written to a file."""
    payload = json.loads((FIXTURES / "z2_function_algebra.json").read_text())
    edit(payload)
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("edit, named", [
    (lambda p: p.update(dim=2.9), "dim is 2.9"),
    (lambda p: p.update(dim=True), "dim is True"),
    (lambda p: p["mult"][1].__setitem__(0, 0.4), r"mult: index of \[0.4, 1, 1"),
    (lambda p: p["comult"][1].__setitem__(2, "1"), r"comult: index of \[0, 1, '1'"),
    (lambda p: p["mult"].append([0, 0, 0, 5.0, 0.0]), r"mult: index \(0, 0, 0\) is given twice"),
], ids=["fractional dim", "boolean dim", "fractional index", "string index", "repeated index"])
def test_algebra_file_with_a_non_integer_or_repeated_index_raises(tmp_path, edit, named):
    """A fractional index was truncated (0.4 read as 0), a string index read as its
    integer, and a repeated index overwrote the earlier entry; each raises now."""
    with pytest.raises(SchemaError, match=named):
        cio.load_algebra(_edited_z2(tmp_path, edit))
    assert cio.load_algebra(_edited_z2(tmp_path, lambda p: None)).dim == 2


def test_dim_mismatch_rejected(tmp_path):
    alg = builtin_algebras()["C(Z2)"]
    path = tmp_path / "z2.json"
    cio.save_algebra(alg, path)
    payload = json.loads(path.read_text())
    payload["mult"][0][0] = 7  # index out of range for dim 2
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError):
        cio.load_algebra(path)


def test_report_payload_deterministic(tmp_path):
    rep = Report("demo")
    rep.add("alpha", 1e-14, 1e-9)
    rep.add("beta", 2e-3, 1e-9)
    payload = cio.report_payload("validate", [rep], 1e-9, 0, {"x": 1})
    assert payload["passed"] is False
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    cio.save_report("validate", [rep], 1e-9, 0, {"x": 1}, p1)
    cio.save_report("validate", [rep], 1e-9, 0, {"x": 1}, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text(encoding="utf-8")) == payload
    out = io.StringIO()
    cio.report_to_csv([rep], out)
    csv = out.getvalue()
    assert "demo,alpha" in csv and csv.count("\n") == 3


def test_function_and_group_algebras_from_file(tmp_path):
    path = tmp_path / "z3.json"
    cio.save_group(cyclic_group(3), path)
    group = cio.load_group(path)
    fun = build_function_algebra(group)
    grp = build_group_algebra(group)
    assert fun.label == "C(Z3)"
    assert grp.label == "C[Z3]"


def test_checked_in_fixtures_still_load():
    """Schema stability: the committed fixture files must keep loading."""
    fixtures = Path(__file__).parent / "fixtures"
    group = cio.load_group(fixtures / "s3_group.json")
    assert group.order == 6 and not group.is_abelian()
    alg = cio.load_algebra(fixtures / "z2_function_algebra.json")
    assert alg.dim == 2 and alg.label == "C(Z2)"
    from cqglab.algebra import verify_hopf_axioms
    assert verify_hopf_axioms(alg, 1e-12).passed


@pytest.mark.parametrize("indices, expected", [
    ([0, 1, 1], True), ([1, 0], True), ([5, 4, 0], True), (list(range(6)), True),
    ([], False), ([0, -1], False), ([0, 6], False), ([0, 4], False), ([0, 1, 2], False),
], ids=["repeat", "unsorted", "A3-unsorted", "whole", "empty", "negative", "order",
        "not-closed", "not-closed-three"])
def test_is_subgroup_mask_cases(indices, expected):
    """Repeats and order do not matter; empty, out-of-range and non-closed sets are refused.
    ``[0, 4]`` misses (012)^2 = (021) and ``[0, 1, 2]`` misses (01)(02)."""
    assert symmetric_group_3().is_subgroup(indices) is expected


def test_is_subgroup_rejects_indices_outside_the_group():
    """-1 would wrap around to the last element and 99 would index past the table."""
    assert not cyclic_group(2).is_subgroup([0, 1, -1])
    assert not symmetric_group_3().is_subgroup([0, 99])
    assert cyclic_group(2).is_subgroup([0, 1])
