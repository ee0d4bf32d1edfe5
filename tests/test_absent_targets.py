"""Targets that do not occur in a tensor product cost no per-target work.

C[A4] has twelve 1-dim irreps and each of its 144 products is exactly one of
them, so 1,584 of the 1,728 projections ``P^r_11`` of one ``solve_cg_systems``
call are zero, and 6,336 of the 6,912 (p, q, r) triples of
``cqglab wigner-eckart`` are absent targets.  These guards count the work, not
its time: the zero maps skip the batched SVD, the absent targets of one pair
are one selection-rule check, and the writer encodes each distinct details
object once.  Sharing must not leak: every copy of the details a caller gets
is its own.
"""

from __future__ import annotations

import json

import numpy as np

from cqglab import cli, corep
from cqglab import io as cio
from cqglab.cg import solve_cg_systems
from cqglab.report import Report
from beds import alternating_group_4


def test_zero_averaging_maps_skip_the_svd(ca4_grp, monkeypatch):
    table = ca4_grp.table
    screened, solved, svd, range_basis = [], [], np.linalg.svd, corep._range_basis

    def counting_svd(mats, *args, **kwargs):
        if kwargs.get("compute_uv", True):     # the range solver's; C's conditioning has none
            solved.append(len(mats))
        return svd(mats, *args, **kwargs)

    def counting_range_basis(mats, rcond):
        screened.append(len(mats))
        return range_basis(mats, rcond)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(corep, "_range_basis", counting_range_basis)
    systems = solve_cg_systems(table, table, table)
    assert len(systems) == 144
    assert all(sum(system.multiplicities.values()) == 1 for system in systems.values())
    assert screened == [1728] and solved == [144]


def test_absent_targets_share_one_encoded_details_object(tmp_path, monkeypatch):
    """The absent targets of a pair share one check, the pair's selection rule, so the
    6,912 triples of C[A4] are 4 x (144 + 144) = 1,152 checks, and the writer encodes
    each check's details object once."""
    group = tmp_path / "a4.json"
    cio.save_group(alternating_group_4(), group)
    encoded, make_encoder = [], cio._sort_keys_encoder

    def counting_encoder():
        encode = make_encoder()

        def counting(obj):
            if isinstance(obj, dict) and "cg_order" in obj:
                encoded.append(obj)
            return encode(obj)
        return counting

    monkeypatch.setattr(cio, "_sort_keys_encoder", counting_encoder)
    out = tmp_path / "we.json"
    assert cli.main(["wigner-eckart", "--group", str(group), "--construction", "group",
                     "--output", str(out)]) == 0
    checks = [chk for rep in json.loads(out.read_text())["reports"] for chk in rep["checks"]]
    assert len(checks) == 1152
    rules = [chk for chk in checks if chk["name"].endswith(" selection rule")]
    assert len(rules) == 576 and sum(chk["details"]["absent"] for chk in rules) == 6336
    assert all(len(chk["details"]["reduced"]) == 1 for chk in checks if chk not in rules)
    assert len(encoded) == 1152


def test_editing_one_check_leaves_the_others_and_the_bytes(tmp_path):
    args = cli._parser().parse_args(["wigner-eckart", "--builtin", "C[S3]"])
    reports = cli._COMMANDS[args.command](args)
    report = reports[0]
    before = [rep.to_dict() for rep in reports]
    out = tmp_path / "before.json"
    cio.save_report("wigner-eckart", reports, 1e-9, 0, {}, out)
    # a pair's occurring target and its selection rule share the pair's cg_order list
    first, second = (report.checks.index(report[name]) for name in ("p0,p0,p0",
                                                                    "p0,p0 selection rule"))
    assert report._details[first]["cg_order"] is report._details[second]["cg_order"]
    for check in (report.checks[first], report[report.checks[first].name]):
        check.details["reduced"].append([1.0, 0.0])
        check.details["cg_order"][0] = "edited"
        check.details["extra"] = True
    edited = report.to_dict()
    edited["checks"][first]["details"]["reduced"].append([2.0, 0.0])
    edited["checks"][first]["details"]["cg_order"].append("edited")
    assert report.checks[second].details == {"absent": 5, "cg_order": ["p0", "p0"]}
    assert [rep.to_dict() for rep in reports] == before
    again = tmp_path / "after.json"
    cio.save_report("wigner-eckart", reports, 1e-9, 0, {}, again)
    assert again.read_bytes() == out.read_bytes()


def test_copies_of_other_details_share_nothing_editable():
    """Values outside JSON data (tuples, arrays) are copied too."""
    report = Report("t")
    shared = {"pair": ([1.0], "x"), "array": np.zeros(2), "nested": {"list": [[0.5]]}}
    report.extend(["a", "b"], [0.0, 0.0], 1.0, [shared, shared])
    for details in (report.checks[0].details, report["a"].details,
                    report.to_dict()["checks"][0]["details"]):
        details["pair"][0].append(2.0)
        details["array"][0] = 7.0
        details["nested"]["list"][0].append(1.5)
    assert shared["pair"] == ([1.0], "x") and not shared["array"].any()
    assert shared["nested"] == {"list": [[0.5]]}
    assert report.checks[1].details["nested"] == {"list": [[0.5]]}
