"""JSON file formats: algebra specs, group tables, and check reports.

Rank-3 tensors are stored as sparse 5-tuples ``[i, j, k, re, im]`` so the
fixtures stay human-readable; matrices and vectors are dense nested lists of
``[re, im]`` pairs.  Every file carries a top-level ``schema`` tag.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .algebra import HopfAlgebraSpec
from .errors import SchemaError
from .groups import GroupTable
from .report import Report

ALGEBRA_SCHEMA = "cqglab/algebra-v1"
GROUP_SCHEMA = "cqglab/group-v1"
REPORT_SCHEMA = "cqglab/report-v1"

__all__ = [
    "save_algebra", "load_algebra",
    "save_group", "load_group",
    "save_report", "report_payload", "report_to_csv",
]


def _sparse_triples(tensor: np.ndarray) -> list[list]:
    out = []
    for idx in np.argwhere(np.abs(tensor) > 0):
        val = tensor[tuple(idx)]
        out.append([int(i) for i in idx] + [float(val.real), float(val.imag)])
    return out


def _from_triples(triples, shape, what: str) -> np.ndarray:
    tensor = np.zeros(shape, dtype=complex)
    for entry in triples:
        if len(entry) != len(shape) + 2:
            raise SchemaError(f"{what}: malformed sparse entry {entry!r}")
        idx = tuple(int(i) for i in entry[:-2])
        if any(i < 0 or i >= s for i, s in zip(idx, shape)):
            raise SchemaError(f"{what}: index {idx} out of range for shape {shape}")
        tensor[idx] = float(entry[-2]) + 1j * float(entry[-1])
    return tensor


def _dense(arr: np.ndarray) -> Any:
    if arr.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in arr]
    return [_dense(row) for row in arr]


def _compact_dumps(payload: Any, indent: int = 1) -> str:
    """JSON with innermost scalar lists kept on one line (readable fixtures)."""

    def fmt(obj, depth: int) -> str:
        pad = " " * (indent * depth)
        inner = " " * (indent * (depth + 1))
        if isinstance(obj, dict):
            items = [f"{inner}{json.dumps(k)}: {fmt(v, depth + 1)}"
                     for k, v in obj.items()]
            return "{\n" + ",\n".join(items) + f"\n{pad}}}"
        if isinstance(obj, list):
            if all(not isinstance(x, (dict, list)) for x in obj):
                return json.dumps(obj)
            items = [f"{inner}{fmt(v, depth + 1)}" for v in obj]
            return "[\n" + ",\n".join(items) + f"\n{pad}]"
        return json.dumps(obj)

    return fmt(payload, 0) + "\n"


def _from_dense(data, shape, what: str) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.shape != shape + (2,):
        raise SchemaError(f"{what}: expected shape {shape}, got {arr.shape[:-1]}")
    return arr[..., 0] + 1j * arr[..., 1]


def save_algebra(alg: HopfAlgebraSpec, path: str | Path) -> None:
    payload = {
        "schema": ALGEBRA_SCHEMA,
        "dim": alg.dim,
        "label": alg.label,
        "mult": _sparse_triples(alg.mult),
        "comult": _sparse_triples(alg.comult),
        "antipode": _dense(alg.antipode),
        "star": _dense(alg.star),
        "counit": _dense(alg.counit),
        "unit": _dense(alg.unit),
    }
    Path(path).write_text(_compact_dumps(payload), encoding="utf-8")


def load_algebra(path: str | Path) -> HopfAlgebraSpec:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if payload.get("schema") != ALGEBRA_SCHEMA:
        raise SchemaError(f"{path}: schema {payload.get('schema')!r}, "
                          f"expected {ALGEBRA_SCHEMA!r}")
    n = int(payload["dim"])
    return HopfAlgebraSpec(
        dim=n,
        mult=_from_triples(payload["mult"], (n, n, n), "mult"),
        comult=_from_triples(payload["comult"], (n, n, n), "comult"),
        antipode=_from_dense(payload["antipode"], (n, n), "antipode"),
        counit=_from_dense(payload["counit"], (n,), "counit"),
        unit=_from_dense(payload["unit"], (n,), "unit"),
        star=_from_dense(payload["star"], (n, n), "star"),
        label=payload.get("label", ""),
    )


def save_group(group: GroupTable, path: str | Path) -> None:
    payload = {
        "schema": GROUP_SCHEMA,
        "order": group.order,
        "table": group.table.tolist(),
        "labels": list(group.labels),
    }
    Path(path).write_text(_compact_dumps(payload), encoding="utf-8")


def load_group(path: str | Path) -> GroupTable:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if payload.get("schema") != GROUP_SCHEMA:
        raise SchemaError(f"{path}: schema {payload.get('schema')!r}, "
                          f"expected {GROUP_SCHEMA!r}")
    return GroupTable(int(payload["order"]), np.asarray(payload["table"], dtype=int),
                      tuple(payload.get("labels", ())))


def report_payload(operation: str, reports: list[Report], tolerance: float,
                   seed: int, inputs: dict | None = None) -> dict:
    """Machine-readable bundle for one CLI run; deterministic given the seed."""
    return {
        "schema": REPORT_SCHEMA,
        "operation": operation,
        "inputs": inputs or {},
        "tolerance": tolerance,
        "seed": seed,
        "passed": all(r.passed for r in reports),
        "reports": [r.to_dict() for r in reports],
    }


def save_report(payload: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def report_to_csv(payload: dict) -> str:
    lines = ["report,check,residual,tol,passed"]
    for rep in payload["reports"]:
        for chk in rep["checks"]:
            lines.append(f"{rep['title']},{chk['name']},{chk['residual']:.6e},"
                         f"{chk['tol']:.3e},{chk['passed']}")
    return "\n".join(lines) + "\n"
