"""JSON file formats: algebra specs, group tables, and check reports.

Rank-3 tensors are stored as sparse 5-tuples ``[i, j, k, re, im]`` so the
fixtures stay human-readable; matrices and vectors are dense nested lists of
``[re, im]`` pairs.  Every file carries a top-level ``schema`` tag.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from itertools import repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import le
from pathlib import Path
from typing import Any, Callable, Iterator, TextIO

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


def _compact_dumps(payload: Any) -> str:
    """JSON with innermost scalar lists kept on one line (readable fixtures)."""

    def fmt(obj, depth: int) -> str:
        pad = " " * depth
        inner = " " * (depth + 1)
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


@contextmanager
def _reading(path: str | Path, schema: str):
    """The JSON object in ``path``, checked against ``schema``; a missing key, a wrong
    type or a ragged array met while reading it becomes ``SchemaError``."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: top level is {type(payload).__name__}, not an object")
    if payload.get("schema") != schema:
        raise SchemaError(f"{path}: schema {payload.get('schema')!r}, expected {schema!r}")
    try:
        yield payload
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: missing or malformed entry ({exc!r})") from exc


def load_algebra(path: str | Path) -> HopfAlgebraSpec:
    with _reading(path, ALGEBRA_SCHEMA) as payload:
        n = int(payload["dim"])
        # the dense arrays first: their size in the file bounds n before n^3 is allocated
        arrays = {key: _from_dense(payload[key], shape, key) for key, shape in
                  (("antipode", (n, n)), ("counit", (n,)), ("unit", (n,)), ("star", (n, n)))}
        arrays.update((key, _from_triples(payload[key], (n, n, n), key))
                      for key in ("mult", "comult"))
        label = str(payload.get("label", ""))
    return HopfAlgebraSpec(dim=n, label=label, **arrays)


def save_group(group: GroupTable, path: str | Path) -> None:
    payload = {
        "schema": GROUP_SCHEMA,
        "order": group.order,
        "table": group.table.tolist(),
        "labels": list(group.labels),
    }
    Path(path).write_text(_compact_dumps(payload), encoding="utf-8")


def load_group(path: str | Path) -> GroupTable:
    with _reading(path, GROUP_SCHEMA) as payload:
        order, table = int(payload["order"]), np.asarray(payload["table"], dtype=int)
        labels = tuple(str(x) for x in payload.get("labels", ()))
    return GroupTable(order, table, labels)


def report_payload(operation: str, reports: list[Report], tolerance: float,
                   seed: int, inputs: dict | None = None) -> dict:
    """Machine-readable bundle for one CLI run, as dicts; deterministic given the seed.
    :func:`save_report` writes it as JSON without building it."""
    dicts = [r.to_dict() for r in reports]
    return {
        "schema": REPORT_SCHEMA,
        "operation": operation,
        "inputs": inputs or {},
        "tolerance": tolerance,
        "seed": seed,
        "passed": all(d["passed"] for d in dicts),
        "reports": dicts,
    }


def _sort_keys_encoder() -> Callable[[Any], str]:
    """``json.dumps(obj, sort_keys=True)`` as one encoder, built once and reused."""
    encoder = json.JSONEncoder(sort_keys=True)
    if c_make_encoder is None:  # a json module without its C accelerator
        return encoder.encode
    chunks = c_make_encoder({}, encoder.default, encode_basestring_ascii, None,
                            encoder.key_separator, encoder.item_separator,
                            encoder.sort_keys, encoder.skipkeys, encoder.allow_nan)
    return lambda obj: "".join(chunks(obj, 0))


def _report_json(rep: Report, encode: Callable[[Any], str]) -> Iterator[str]:
    """``json.dumps(rep.to_dict(), sort_keys=True)`` in pieces, read off the columns."""
    residuals, tols = rep._residuals, rep._tols
    verdicts = list(map(le, residuals, tols))
    # each tol object is encoded once, keyed by identity: 0.0 == -0.0 prints apart
    tol_text = {key: encode(tol) for key, tol in dict(zip(map(id, tols), tols)).items()}
    # so is each details object: the absent targets of a Wigner-Eckart pair share one
    heads = {key: f'{{"details": {encode(details)}, ' if details else "{"
             for key, details in dict(zip(map(id, rep._details), rep._details)).items()}
    yield '{"checks": ['
    sep = ""
    # a column is encoded as one list and split: no float or bool text holds ", "
    for name, residual, tol, passed, head in zip(
            map(encode_basestring_ascii, rep._names), encode(residuals)[1:-1].split(", "),
            map(tol_text.__getitem__, map(id, tols)), encode(verdicts)[1:-1].split(", "),
            map(heads.__getitem__, map(id, rep._details))):
        yield (f'{sep}{head}"name": {name}, "passed": {passed}, "residual": {residual}, '
               f'"tol": {tol}}}')
        sep = ", "
    meta = f', "meta": {encode(rep.meta)}' if rep.meta else ""
    yield (f'], "max_residual": {encode(rep.max_residual)}{meta}, "passed": '
           f'{encode(all(verdicts))}, "title": {encode_basestring_ascii(rep.title)}}}')


def save_report(operation: str, reports: list[Report], tolerance: float, seed: int,
                inputs: dict | None, path: str | Path) -> None:
    """Write ``json.dumps(report_payload(...), sort_keys=True)`` to ``path``, report by
    report, straight from each report's columns: no per-check dict is built."""
    encode = _sort_keys_encoder()
    with open(path, "w", encoding="utf-8") as out:
        out.write(f'{{"inputs": {encode(inputs or {})}, "operation": {encode(operation)}, '
                  f'"passed": {encode(all(rep.passed for rep in reports))}, "reports": [')
        for i, rep in enumerate(reports):
            out.write(", " if i else "")
            out.writelines(_report_json(rep, encode))
        out.write(f'], "schema": {encode(REPORT_SCHEMA)}, "seed": {encode(seed)}, '
                  f'"tolerance": {encode(tolerance)}}}')


def report_to_csv(reports: list[Report], out: TextIO) -> None:
    """Write one row per check to the text stream ``out``, report by report, read off
    each report's columns; titles and check names that hold commas are quoted."""
    import csv  # imported here: only the CSV output format needs it

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["report", "check", "residual", "tol", "passed"])
    for rep in reports:
        writer.writerows(zip(repeat(rep.title), rep._names, map("{:.6e}".format, rep._residuals),
                             map("{:.3e}".format, rep._tols), map(le, rep._residuals, rep._tols)))
