"""Residual reports: the uniform result type of every verification routine.

A check never raises on a numerical failure; it records the residual and the
tolerance it was compared against, so the CLI can print exactly which identity
broke and by how much.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass, field
from math import isnan, nan
from operator import le
from typing import Any

import numpy as np

# past this many checks, a summary gives the count and worst residual and lists
# only the failing checks
SUMMARY_CHECKS = 50


@dataclass
class CheckResult:
    name: str
    residual: float
    tol: float
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tol)


def _copied(details: dict[str, Any]) -> dict[str, Any]:
    """A details dict that shares nothing with the report's own."""
    return deepcopy(details) if details else {}


class Report:
    """A named bundle of checks, e.g. one axiom suite or one identity sweep.

    The checks are held as columns: names, residuals, tolerances and details.
    A table engine appends a whole table with one :meth:`extend`, and
    :class:`CheckResult` objects are built only when a caller reads
    :attr:`checks` or indexes the report by check name.  Checks may share one
    details object, so :attr:`checks`, indexing and :meth:`to_dict` hand out
    copies of the details.
    """

    def __init__(self, title: str, meta: dict[str, Any] | None = None):
        self.title, self.meta = title, {} if meta is None else meta
        self._names, self._residuals, self._tols, self._details = [], [], [], []

    def add(self, name: str, residual: float, tol: float, **details: Any) -> None:
        self.extend([name], [residual], tol, [details])

    def extend(self, names: list[str], residuals, tol: float,
               details: list[dict[str, Any]] | None = None) -> None:
        """Append one check per name, every residual compared against ``tol``;
        ``details``, when given, holds one dict per check."""
        values = np.asarray(residuals, dtype=float).ravel().tolist()
        if len(values) != len(names) or (details is not None and len(details) != len(names)):
            raise ValueError("a report needs one residual and one details dict per check name")
        self._names += names
        self._residuals += values
        self._tols += [float(tol)] * len(names)
        self._details += [{} for _ in names] if details is None else details

    @property
    def checks(self) -> list[CheckResult]:
        """The checks as :class:`CheckResult` objects, built on each read."""
        return list(map(CheckResult, self._names, self._residuals, self._tols,
                        map(_copied, self._details)))

    def __getitem__(self, name: str) -> CheckResult:
        for row in zip(self._names, self._residuals, self._tols, self._details):
            if row[0] == name:
                return CheckResult(*row[:3], _copied(row[3]))
        raise KeyError(name)

    @property
    def passed(self) -> bool:
        return all(map(le, self._residuals, self._tols))

    @property
    def max_residual(self) -> float:
        """The largest residual: NaN when any residual is NaN, 0.0 with no checks."""
        return nan if any(map(isnan, self._residuals)) else max(self._residuals, default=0.0)

    def to_dict(self) -> dict[str, Any]:
        verdicts = list(map(le, self._residuals, self._tols))
        checks = [{"name": name, "residual": residual, "tol": tol, "passed": passed}
                  for name, residual, tol, passed
                  in zip(self._names, self._residuals, self._tols, verdicts)]
        for check, details in zip(checks, self._details):
            if details:
                check["details"] = _copied(details)
        out: dict[str, Any] = {
            "title": self.title,
            "passed": all(verdicts),
            "max_residual": self.max_residual,
            "checks": checks,
        }
        if self.meta:
            out["meta"] = self.meta
        return out

    def summary(self, brief: bool = False) -> str:
        """The verdict line and every check; when ``brief`` or past ``SUMMARY_CHECKS``
        checks, the check count and worst residual and only the failing checks."""
        verdicts = list(map(le, self._residuals, self._tols))
        head = f"{self.title}: {'PASS' if all(verdicts) else 'FAIL'}"
        shown = range(len(verdicts))
        if brief or len(verdicts) > SUMMARY_CHECKS:
            head += f" ({len(verdicts)} checks, worst residual {self.max_residual:.3e})"
            shown = [i for i, passed in enumerate(verdicts) if not passed]
        return "\n".join([head] + [
            f"  [{'ok ' if verdicts[i] else 'BAD'}] {self._names[i]}: residual "
            f"{self._residuals[i]:.3e} (tol {self._tols[i]:.1e})" for i in shown])
