"""Residual reports: the uniform result type of every verification routine.

A check never raises on a numerical failure; it records the residual and the
tolerance it was compared against, so the CLI can print exactly which identity
broke and by how much.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

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

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "residual": float(self.residual),
            "tol": float(self.tol),
            "passed": self.passed,
        }
        if self.details:
            out["details"] = self.details
        return out


@dataclass
class Report:
    """A named bundle of checks, e.g. one axiom suite or one identity sweep."""

    title: str
    checks: list[CheckResult] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)

    def add(self, name: str, residual: float, tol: float, **details: Any) -> CheckResult:
        result = CheckResult(name, float(residual), float(tol), details)
        self.checks.append(result)
        return result

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict[str, Any]:
        checks = [c.to_dict() for c in self.checks]  # each verdict evaluated once
        out: dict[str, Any] = {
            "title": self.title,
            "passed": all(c["passed"] for c in checks),
            "max_residual": self.max_residual,
            "checks": checks,
        }
        if self.meta:
            out["meta"] = self.meta
        return out

    def summary(self) -> str:
        verdicts = [c.passed for c in self.checks]
        head = f"{self.title}: {'PASS' if all(verdicts) else 'FAIL'}"
        shown = list(zip(self.checks, verdicts))
        if len(shown) > SUMMARY_CHECKS:
            head += f" ({len(shown)} checks, worst residual {self.max_residual:.3e})"
            shown = [(c, passed) for c, passed in shown if not passed]
        return "\n".join([head] + [
            f"  [{'ok ' if passed else 'BAD'}] {c.name}: residual {c.residual:.3e} "
            f"(tol {c.tol:.1e})" for c, passed in shown])
