"""Residual reports: named residuals, tolerances, and pass/fail verdicts.

Every factorization and generalized inverse ends by checking its own
defining identities; the result is a :class:`ResidualReport` whose JSON
form is stable: ``{operation, checks: [{name, residual, tolerance, pass}],
pass, seconds}``.

An identity ``lhs = rhs`` is measured one way, as max|lhs - rhs| over
all slice entries (:meth:`~tprod.fourier.FourierBlocks.distance`,
recorded by :meth:`ResidualReport.add_identity`).  The reports verify on
the half spectrum: each transforms its input and every factor it is given
once, writes each identity as stacked products of Fourier blocks
0..floor(p/2) (A*X*A = A holds exactly when A_k X_k A_k = A_k for every
block k), and takes the residual blocks to the slices by one certified
irfft per identity.  Each report computes its own default allowances;
:meth:`ResidualReport.with_tolerance` replaces them all at once, which is
how the CLI's ``--tol`` is applied.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

# Decorates every function that verifies on the half spectrum.  An identity
# whose blocks overflow is refused as MathError when it is measured
# (FourierBlocks.distance), so numpy's warnings about the overflow are off;
# one errstate per report costs less than one per block product.
verifying = np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class Check:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass
class ResidualReport:
    """Collected residual checks for one operation."""

    operation: str
    checks: list[Check] = field(default_factory=list)
    seconds: float = 0.0
    _started: float | None = None

    def start(self) -> "ResidualReport":
        self._started = time.perf_counter()
        return self

    def stop(self) -> "ResidualReport":
        if self._started is not None:
            self.seconds = time.perf_counter() - self._started
        return self

    def add(self, name: str, residual: float, tolerance: float) -> Check:
        residual = float(abs(residual))
        check = Check(name, residual, float(tolerance))
        self.checks.append(check)
        return check

    def add_identity(self, name: str, lhs, rhs, tolerance: float) -> Check:
        """Check the identity lhs = rhs of two half spectra
        (:class:`~tprod.fourier.FourierBlocks`) by ``lhs.distance(rhs)``."""
        return self.add(name, lhs.distance(rhs), tolerance)

    def with_tolerance(self, tolerance: float) -> "ResidualReport":
        """The same checks and residuals, each against ``tolerance``."""
        return replace(self, checks=[
            Check(c.name, c.residual, float(tolerance)) for c in self.checks
        ])

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def residual(self, name: str) -> float:
        for c in self.checks:
            if c.name == name:
                return c.residual
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "operation": self.operation,
            "checks": [c.as_dict() for c in self.checks],
            "pass": self.passed,
            "seconds": self.seconds,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            verdict = "PASS" if c.passed else "FAIL"
            lines.append(
                f"  {c.name}: residual={c.residual:.3e} "
                f"tolerance={c.tolerance:.3e} {verdict}"
            )
        lines.append(f"{self.operation}: {'PASS' if self.passed else 'FAIL'}")
        return lines
