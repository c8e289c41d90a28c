"""Residual reports: named residuals, tolerances, and pass/fail verdicts.

Every factorization and generalized inverse ends by checking its own
defining identities; the result is a :class:`ResidualReport` whose JSON
form is stable: ``{operation, checks: [{name, residual, tolerance, pass}],
pass, seconds}``.

An identity ``lhs = rhs`` is measured one way, as max|lhs - rhs| over
all slice entries (``distance``, recorded by
:meth:`ResidualReport.add_identity`), in one of two equal forms chosen by
size (:func:`~tprod.fourier.operands`, under the rule
:data:`~tprod.core.DIRECT_PATH_LIMIT` by which ``tprod`` picks its path).
At desk scale, p * max(m, n) within the limit, a report verifies on the
slices (:class:`~tprod.fourier.SliceStack`): each product is a
block-circulant product, as ``tprod``'s direct path forms it, and no
transform runs.  Above it a report verifies on the half spectrum
(:class:`~tprod.fourier.FourierBlocks`): it transforms every factor it is
given once, finds its input's transform kept from the op
(:func:`~tprod.fourier.to_fourier`), writes each identity as stacked
products of Fourier blocks 0..floor(p/2) (A*X*A = A holds exactly when
A_k X_k A_k = A_k for every block k), and takes the residual blocks to the
slices by one certified irfft per identity.  Four reports verify on the
half spectrum at every size: tjordan_report and witness_report, which
invert a factor blockwise, and drazin_report and group_report, whose outer
identity X*A*X = X has, for a large X, a residual that is rounding the
size of its allowance, so that its verdict would follow the domain.
Each report computes its own default allowances;
:meth:`ResidualReport.with_tolerance` replaces them all at once, which is
how the CLI's ``--tol`` is applied.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

# Decorates the checks that are not reports (t-symmetry, orthogonality) with
# the error state a report enters.
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
    """Collected residual checks for one operation; as a context manager,
    the verification that collects them (see the module docstring)."""

    operation: str
    checks: list[Check] = field(default_factory=list)
    seconds: float = 0.0

    def __enter__(self) -> "ResidualReport":
        self._quiet = np.errstate(over="ignore", invalid="ignore")
        self._quiet.__enter__()
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._started
        self._quiet.__exit__(*exc)

    def add(self, name: str, residual: float, tolerance: float) -> Check:
        residual = float(abs(residual))
        check = Check(name, residual, float(tolerance))
        self.checks.append(check)
        return check

    def add_identity(self, name: str, lhs, rhs, tolerance: float) -> Check:
        """Check the identity lhs = rhs of two operands of one domain
        (:class:`~tprod.fourier.SliceStack` or
        :class:`~tprod.fourier.FourierBlocks`) by ``lhs.distance(rhs)``."""
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
