"""Shared fixtures: the two counterexample tensors and small helpers."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from tprod import Tensor3, read_tensor

FIXTURES = Path(__file__).parent / "fixtures"

# Property tests draw the same examples on every run, and no example fails
# for taking long on a slow or busy machine.
settings.register_profile("tprod", deadline=None, derandomize=True)
settings.load_profile("tprod")


@pytest.fixture(scope="session")
def svd_example() -> Tensor3:
    """Slices I, diag(-1, 0), I, diag(0, 1); Fourier block 2 is i*I."""
    return read_tensor(FIXTURES / "paper_svd_example.tns")


@pytest.fixture(scope="session")
def jordan_example() -> Tensor3:
    """The 2x2x4 tensor whose unpaired Jordan assembly is not real."""
    return read_tensor(FIXTURES / "paper_jordan_example.tns")


def max_abs(arr) -> float:
    return float(np.abs(np.asarray(arr)).max())


def tensor_close(a: Tensor3, b: Tensor3, atol: float) -> bool:
    return a.dims == b.dims and max_abs(a.array - b.array) <= atol
