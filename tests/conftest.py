"""Shared fixtures: the two counterexample tensors and small helpers.

A matrix a is the tensor ``Tensor3(a[None])`` with p = 1.  The matrix
references below run the stack kernels on the stack of one, ``a[None]``,
which also takes a complex matrix, such as a Fourier block.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from tprod import FourierBlocks, Tensor3, assemble_real, kernels, read_tensor, to_fourier

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


def matrix_cutoff(a) -> kernels.RankCutoff:
    """The rank cutoff of the matrix a: the tensor rule at p = 1."""
    return kernels.rank_cutoff(kernels.singular_values(a), (*a.shape, 1))


def pinv_of_one(a, cutoff: kernels.RankCutoff) -> np.ndarray:
    """The pseudoinverse of a, zero at or below the cutoff."""
    u, sigma, vh = kernels.svd_reduced(a[None])
    return kernels.pinv_from_svd(u, sigma, vh, cutoff.at())[0]


def drazin_of_one(a, cutoff: kernels.RankCutoff) -> tuple[np.ndarray, int]:
    """The Drazin inverse of a square a and its index at the cutoff."""
    stack = a[None]
    ad, index = kernels.drazin_stack(stack, cutoff,
                                     kernels.singular_values(stack))
    return ad[0], int(index[0])


def group_of_one(a, cutoff: kernels.RankCutoff) -> np.ndarray:
    """The group inverse of a square a at the cutoff, or the
    GroupInverseNotExist that ``t_group`` raises, decided from a's index."""
    stack = a[None]
    index, powers = kernels.drazin_indices(stack, cutoff,
                                           kernels.singular_values(stack))
    if index[0] > 1:
        raise kernels.no_group_inverse(a, cutoff)
    return kernels.drazin_from_powers(stack, cutoff, index, powers)[0]


def place_sigma_min(a: Tensor3, k: int, factor: float) -> Tensor3:
    """a with the smallest singular value of its Fourier block k (k taken
    modulo the p // 2 + 1 stored blocks) set to ``factor`` times the
    tensor's rank cutoff (:func:`kernels.rank_cutoff`), to the rounding
    of one transform.  The cutoff's scale is that of the other singular
    values, which the change leaves as they are."""
    fa = to_fourier(a)
    k %= len(fa.blocks)
    (sigma,) = fa.map(kernels.singular_values)
    scale = np.delete(sigma, k, axis=0)[:, 0].max(initial=0.0)
    if sigma.shape[1] > 1:
        scale = max(scale, sigma[k, 0])
    u, s, vh = np.linalg.svd(fa.block(k))
    s[-1] = factor * kernels.rank_cutoff(sigma, a.dims).rtol * scale
    blocks = np.array(fa.blocks)
    blocks[k] = (u * s) @ vh
    return assemble_real(FourierBlocks(blocks, fa.p))[0]
