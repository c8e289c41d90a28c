"""One finite-input rule for every matrix kernel.

A finite tensor whose Fourier transform overflows hands non-finite blocks
to the kernels.  LAPACK's drivers assume finite input: numpy's svd does
not return on a real matrix holding inf, and other drivers print to the
terminal or return garbage.  So every kernel refuses such a stack with one
ValueError before any driver runs, and every op reports it as a
BlockOpError naming the first non-finite Fourier block.
"""

import numpy as np
import pytest

from tprod import (
    BlockOpError,
    Tensor3,
    gen,
    idempotent_factorization,
    scalar_mul,
    t_drazin,
    t_group,
    t_index,
    t_inverse,
    t_jordan,
    t_pinv,
    t_pinv_svd,
    t_schur,
    t_svd,
    to_fourier,
    unit_regular_witness,
    write_tensor,
)
from tprod.cli import cli_main
from tprod.kernels import (
    jordan_real,
    matrix_index,
    mp_inverse,
    schur_real_ordered,
    svd,
)

NON_FINITE = "matrix entries must be finite"

OPS = [
    t_svd,
    t_pinv,
    t_pinv_svd,
    idempotent_factorization,
    unit_regular_witness,
    t_schur,
    t_jordan,
    t_inverse,
    t_drazin,
    t_group,
    t_index,
]


@pytest.fixture(autouse=True)
def lapack_refuses_non_finite(monkeypatch):
    """numpy's svd, eig and eigh fail at once on non-finite input, so a
    kernel that lets such input through fails fast instead of hanging."""
    for name in ("svd", "eig", "eigh"):
        original = getattr(np.linalg, name)

        def guarded(a, *args, _original=original, _name=name, **kwargs):
            if not np.isfinite(a).all():
                raise AssertionError(f"non-finite input reached {_name}")
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, guarded)


def first_non_finite_block(a: Tensor3) -> int:
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = np.fft.rfft(a.array, axis=0)
    return int(np.flatnonzero(~np.isfinite(blocks).all(axis=(1, 2)))[0])


def alternating(x: np.ndarray, p: int) -> Tensor3:
    """Slices x, 0, -x, 0 (p = 4) or x, -x (p = 2): block 0 is zero and
    block 1 is 2x, so at |x| near 1e308 only block 1 overflows."""
    slices = [x, -x] if p == 2 else [x, 0 * x, -x, 0 * x]
    return Tensor3(np.stack(slices))


def overflowing_inputs():
    """(tensor, its first non-finite block): general and Hermitian routes,
    odd and even p, with the first overflow at block 0 or 1."""
    x = gen(3, 2, 2, 1).array[0]
    x = 1e308 * (x / np.abs(x).max())  # |2x| overflows, |x| does not
    sym = x / 2 + x.T / 2
    cases = []
    for kind in ("dense", "t_symmetric"):
        for p in (3, 4):
            a = scalar_mul(1e308, gen(5, 3, 3, p, kind))
            cases.append(pytest.param(a, 0, id=f"{kind}-p{p}"))
    for p in (2, 4):
        cases.append(pytest.param(alternating(x, p), 1, id=f"dense-1-p{p}"))
        cases.append(
            pytest.param(alternating(sym, p), 1, id=f"t_symmetric-1-p{p}"))
    return cases


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.__name__)
@pytest.mark.parametrize("a, block", overflowing_inputs())
def test_overflowing_transform_is_named_at_its_first_block(op, a, block, capfd):
    assert first_non_finite_block(a) == block
    with pytest.raises(BlockOpError, match=NON_FINITE) as excinfo:
        op(a)
    assert excinfo.value.block_index == block
    assert type(excinfo.value.__cause__) is ValueError
    # LAPACK's own error printer (xerbla) never runs
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("op", [t_svd, t_pinv, t_pinv_svd],
                         ids=lambda op: op.__name__)
@pytest.mark.parametrize("dims", [(2, 3, 4), (3, 2, 5)])
def test_rectangular_overflow_is_named(op, dims):
    a = scalar_mul(1e308, gen(1, *dims))
    block = first_non_finite_block(a)
    with pytest.raises(BlockOpError, match=NON_FINITE) as excinfo:
        op(a)
    assert excinfo.value.block_index == block


def test_one_by_one_pinv_with_an_overflowing_dc_block():
    # the Nyquist block is 0 and the DC block 2e308 = inf; the pseudoinverse
    # of inf used to come back as a zero tensor
    with pytest.raises(BlockOpError, match=NON_FINITE) as excinfo:
        t_pinv(Tensor3([[[1e308]], [[1e308]]]))
    assert excinfo.value.block_index == 0


def test_forward_transform_keeps_an_overflow_without_warning():
    fb = to_fourier(scalar_mul(1e308, gen(0, 3, 3, 4)))
    assert not np.isfinite(fb.blocks[0]).all()


@pytest.mark.parametrize(
    "twin", [mp_inverse, svd, jordan_real, schur_real_ordered, matrix_index],
    ids=lambda f: f.__name__)
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_matrix_kernels_refuse_non_finite_entries(twin, bad):
    with pytest.raises(ValueError, match=NON_FINITE):
        twin(np.array([[bad, 1.0], [0.0, 1.0]]))


def test_cli_names_the_block_of_an_overflowing_transform(tmp_path, capsys):
    a = tmp_path / "big.tns"
    write_tensor(a, scalar_mul(1e308, gen(0, 3, 3, 4)))
    code = cli_main(["pinv", str(a), "-o", str(tmp_path / "X.tns")])
    assert code == 3
    assert "Fourier block 0" in capsys.readouterr().err
