"""Tests for the tensor generalized inverses."""

import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from tprod import (
    BlockOpError,
    FourierBlocks,
    GroupInverseNotExist,
    MathError,
    ResidualReport,
    Singular,
    Tensor3,
    TprodError,
    assemble_real,
    bcirc,
    gen,
    scalar_mul,
    t_drazin,
    t_group,
    t_index,
    t_inverse,
    t_pinv,
    t_pinv_blocks,
    t_pinv_svd,
    to_fourier,
    tprod,
    transpose,
    unit_regular_witness,
)
from tprod import core, factorizations, ginverses, kernels
from tprod.generate import KINDS
from tprod.ginverses import (
    group_report,
    inverse_report,
    penrose_report,
    witness_report,
)

from conftest import (
    drazin_of_one,
    group_of_one,
    matrix_cutoff,
    max_abs,
    place_sigma_min,
)


def nilpotent_block_tensor() -> Tensor3:
    """p = 1 tensor whose single Fourier block is nilpotent."""
    return Tensor3(np.array([[[0.0, 1.0], [0.0, 0.0]]]))


MIXED_INDICES = (0, 1, 0, 2)


def mixed_index_tensor(p: int = 6) -> Tensor3:
    """3x3xp tensor, p even and at least 6, made from its Fourier blocks
    0..p/2.  Blocks 0..3 have the Drazin indices MIXED_INDICES: invertible
    at the real-forced block 0 and the complex block 2, index 1 at the
    complex block 1 and index 2 at block 3, the Nyquist block at p = 6.
    The blocks after 3 are copies of block 0, so above p = 6 both
    real-forced blocks are invertible and the complex ones are not."""
    s = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.5], [0.5, 0.0, 1.0]])
    s_inv = np.linalg.inv(s)
    head = [
        np.array([[2.0, 1.0, 0.0], [0.0, 3.0, 1.0], [1.0, 0.0, 2.0]]),
        s @ np.diag([1 + 1j, 2 - 0.5j, 0]) @ s_inv,
        np.array([[3, 1j, 0], [0.5, 2 - 1j, 1], [0, 1, 4]]),
        s @ np.array([[1.5, 0, 0], [0, 0, 1], [0, 0, 0]]) @ s_inv,
    ]
    blocks = np.stack(head + head[:1] * (p // 2 - 3))
    return assemble_real(FourierBlocks(blocks, p))[0]


class TestTInverse:
    def test_identity(self):
        eye = Tensor3.identity(3, 4)
        assert max_abs((t_inverse(eye) - eye).array) <= 1e-14

    def test_tube_example(self):
        # slices (2, 1): Fourier blocks 3 and 1, inverse blocks 1/3 and 1,
        # giving slices (2/3, -1/3)
        a = Tensor3(np.array([2.0, 1.0]).reshape(2, 1, 1))
        x = t_inverse(a)
        np.testing.assert_allclose(
            x.array.ravel(), [2.0 / 3.0, -1.0 / 3.0], atol=1e-14
        )
        eye = Tensor3.identity(1, 2)
        assert max_abs((tprod(a, x) - eye).array) <= 1e-14

    def test_seeded_residuals(self):
        for seed in range(25):
            n, p = 3 + seed % 2, 1 + seed % 6
            a = gen(seed, n, n, p)
            x = t_inverse(a)
            eye = Tensor3.identity(n, p)
            assert max_abs((tprod(a, x) - eye).array) <= 1e-10 * (
                1 + a.max_abs
            ) ** 2
            assert max_abs((tprod(x, a) - eye).array) <= 1e-10 * (
                1 + a.max_abs
            ) ** 2

    def test_bcirc_transport(self):
        a = gen(3, 3, 3, 4)
        x = t_inverse(a)
        assert max_abs(
            bcirc(x).matrix - np.linalg.inv(bcirc(a).matrix)
        ) <= 1e-9

    def test_singular_reports_block(self):
        with pytest.raises(Singular) as excinfo:
            t_inverse(Tensor3.zeros(2, 2, 3))
        assert excinfo.value.block_index == 0
        assert excinfo.value.sigma_min == 0.0

    def test_rank_deficient_rejected(self):
        a = gen(5, 4, 4, 3, "rank_deficient")
        with pytest.raises(Singular):
            t_inverse(a)


class TestTPinv:
    def test_zero_tensor(self):
        x = t_pinv_svd(Tensor3.zeros(3, 2, 4))
        assert x.dims == (2, 3, 4)
        assert max_abs(x.array) <= 1e-14

    def test_orthogonal_tensor_gives_transpose(self):
        from tprod import t_svd

        q = t_svd(gen(7, 4, 4, 3)).u  # orthogonal factor
        x = t_pinv_blocks(q)
        assert max_abs((x - transpose(q)).array) <= 1e-10

    def test_route_agreement(self):
        for seed in range(50):
            m, n, p = 3, 2 + seed % 3, 1 + seed % 6
            kind = "rank_deficient" if seed % 2 else "dense"
            a = gen(seed, m, n, p, kind)
            x1 = t_pinv_blocks(a)
            x2 = t_pinv_svd(a)
            assert max_abs((x1 - x2).array) <= 1e-9

    def test_penrose_identities(self):
        for seed in range(20):
            kind = "rank_deficient" if seed % 2 else "dense"
            a = gen(seed, 3, 3, 4, kind)
            x = t_pinv(a)
            report = penrose_report(a, x)
            assert report.passed

    def test_rectangular_penrose(self):
        for seed in range(10):
            a = gen(seed, 2, 5, 3)
            x = t_pinv_blocks(a)
            assert x.dims == (5, 2, 3)
            assert penrose_report(a, x).passed

    def test_bcirc_transport(self):
        for seed in range(10):
            a = gen(seed, 3, 4, 3)
            x = t_pinv_blocks(a)
            oracle = np.linalg.pinv(bcirc(a).matrix)
            assert max_abs(bcirc(x).matrix - oracle) <= 1e-9

    def test_f_diagonal_reciprocal(self):
        # for an f-diagonal tensor the Fourier blocks are diagonal, so the
        # pseudoinverse blocks are entrywise reciprocals of the diagonals
        a = gen(9, 3, 3, 4, "f_diagonal")
        x = t_pinv_blocks(a)
        from tprod import to_fourier

        blocks_a = to_fourier(a).full()
        blocks_x = to_fourier(x).full()
        for k in range(4):
            diag = np.diagonal(blocks_a[k])
            recip = np.array(
                [1.0 / d if abs(d) > 1e-12 else 0.0 for d in diag]
            )
            assert max_abs(blocks_x[k] - np.diag(recip)) <= 1e-10

    def test_result_is_real_tensor(self):
        x = t_pinv_blocks(gen(3, 4, 2, 5))
        assert isinstance(x, Tensor3)
        assert not np.iscomplexobj(x.array)


class TestTDrazin:
    def test_invertible_matches_inverse(self):
        a = gen(2, 3, 3, 4)
        res = t_drazin(a)
        assert res.index == 0
        np.testing.assert_array_equal(res.ad.array, t_inverse(a).array)
        assert res.report.passed

    @settings(max_examples=60)
    @given(
        n=st.integers(1, 5),
        p=st.integers(1, 9),
        kind=st.sampled_from(("dense", "t_symmetric")),
        seed=st.integers(0, 2**16),
        e=st.integers(-300, 300),
    )
    def test_invertible_is_the_t_inverse_at_any_scale(self, n, p, kind, seed, e):
        # an index-0 block is inverted by t_inverse's own LU kernel, so
        # the Drazin and group inverses are the t-inverse bit for bit
        a = scalar_mul(2.0**e, gen(seed, n, n, p, kind))
        try:
            inv = t_inverse(a).array
        except Singular:
            reject()
        res = t_drazin(a)
        assert res.index == 0
        np.testing.assert_array_equal(res.ad.array, inv)
        np.testing.assert_array_equal(t_group(a).array, inv)
        # well below scale 1 the absolute allowance fails correct inverses
        # (test_report_passes_the_inverse_of_a_tiny_tensor)
        if e >= 0:
            assert res.report.passed

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
    def test_report_passes_the_inverse_of_a_tiny_tensor(self):
        # |X| ~ 2^200, and the absolute allowance 1e-9 * (1 + max|a|)^2 * p
        # sits far below the rounding of X*A*X, so the exact t-inverse
        # fails outer_identity; normwise residuals would pass it
        a = scalar_mul(2.0**-200, gen(2, 3, 3, 4))
        res = t_drazin(a)
        np.testing.assert_array_equal(res.ad.array, t_inverse(a).array)
        assert res.report.passed

    def test_mixed_indices_take_both_routes(self):
        a = mixed_index_tensor()
        res = t_drazin(a)
        assert res.index == max(MIXED_INDICES)
        assert res.report.passed
        fa, fd = to_fourier(a), to_fourier(res.ad)
        sigma = np.stack([kernels.singular_values(fa.block(k)) for k in range(4)])
        cutoff = kernels.rank_cutoff(sigma, a.dims)
        for k, index in enumerate(MIXED_INDICES):
            block = fa.block(k)
            oracle, block_index = drazin_of_one(block, cutoff)
            assert block_index == index
            if index == 0:
                oracle = np.linalg.inv(block)
            assert max_abs(fd.block(k) - oracle) <= 1e-13 * max_abs(oracle)

    def test_invertible_runs_no_svd_with_vectors(self, monkeypatch):
        calls = []
        svd_reduced = kernels.svd_reduced

        def counting_svd_reduced(x):
            calls.append(x.shape)
            return svd_reduced(x)

        monkeypatch.setattr("tprod.kernels.svd_reduced", counting_svd_reduced)
        a = gen(2, 3, 3, 4)
        t_drazin(a)
        t_group(a)
        assert calls == []
        # the guard is live: an index-1 tensor still takes the SVD route
        rd = gen(10, 2, 2, 4, "rank_deficient")
        t_drazin(rd)
        assert len(calls) >= 1
        calls.clear()
        t_group(rd)
        assert len(calls) >= 1

    def test_invertible_runs_no_index_machinery(self, monkeypatch):
        calls = []
        for name in ("drazin_indices", "drazin_stack"):
            kernel = getattr(kernels, name)

            def counting(*args, _name=name, _kernel=kernel, **kwargs):
                calls.append(_name)
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(f"tprod.kernels.{name}", counting)
        for kind in ("dense", "t_symmetric"):
            a = gen(3, 3, 3, 5, kind)
            assert t_drazin(a).index == t_index(a) == 0
            t_group(a)
        assert calls == []
        # tensors with a block of index >= 1 keep the index route
        for a in (mixed_index_tensor(), gen(10, 2, 2, 4, "rank_deficient")):
            for op in (t_drazin, t_group, t_index):
                calls.clear()
                try:
                    op(a)
                except GroupInverseNotExist:
                    pass
                assert calls

    @settings(max_examples=80)
    @given(
        n=st.integers(1, 5),
        p=st.integers(1, 9),
        kind=st.sampled_from(("dense", "t_symmetric", "rank_deficient")),
        seed=st.integers(0, 2**16),
        k=st.integers(0, 4),
        e=st.floats(0.0, 18.0),
    )
    def test_index_zero_is_decided_as_t_inverse_decides_it(
        self, n, p, kind, seed, k, e
    ):
        # one Fourier block scaled toward the rank cutoff by 10^-e
        fb = to_fourier(gen(seed, n, n, p, kind))
        blocks = np.array(fb.blocks)
        blocks[k % len(blocks)] *= 10.0**-e
        a = assemble_real(FourierBlocks(blocks, p))[0]
        fa = to_fourier(a)
        spec = ginverses._Spectrum(fa, kernels.singular_values)
        sigma, cutoff = spec.sigma, spec.cutoff
        (index,) = fa.map(
            lambda b, s: kernels.drazin_indices(b, cutoff, s)[0], sigma)
        invertible = bool(cutoff.invertible(sigma).all())
        assert invertible == bool((index == 0).all())
        try:
            inv = t_inverse(a).array
        except Singular:
            assert not invertible
            assert t_index(a) == t_drazin(a).index == int(index.max()) > 0
            return
        assert invertible
        res = t_drazin(a)
        assert res.index == t_index(a) == 0
        np.testing.assert_array_equal(res.ad.array, inv)
        np.testing.assert_array_equal(t_group(a).array, inv)

    def test_report_power_identity_is_a_times_ad_at_index_zero(self):
        # at index 0 the power identity (A^0*A)*A^D = A^0 is measured as
        # A*A^D = I, to the same residual
        for n in range(1, 6):
            for p in range(1, 10):
                for kind in ("dense", "t_symmetric", "rank_deficient"):
                    a = gen(7 * n + p, n, n, p, kind)
                    res = t_drazin(a)
                    fa, fd = to_fourier(a), to_fourier(res.ad)
                    ak = fa.power(res.index)
                    old = (ak @ fa @ fd).distance(ak)
                    assert res.report.residual("power_identity") == old

    def test_nilpotent_block(self):
        res = t_drazin(nilpotent_block_tensor())
        assert res.index == 2
        assert max_abs(res.ad.array) == 0.0
        assert res.report.passed

    def test_bcirc_transport(self):
        for seed in range(10):
            a = gen(seed, 3, 3, 3)
            res = t_drazin(a)
            oracle = t_drazin(Tensor3(bcirc(a).matrix[None]))
            assert res.index == oracle.index
            assert max_abs(bcirc(res.ad).matrix - oracle.ad.array[0]) <= 1e-9

    def test_index_matches_bcirc_rank_stabilization(self):
        for a in [
            nilpotent_block_tensor(),
            gen(4, 3, 3, 2),
            gen(5, 4, 4, 3, "rank_deficient"),
        ]:
            big = bcirc(a).matrix
            prev = big.shape[0]
            power = np.eye(big.shape[0])
            brute = None
            for k in range(big.shape[0] + 1):
                power = power @ big
                rank = np.linalg.matrix_rank(power)
                if rank == prev:
                    brute = k
                    break
                prev = rank
            assert t_index(a) == brute
            assert t_drazin(a).index == brute

    def test_index_agrees_with_drazin_on_real_forced_block(self):
        # both ops decide through one routine at the tensor's rank cutoff,
        # which sits above the transform noise of block 0's rank-1 square
        a = gen(10, 2, 2, 4, "rank_deficient")
        result = t_drazin(a)
        assert result.index == t_index(a) == 1
        assert result.report.passed

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_index_and_result_invariant_under_tiny_scale(self):
        # at scale 1e-200 the index comes out 2 and the rescaled result is
        # off by 0.97 in max-abs, though its own report passes
        a = gen(5, 3, 3, 4, "rank_deficient")
        ref = t_drazin(a)
        small = t_drazin(scalar_mul(1e-200, a))
        assert ref.index == small.index == 1
        rescaled = scalar_mul(1e-200, small.ad)
        assert max_abs((rescaled - ref.ad).array) <= 1e-9 * ref.ad.max_abs


class TestTGroup:
    def test_invertible_matches_inverse(self):
        a = gen(6, 3, 3, 2)
        g = t_group(a)
        np.testing.assert_array_equal(g.array, t_inverse(a).array)

    def test_nilpotent_block_rejected(self):
        with pytest.raises(GroupInverseNotExist) as excinfo:
            t_group(nilpotent_block_tensor())
        assert excinfo.value.block_index == 0

    def test_existence_decided_before_the_odd_power_overflows(self):
        # index 2: A^k = s^k e_11 for k >= 2, so the A^3 of the index pass
        # is finite, the A^5 a Drazin inverse would form is not at s = 1e70,
        # and no group inverse exists at any s
        errors = []
        for s in (1.0, 1e50, 1e70):
            a = Tensor3(np.array([[[s, 0, 0], [0, 0, s], [0, 0, 0]]]))
            assert t_index(a) == 2
            with pytest.raises(GroupInverseNotExist) as excinfo:
                t_group(a)
            errors.append(excinfo.value)
            with pytest.raises(GroupInverseNotExist):
                group_of_one(a.array[0], matrix_cutoff(a.array[0]))
        for exc in errors:
            assert exc.block_index == 0
            assert (exc.rank, exc.rank_sq) == (2, 1)
        # across batches: real-forced block 0 has index 1 and an A^3 beyond
        # the float64 range, complex block 1 has index 2; existence is
        # decided from both before block 0's inverse is formed
        blocks = np.zeros((2, 3, 3), dtype=complex)
        blocks[0] = np.diag([1e110, 0, 0])
        blocks[1] = [[1e100, 0, 0], [0, 0, 1e100], [0, 0, 0]]
        a = assemble_real(FourierBlocks(blocks, 3))[0]
        assert t_index(a) == 2
        with pytest.raises(GroupInverseNotExist) as excinfo:
            t_group(a)
        assert excinfo.value.block_index == 1

    def test_matches_drazin_when_exists(self):
        for seed in range(10):
            a = gen(seed, 4, 4, 3, "rank_deficient")
            try:
                g = t_group(a)
            except GroupInverseNotExist:
                continue
            res = t_drazin(a)
            assert res.index <= 1
            assert max_abs((g - res.ad).array) <= 1e-9

    def test_existence_matches_blockwise_rank_condition(self):
        from tprod import to_fourier

        for seed in range(10):
            a = gen(seed + 50, 4, 4, 3, "rank_deficient")
            blocks = to_fourier(a).full()
            expected = True
            for k in range(3):
                try:
                    group_of_one(blocks[k], matrix_cutoff(blocks[k]))
                except GroupInverseNotExist:
                    expected = False
                    break
            try:
                t_group(a)
                got = True
            except GroupInverseNotExist:
                got = False
            assert got == expected


class TestUnitRegularWitness:
    def test_invertible_gives_inverse(self):
        a = gen(8, 3, 3, 4)
        res = unit_regular_witness(a)
        assert res.report.passed
        assert max_abs((res.w - t_inverse(a)).array) <= 1e-9

    def test_zero_tensor(self):
        a = Tensor3.zeros(3, 3, 2)
        res = unit_regular_witness(a)
        assert res.report.passed
        assert max_abs((tprod(tprod(a, res.w), a) - a).array) == 0.0

    def test_seeded_mixed_ranks(self):
        for seed in range(200):
            kind = "rank_deficient" if seed % 2 else "dense"
            n, p = 3 + seed % 2, 1 + seed % 5
            a = gen(seed, n, n, p, kind)
            res = unit_regular_witness(a)
            residual = max_abs((tprod(tprod(a, res.w), a) - a).array)
            assert residual <= 1e-9 * (1 + a.max_abs) ** 2 * p
            t_inverse(res.w)  # must not raise

    def test_lu_singular_block_raises_singular(self):
        # Fourier block 1 is [[1, 1], [1, 1]] up to a 1e-13 imaginary part,
        # which hides the singularity from a complex SVD; LU on the real
        # block meets an exact zero pivot
        w = Tensor3(np.array([
            [[1001.0, 1.0], [1.0, 1001.0]],
            [[1000.0, 0.0], [0.0, 1000.0]],
        ]))
        with pytest.raises(Singular) as excinfo:
            witness_report(Tensor3.identity(2, 2), w)
        assert excinfo.value.block_index == 1
        assert str(excinfo.value).count("Fourier block 1") == 1

    @pytest.mark.parametrize("e", [-10, 0, 10])
    def test_report_passes_near_unit_scale(self, e):
        a = scalar_mul(2.0**e, gen(5, 3, 3, 4, "rank_deficient"))
        assert unit_regular_witness(a).report.passed

    # d = 1 at or below the cutoff is not scale-equivariant, and neither is
    # rank_normal_factors' padding with ones, so cond(w) grows with
    # max(c, 1/c) for scale c: at 2^-30 witness_invertibility fails, at
    # 2^-50 and 2^50 w is refused as Singular at block 0
    @pytest.mark.xfail(strict=True, raises=(AssertionError, Singular),
                       reason="ROADMAP item 1")
    @pytest.mark.parametrize("e", [-50, -30, 50])
    def test_report_passes_at_power_of_two_scales(self, e):
        a = scalar_mul(2.0**e, gen(5, 3, 3, 4, "rank_deficient"))
        assert unit_regular_witness(a).report.passed

    def test_witness_from_factorization(self):
        a = gen(13, 3, 3, 3, "rank_deficient")
        res = unit_regular_witness(a)
        recon = tprod(tprod(res.u, res.e), res.v)
        assert max_abs((recon - a).array) <= 1e-9
        winv = t_inverse(res.w)
        expected = tprod(res.u, res.v)
        assert max_abs((winv - expected).array) <= 1e-8


class TestOwnBlockSvds:
    """The svd-route pseudoinverse and the witness run on the block SVDs of
    their input, not through a whole factorization and its report."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        names = ("t_svd", "tsvd_report", "idempotent_factorization",
                 "idem_report", "tprod")
        for module in (core, factorizations, ginverses):
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    continue

                def counted(*args, _name=name, _original=original, **kwargs):
                    made.append(_name)
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
        return made

    @pytest.mark.parametrize("p", [1, 4, 5])
    def test_svd_route_pinv_makes_no_t_svd_or_tprod_call(self, calls, p):
        for a in (gen(60 + p, 3, 3, p, "rank_deficient"), gen(70 + p, 2, 3, p)):
            assert penrose_report(a, t_pinv(a, route="svd")).passed
        assert calls == []

    @pytest.mark.parametrize("p", [1, 4, 5])
    def test_witness_makes_no_idempotent_factorization_call(self, calls, p):
        for kind in ("dense", "rank_deficient"):
            assert unit_regular_witness(gen(80 + p, 3, 3, p, kind)).report.passed
        assert calls == []


class TestDecisionBudget:
    """The LAPACK calls (``kernels._lapack``, by function) and the rank
    cutoffs (``kernels.rank_cutoff``) each op takes.  An op takes one
    cutoff per tensor it judges, its report included: the witness judges
    a and then, in witness_report, w (above desk scale by the certified
    inverse, with no cutoff), and tjordan_report judges p.  The decisions
    add no SVD pass to the one the op runs."""

    OPS = {
        "t_svd": factorizations.t_svd,
        "t_schur": factorizations.t_schur,
        "t_jordan": factorizations.t_jordan,
        "idem": factorizations.idempotent_factorization,
        "t_inverse": t_inverse,
        "t_pinv_blocks": t_pinv_blocks,
        "t_pinv_svd": t_pinv_svd,
        "t_drazin": t_drazin,
        "t_index": t_index,
        "t_group": t_group,
        "witness": unit_regular_witness,
    }

    # per op, on 3x3x4 inputs (a real-forced and a complex batch) and
    # mixed_index_tensor(); t_schur runs gees outside kernels._lapack
    SQUARE = {
        "dense": {
            "t_svd": {"svd": 2},
            "t_schur": {},
            "t_jordan": {"eig": 2, "rank_cutoff": 1, "svd": 4},
            "idem": {"rank_cutoff": 1, "svd": 2},
            "t_inverse": {"rank_cutoff": 1, "svd": 2},
            "t_pinv_blocks": {"rank_cutoff": 1, "svd": 2},
            "t_pinv_svd": {"rank_cutoff": 1, "svd": 2},
            "t_drazin": {"rank_cutoff": 1, "svd": 2},
            "t_index": {"rank_cutoff": 1, "svd": 2},
            "t_group": {"rank_cutoff": 1, "svd": 2},
            "witness": {"rank_cutoff": 2, "svd": 4},
        },
        "t_symmetric": {
            "t_svd": {"svd": 2},
            "t_schur": {"eigh": 2},
            "t_jordan": {"eigh": 2, "rank_cutoff": 1, "svd": 2},
            "idem": {"rank_cutoff": 1, "svd": 2},
            "t_inverse": {"rank_cutoff": 1, "svd": 2},
            "t_pinv_blocks": {"rank_cutoff": 1, "svd": 2},
            "t_pinv_svd": {"rank_cutoff": 1, "svd": 2},
            "t_drazin": {"rank_cutoff": 1, "svd": 2},
            "t_index": {"rank_cutoff": 1, "svd": 2},
            "t_group": {"rank_cutoff": 1, "svd": 2},
            "witness": {"rank_cutoff": 2, "svd": 4},
        },
        "rank_deficient": {
            "t_svd": {"svd": 2},
            "t_schur": {},
            "t_jordan": {"eig": 2, "rank_cutoff": 1, "svd": 4},
            "idem": {"rank_cutoff": 1, "svd": 2},
            "t_inverse": {"rank_cutoff": 1, "svd": 2},  # Singular
            "t_pinv_blocks": {"rank_cutoff": 1, "svd": 2},
            "t_pinv_svd": {"rank_cutoff": 1, "svd": 2},
            "t_drazin": {"rank_cutoff": 1, "svd": 6},
            "t_index": {"rank_cutoff": 1, "svd": 4},
            "t_group": {"rank_cutoff": 1, "svd": 6},
            "witness": {"rank_cutoff": 2, "svd": 4},
        },
        "mixed_index": {
            "t_svd": {"svd": 2},
            "t_schur": {},
            "t_jordan": {"eig": 5, "svd": 5},  # DefectiveBlock
            "idem": {"rank_cutoff": 1, "svd": 2},
            "t_inverse": {"rank_cutoff": 1, "svd": 2},  # Singular
            "t_pinv_blocks": {"rank_cutoff": 1, "svd": 2},
            "t_pinv_svd": {"rank_cutoff": 1, "svd": 2},
            "t_drazin": {"rank_cutoff": 1, "svd": 7},
            "t_index": {"rank_cutoff": 1, "svd": 5},
            "t_group": {"rank_cutoff": 1, "svd": 7},  # GroupInverseNotExist
            "witness": {"rank_cutoff": 2, "svd": 4},
        },
    }

    # the ops that take the certified LU inverse, t_pinv_svd and the
    # witness, on 3x3x32 inputs, above DIRECT_PATH_LIMIT: an invertible
    # tensor makes one inv per batch and no SVD; any other makes the calls
    # it makes at desk scale plus the invs of the failed attempt, the
    # real-forced batch's alone where that batch is singular
    # (rank_deficient; both real-forced blocks of mixed_index_tensor(32)
    # are invertible).  The witness takes its op's SVD pass, and its
    # report certifies w, which is invertible by construction.
    ABOVE_LIMIT = {
        "dense": {
            "t_inverse": {"inv": 2},
            "t_pinv_blocks": {"inv": 2},
            "t_pinv_svd": {"rank_cutoff": 1, "svd": 2},
            "t_drazin": {"inv": 2},
            "t_index": {"inv": 2},
            "t_group": {"inv": 2},
            "witness": {"inv": 2, "rank_cutoff": 1, "svd": 2},
        },
        "t_symmetric": {
            "t_inverse": {"inv": 2},
            "t_pinv_blocks": {"inv": 2},
            "t_pinv_svd": {"rank_cutoff": 1, "svd": 2},
            "t_drazin": {"inv": 2},
            "t_index": {"inv": 2},
            "t_group": {"inv": 2},
            "witness": {"inv": 2, "rank_cutoff": 1, "svd": 2},
        },
        "rank_deficient": {
            "t_inverse": {"inv": 1, "rank_cutoff": 1, "svd": 2},  # Singular
            "t_pinv_blocks": {"inv": 1, "rank_cutoff": 1, "svd": 2},
            "t_pinv_svd": {"rank_cutoff": 1, "svd": 2},
            "t_drazin": {"inv": 1, "rank_cutoff": 1, "svd": 6},
            "t_index": {"inv": 1, "rank_cutoff": 1, "svd": 4},
            "t_group": {"inv": 1, "rank_cutoff": 1, "svd": 6},
            "witness": {"inv": 2, "rank_cutoff": 1, "svd": 2},
        },
        "mixed_index": {
            "t_inverse": {"inv": 2, "rank_cutoff": 1, "svd": 2},  # Singular
            "t_pinv_blocks": {"inv": 2, "rank_cutoff": 1, "svd": 2},
            "t_pinv_svd": {"rank_cutoff": 1, "svd": 2},
            "t_drazin": {"inv": 2, "rank_cutoff": 1, "svd": 6},
            "t_index": {"inv": 2, "rank_cutoff": 1, "svd": 4},
            # GroupInverseNotExist
            "t_group": {"inv": 2, "rank_cutoff": 1, "svd": 6},
            "witness": {"inv": 2, "rank_cutoff": 1, "svd": 2},
        },
    }

    @pytest.fixture
    def counts(self, monkeypatch):
        made = Counter()
        lapack, rank_cutoff = kernels._lapack, kernels.rank_cutoff

        def counting_lapack(fn, *args, **kwargs):
            made[fn.__name__] += 1
            return lapack(fn, *args, **kwargs)

        def counting_cutoff(*args, **kwargs):
            made["rank_cutoff"] += 1
            return rank_cutoff(*args, **kwargs)

        monkeypatch.setattr(kernels, "_lapack", counting_lapack)
        monkeypatch.setattr(kernels, "rank_cutoff", counting_cutoff)
        return made

    def spent(self, counts, a, ops) -> dict:
        out = {}
        for name in ops:
            counts.clear()
            try:
                self.OPS[name](a)
            except TprodError:
                pass
            out[name] = dict(counts)
        return out

    @pytest.mark.parametrize("kind", sorted(SQUARE))
    def test_square_ops(self, counts, kind):
        a = (mixed_index_tensor() if kind == "mixed_index"
             else gen(1, 3, 3, 4, kind))
        assert self.spent(counts, a, self.OPS) == self.SQUARE[kind]

    @pytest.mark.parametrize("kind", sorted(ABOVE_LIMIT))
    def test_square_ops_above_the_limit(self, counts, kind):
        a = (mixed_index_tensor(32) if kind == "mixed_index"
             else gen(1, 3, 3, 32, kind))
        table = self.ABOVE_LIMIT[kind]
        assert self.spent(counts, a, table) == table

    def test_rectangular_ops(self, counts):
        ops = ("t_svd", "t_pinv_blocks", "t_pinv_svd")
        assert self.spent(counts, gen(1, 2, 3, 5), ops) == {
            "t_svd": {"svd": 2},
            "t_pinv_blocks": {"rank_cutoff": 1, "svd": 2},
            "t_pinv_svd": {"rank_cutoff": 1, "svd": 2},
        }


class TestTransformBudget:
    """The forward (``np.fft.rfft``) and inverse (``np.fft.irfft``)
    transforms each op makes together with its report, on the inputs of
    TestDecisionBudget and on 3x3x32 and 2x3x32 ones.  The reports follow
    tprod's direct-path rule (``fourier.operands``): at desk scale, p *
    max(m, n) within DIRECT_PATH_LIMIT, they verify on the slices and make
    no transform, except the four that verify on the half spectrum at
    every size (see tprod.report).  Above the limit a report transforms
    every factor itself, and takes one irfft per identity; it never reuses
    the op's blocks of a factor or shares one transform between
    identities.  The input's transform is shared: ``to_fourier`` keeps its
    last result, so a report finds the one its op made of a."""

    # (rfft, irfft) at desk scale: the op's forward transform of a and one
    # irfft per assembled factor; the t-Jordan, Drazin, group and witness
    # reports then transform each factor as they do above the limit
    AT_DESK = {
        "t_svd": (1, 3),
        "t_schur": (1, 2),
        "t_jordan": (3, 4),
        "idem": (1, 3),
        "t_inverse": (1, 1),
        "t_pinv_blocks": (1, 1),
        "t_pinv_svd": (1, 1),
        "t_drazin": (2, 4),
        "t_index": (1, 0),
        "t_group": (2, 4),
        "witness": (2, 6),
    }
    # above the limit, the same plus every report's transforms of factors
    ABOVE_LIMIT = {
        "t_svd": (4, 6),
        "t_schur": (3, 4),
        "t_jordan": (3, 4),
        "idem": (4, 5),
        "t_inverse": (2, 3),
        "t_pinv_blocks": (2, 5),
        "t_pinv_svd": (2, 5),
        "t_drazin": (2, 4),
        "t_index": (1, 0),
        "t_group": (2, 4),
        "witness": (2, 6),
    }
    # an op that raises stops after the forward transform of a
    RAISES = {
        "dense": (),
        "t_symmetric": (),
        "rank_deficient": ("t_inverse",),
        "mixed_index": ("t_jordan", "t_inverse", "t_group"),
    }
    OPS = dict(
        TestDecisionBudget.OPS,
        t_inverse=lambda a: ginverses.inverse_report(a, t_inverse(a)),
        t_pinv_blocks=lambda a: penrose_report(a, t_pinv_blocks(a)),
        t_pinv_svd=lambda a: penrose_report(a, t_pinv_svd(a)),
        t_group=lambda a: ginverses.group_report(a, t_group(a)),
    )

    @pytest.fixture
    def counts(self, monkeypatch):
        made = Counter()

        def counted(name):
            fft = getattr(np.fft, name)

            def counting(*args, **kwargs):
                made[name] += 1
                return fft(*args, **kwargs)
            return counting

        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counted(name))
        return made

    def spent(self, counts, a, ops) -> dict:
        out = {}
        for name in ops:
            # a fresh copy: no op finds the transform the one before kept
            copy = Tensor3(a.array)
            counts.clear()
            try:
                self.OPS[name](copy)
            except TprodError:
                pass
            out[name] = (counts["rfft"], counts["irfft"])
        return out

    def square(self, counts, a, kind, table):
        expected = {name: (1, 0) if name in self.RAISES[kind] else budget
                    for name, budget in table.items()}
        assert self.spent(counts, a, self.OPS) == expected

    def rectangular(self, counts, a, table):
        ops = ("t_svd", "t_pinv_blocks", "t_pinv_svd")
        assert self.spent(counts, a, ops) == {name: table[name] for name in ops}

    @pytest.mark.parametrize("kind", sorted(RAISES))
    def test_square_ops(self, counts, kind):
        a = (mixed_index_tensor() if kind == "mixed_index"
             else gen(1, 3, 3, 4, kind))
        self.square(counts, a, kind, self.AT_DESK)

    def test_rectangular_ops(self, counts):
        self.rectangular(counts, gen(1, 2, 3, 5), self.AT_DESK)

    @pytest.mark.parametrize("kind", ["dense", "rank_deficient", "t_symmetric"])
    def test_square_ops_above_the_limit(self, counts, kind):
        self.square(counts, gen(1, 3, 3, 32, kind), kind, self.ABOVE_LIMIT)

    def test_rectangular_ops_above_the_limit(self, counts):
        self.rectangular(counts, gen(1, 2, 3, 32), self.ABOVE_LIMIT)

    @pytest.mark.parametrize("same, rfft", [(True, 1), (False, 2)])
    def test_a_square_transforms_its_factor_once(self, counts, same, rfft):
        a = gen(1, 3, 3, 32)
        b = a if same else Tensor3(a.array)
        tprod(a, b, path="fourier")
        assert (counts["rfft"], counts["irfft"]) == (rfft, 1)


def _rows(report) -> list:
    return [(c.name, c.residual, c.tolerance) for c in report.checks]


def _outcome(fn, a):
    """What ``fn(a)`` gives, arrays as bytes and reports as their rows, or
    the error it raises."""
    try:
        out = fn(a)
    except TprodError as exc:
        return type(exc), str(exc), getattr(exc, "block_index", None)
    return [x.array.tobytes() if isinstance(x, Tensor3)
            else _rows(x) if isinstance(x, ResidualReport) else x
            for x in out]


class TestCertifiedInverse:
    """The certified LU inverse that t_inverse, t_drazin, t_group, t_index
    and square t_pinv take above DIRECT_PATH_LIMIT (``_Spectrum`` with
    ``certify``).  It keeps its blocks only where the singular-value pass
    finds the tensor invertible, and they are that pass's inverse bit for
    bit; anywhere else the op is the singular-value route's.  pytest turns
    any RuntimeWarning into an error, so none leaks from either route."""

    OPS = {
        "t_drazin": lambda a: (lambda r: (r.ad, r.index, r.report))(
            t_drazin(a)),
        "t_group": lambda a: (lambda g: (g, group_report(a, g)))(t_group(a)),
        "t_index": lambda a: (t_index(a),),
        "t_inverse": lambda a: (lambda x: (x, inverse_report(a, x)))(
            t_inverse(a)),
    }

    @staticmethod
    def certified(a):
        return ginverses._Spectrum(to_fourier(a), kernels.singular_values,
                                   certify=True).certified

    def outcomes(self, a, monkeypatch=None) -> dict:
        """Every op's outcome on a; with ``monkeypatch``, by the
        singular-value route alone."""
        if monkeypatch is None:
            return {name: _outcome(op, a) for name, op in self.OPS.items()}
        with monkeypatch.context() as m:
            m.setattr(ginverses._Spectrum, "_certified_inverse",
                      lambda self: None)
            return self.outcomes(a)

    @given(
        n=st.integers(1, 6),
        extra=st.integers(1, 24),
        kind=st.sampled_from(("dense", "t_symmetric", "rank_deficient")),
        seed=st.integers(0, 2**16),
        k=st.integers(0, 64),
        e=st.floats(np.log10(0.5), 2.0),
    )
    def test_certifies_only_what_the_singular_values_decide(
        self, n, extra, kind, seed, k, e
    ):
        # one block's smallest singular value at 0.5 to 100 times the cutoff
        p = core.DIRECT_PATH_LIMIT // n + extra
        fa = to_fourier(place_sigma_min(gen(seed, n, n, p, kind), k, 10.0**e))
        certified = ginverses._Spectrum(fa, kernels.singular_values,
                                        certify=True).certified
        if certified is None:
            return
        spec = ginverses._Spectrum(fa, kernels.singular_values)
        assert spec.singular_block() is None
        inverse = spec.inverse()
        assert certified.dtype == inverse.dtype
        np.testing.assert_array_equal(certified, inverse)

    def test_certifies_well_inside_the_cutoff(self):
        for factor, certified in ((3.0, False), (20.0, True)):
            a = place_sigma_min(gen(4, 3, 3, 32), 5, factor)
            assert (self.certified(a) is not None) == certified

    def test_takes_the_size_rule_of_the_direct_path(self, monkeypatch):
        # p * n = 65 takes the certificate; at 64 and below no op does
        assert self.certified(gen(1, 1, 1, 65)) is not None

        def refuse(*args):
            raise AssertionError("the certificate ran at desk scale")

        monkeypatch.setattr(kernels, "inverse_certificate_scale", refuse)
        for m, p in ((1, 64), (2, 32), (4, 16), (8, 8), (3, 4)):
            for kind in KINDS:
                a = gen(2, m, m, p, kind)
                for op in TestDecisionBudget.OPS.values():
                    try:
                        op(a)
                    except TprodError:
                        pass

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shape", [(3, 3, 32), (16, 16, 8)])
    def test_witness_report_is_the_singular_value_route(self, monkeypatch,
                                                        shape, kind):
        # at 2^300 and 2^-300 both routes refuse the w of a rank-deficient
        # a as Singular (ROADMAP item 1)
        def witness(a):
            res = unit_regular_witness(a)
            return res.w, res.report

        assert self.certified(witness(gen(7, *shape, kind))[0]) is not None
        for scale in (1.0, 2.0**300, 2.0**-300):
            a = scalar_mul(scale, gen(7, *shape, kind))
            outcome = _outcome(witness, a)
            with monkeypatch.context() as m:
                m.setattr(ginverses._Spectrum, "_certified_inverse",
                          lambda self: None)
                assert _outcome(witness, a) == outcome

    def test_zero_and_exactly_singular_tensors_fall_back(self, monkeypatch):
        # a zero last row in every slice, and so in every block: the LU
        # meets an exactly zero pivot
        rows = gen(3, 3, 3, 32).array.copy()
        rows[:, -1] = 0.0
        singular = Tensor3(rows)
        stack = to_fourier(singular).blocks[1:16]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(stack)
        with pytest.raises(kernels._Uncertified):
            kernels.certified_inverse(stack, np.ones(len(stack)), 1e-12)
        for a in (Tensor3.zeros(3, 3, 32), singular):
            assert self.certified(a) is None
            outcomes = self.outcomes(a)
            assert outcomes["t_inverse"][0] is Singular
            assert outcomes == self.outcomes(a, monkeypatch)

    def test_non_finite_blocks_raise_the_same_block_op_error(self, monkeypatch):
        # finite slices whose transform overflows at the odd blocks
        big = gen(5, 3, 3, 32).array.copy()
        big[0] += 1.7e308
        big[16] -= 1.7e308
        a = Tensor3(big)
        with pytest.raises(BlockOpError) as sigma_pass:
            ginverses._Spectrum(to_fourier(a), kernels.singular_values)
        assert sigma_pass.value.block_index == 1
        outcomes = self.outcomes(a)
        assert outcomes == self.outcomes(a, monkeypatch)
        for outcome in outcomes.values():
            assert outcome == (BlockOpError, str(sigma_pass.value), 1)
        with pytest.raises(BlockOpError) as pinv:
            t_pinv(a)
        assert str(pinv.value) == str(sigma_pass.value)
        with pytest.raises(ValueError, match="must be finite"):
            kernels.certified_inverse(to_fourier(a).blocks[1:16],
                                      np.ones(15), 1e-12)

    @pytest.mark.parametrize("scale", [2.0**900, 2.0**-900, 1e300, 1e-300])
    def test_fails_closed_beyond_the_range_of_the_norms(self, monkeypatch,
                                                        scale):
        for kind in ("dense", "t_symmetric"):
            a = scalar_mul(scale, gen(6, 3, 3, 32, kind))
            assert self.certified(a) is None
            assert self.outcomes(a) == self.outcomes(a, monkeypatch)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "shape", [(3, 3, 32), (4, 4, 17), (5, 5, 13), (16, 16, 8),
                  (4, 4, 512)])
    def test_ops_are_the_singular_value_route_bit_for_bit(
        self, monkeypatch, shape, kind
    ):
        for scale in (1.0, 2.0**300, 2.0**-300):
            a = scalar_mul(scale, gen(7, *shape, kind))
            certified = self.certified(a) is not None
            assert certified == (kind != "rank_deficient")
            assert self.outcomes(a) == self.outcomes(a, monkeypatch)
            if not certified:
                continue
            x = t_pinv(a)
            assert x == t_inverse(a)
            # the SVD route stays an independent cross-check; at 2^-300
            # both fail penrose_report's absolute allowance alike
            with monkeypatch.context() as m:
                m.setattr(kernels, "certified_inverse", None)
                y = t_pinv(a, route="svd")
            assert max_abs((x - y).array) <= 1e-9 * x.max_abs
            passed = penrose_report(a, x).passed
            assert passed == penrose_report(a, y).passed
            assert passed or scale < 1.0


class TestRealness:
    def test_all_outputs_real(self):
        a = gen(17, 3, 3, 4)
        rd = gen(18, 3, 3, 4, "rank_deficient")
        outputs = [
            t_inverse(a),
            t_pinv_blocks(rd),
            t_pinv_svd(rd),
            t_drazin(rd).ad,
            unit_regular_witness(rd).w,
        ]
        for out in outputs:
            assert isinstance(out, Tensor3)
            assert out.array.dtype == np.float64


class TestOverflow:
    # 1/sigma of a subnormal input overflows, and the inverse blocks turn
    # non-finite before they are assembled
    @pytest.mark.parametrize("op", [
        t_pinv,
        t_drazin,
        t_inverse,
        t_group,
        unit_regular_witness,
    ])
    def test_non_finite_blocks_named_as_overflow(self, op):
        with pytest.raises(BlockOpError, match="non-finite") as excinfo:
            op(scalar_mul(1e-310, gen(7, 3, 3, 6)))
        assert excinfo.value.block_index == 0

    # singular values below about 5.6e-309 overflow 1/sigma inside
    # kernels.pinv_from_svd, which keeps numpy's warnings quiet
    @pytest.mark.parametrize("op", [t_pinv_blocks, t_pinv_svd,
                                    unit_regular_witness])
    @pytest.mark.parametrize("kind", ["dense", "rank_deficient"])
    @pytest.mark.parametrize("e", [-1040, -1070])
    def test_pseudoinverse_overflow_is_refused_without_warning(self, op,
                                                                kind, e):
        a = scalar_mul(2.0**e, gen(5, 3, 3, 4, kind))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlockOpError, match="non-finite") as excinfo:
                op(a)
        assert excinfo.value.block_index == 0

    # the index is 1 (A^2 is finite), but the A^3 of A (A^3)^+ A is not:
    # it is refused before any SVD sees it
    @pytest.mark.parametrize("op", [t_drazin, t_group])
    def test_drazin_product_overflow_names_its_block(self, op):
        a = scalar_mul(1e150, gen(5, 3, 3, 4, "rank_deficient"))
        with pytest.raises(MathError, match=kernels.POWER_OVERFLOW) as excinfo:
            op(a)
        assert type(excinfo.value) is MathError
        assert excinfo.value.block_index == 0

    # the rank cutoff S^3 of A^3 leaves the float64 range: its threshold is
    # inf, with no overflow warning, and A^3 = 0 has rank 0 below it
    def test_cutoff_of_a_high_power_overflows_quietly(self):
        a = Tensor3([[[0.0, 1e110], [0.0, 0.0]]])
        res = t_drazin(a)
        assert res.index == 2
        assert not res.ad.array.any()
        assert res.report.passed
        with pytest.raises(GroupInverseNotExist) as excinfo:
            t_group(a)
        assert excinfo.value.block_index == 0
        # at 1e200 the cutoff of A^2 is inf too, and the margin skips it
        with pytest.raises(GroupInverseNotExist) as excinfo:
            t_group(Tensor3([[[0.0, 1e200], [0.0, 0.0]]]))
        assert excinfo.value.margin == 1.0

    # the identity allowance (1 + max|a|)^2 overflows the float64 range and
    # is refused; the normwise residuals of ROADMAP item 2 remove it
    @pytest.mark.xfail(strict=True, raises=MathError, reason="ROADMAP item 2")
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_penrose_report_at_top_of_range(self):
        a = scalar_mul(2.0**600, gen(7, 3, 3, 6))
        assert penrose_report(a, t_pinv(a)).passed
