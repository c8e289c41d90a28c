"""Tests for the tensor generalized inverses."""

import numpy as np
import pytest

from tprod import (
    GroupInverseNotExist,
    Singular,
    Tensor3,
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
    tprod,
    transpose,
    unit_regular_witness,
)
from tprod.ginverses import penrose_report, witness_report
from tprod.kernels import drazin_inverse, group_inverse

from conftest import max_abs


def nilpotent_block_tensor() -> Tensor3:
    """p = 1 tensor whose single Fourier block is nilpotent."""
    return Tensor3(np.array([[[0.0, 1.0], [0.0, 0.0]]]))


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
            a = gen(seed, m, n, p)
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

        fb_a = to_fourier(a)
        fb_x = to_fourier(x)
        for k in range(4):
            diag = np.diagonal(fb_a.blocks[k])
            recip = np.array(
                [1.0 / d if abs(d) > 1e-12 else 0.0 for d in diag]
            )
            assert max_abs(fb_x.blocks[k] - np.diag(recip)) <= 1e-10

    def test_result_is_real_tensor(self):
        x = t_pinv_blocks(gen(3, 4, 2, 5))
        assert isinstance(x, Tensor3)
        assert not np.iscomplexobj(x.array)


class TestTDrazin:
    def test_invertible_matches_inverse(self):
        a = gen(2, 3, 3, 4)
        res = t_drazin(a)
        assert res.index == 0
        assert max_abs((res.ad - t_inverse(a)).array) <= 1e-11
        assert res.report.passed

    def test_nilpotent_block(self):
        res = t_drazin(nilpotent_block_tensor())
        assert res.index == 2
        assert max_abs(res.ad.array) == 0.0
        assert res.report.passed

    def test_bcirc_transport(self):
        for seed in range(10):
            a = gen(seed, 3, 3, 3)
            res = t_drazin(a)
            oracle, oracle_index = drazin_inverse(bcirc(a).matrix)
            assert res.index == oracle_index
            assert max_abs(bcirc(res.ad).matrix - oracle) <= 1e-9

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
        assert max_abs((g - t_inverse(a)).array) <= 1e-10

    def test_nilpotent_block_rejected(self):
        with pytest.raises(GroupInverseNotExist) as excinfo:
            t_group(nilpotent_block_tensor())
        assert excinfo.value.block_index == 0

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
            fb = to_fourier(a)
            expected = True
            for k in range(3):
                try:
                    group_inverse(fb.blocks[k])
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

    def test_witness_from_factorization(self):
        a = gen(13, 3, 3, 3, "rank_deficient")
        res = unit_regular_witness(a)
        recon = tprod(tprod(res.u, res.e), res.v)
        assert max_abs((recon - a).array) <= 1e-9
        winv = t_inverse(res.w)
        expected = tprod(res.u, res.v)
        assert max_abs((winv - expected).array) <= 1e-8


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
