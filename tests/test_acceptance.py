"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria cover the two
obstruction reproductions, the algebra homomorphism, pairing necessity and
sufficiency, the four factorizations, the generalized inverses with their
matrix-level transport oracles, the structural predicates, and the CLI
round trip.  All tolerances are fixed here, not calibrated.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from tprod import (
    GroupInverseNotExist,
    PairingViolation,
    Tensor3,
    bcirc,
    assemble_real,
    check_pairing,
    gen,
    idempotent_factorization,
    inverse_transform,
    is_f_diagonal,
    read_tensor,
    t_drazin,
    t_group,
    t_inverse,
    t_jordan,
    t_jordan_naive,
    t_pinv_blocks,
    t_pinv_svd,
    t_schur,
    t_svd,
    to_fourier,
    tprod,
    unit_regular_witness,
)
from tprod.cli import cli_main
from tprod.fourier import FourierBlocks, mirror_blocks, real_forced_indices
from tprod.ginverses import gi_tolerance, penrose_report

from conftest import max_abs

SQRT2 = np.sqrt(2.0)


@contextmanager
def criterion(number: int, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} PASS: {description} ({elapsed:.2f}s)")


def test_criterion_1_svd_obstruction(svd_example):
    with criterion(1, "SVD-obstruction reproduction"):
        started = time.perf_counter()
        fb = to_fourier(svd_example)
        assert max_abs(fb.blocks[1] - 1j * np.eye(2)) <= 1e-12
        assert max_abs(fb.blocks[1] @ fb.blocks[1].T - np.diag([-1.0, -1.0])) <= 1e-12
        res = t_svd(svd_example)
        names = {c.name for c in res.report.checks}
        assert {"reconstruction", "orthogonality_u", "orthogonality_v",
                "f_diagonal", "realness"} <= names
        for c in res.report.checks:
            assert c.residual <= 1e-10, (c.name, c.residual)
        assert res.report.passed
        assert time.perf_counter() - started < 0.1


def test_criterion_2_jordan_obstruction(jordan_example):
    with criterion(2, "Jordan-obstruction reproduction"):
        started = time.perf_counter()
        blocks = to_fourier(jordan_example).full()
        expected_blocks = [
            np.array([[0, -1], [1, 0]], dtype=complex),
            np.array([[1 + 1j, 1j], [-1 + 2j, -2]]),
            np.array([[2, -3], [1, 0]], dtype=complex),
            np.array([[1 - 1j, -1j], [-1 - 2j, -2]]),
        ]
        for k in range(4):
            assert max_abs(blocks[k] - expected_blocks[k]) <= 1e-12

        # the unpaired per-block Jordan forms of those blocks
        naive_forms = np.stack([
            np.diag([-1j, 1j]),
            np.diag([-1.0 + 0j, 1j]),
            np.diag([1 + SQRT2 * 1j, 1 - SQRT2 * 1j]),
            np.diag([-1.0 + 0j, -1j]),
        ])
        slices = inverse_transform(naive_forms)
        expected_diag = 0.25 * np.array(
            [-1 + (SQRT2 - 1) * 1j, 1 + (1 - SQRT2) * 1j]
        )
        assert max_abs(np.diag(slices[0]) - expected_diag) <= 1e-10
        assert max_abs(slices[0].imag) == pytest.approx((SQRT2 - 1) / 4)
        assert max_abs(slices[0].imag) >= 0.1

        # the naive operation exhibits the same obstruction
        assert max_abs(t_jordan_naive(jordan_example).imag) >= 0.1

        # the paired construction stays real
        res = t_jordan(jordan_example)
        assert res.report.residual("reconstruction") <= 1e-9
        assert res.report.passed
        assert time.perf_counter() - started < 0.1


def test_criterion_3_homomorphism_suite():
    with criterion(3, "homomorphism suite (200 seeded pairs)"):
        started = time.perf_counter()
        p_values = (1, 2, 3, 4, 5, 6, 8)
        worst = 0.0
        for seed in range(200):
            n = 2 + seed % 3  # 2..4
            p = p_values[seed % len(p_values)]
            a = gen(seed, n, n, p)
            b = gen(seed + 1000, n, n, p)
            scale = (1 + a.max_abs) * (1 + b.max_abs)
            ab = tprod(a, b, path="direct")
            hom = max_abs(bcirc(ab).matrix - bcirc(a).matrix @ bcirc(b).matrix)
            dual = max_abs((ab - tprod(a, b, path="fourier")).array)
            assert hom <= 1e-11 * scale
            assert dual <= 1e-11 * scale
            worst = max(worst, hom / scale, dual / scale)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0
        print(f"  worst scaled residual {worst:.3e}")


def test_criterion_4_pairing_necessity_sufficiency():
    with criterion(4, "pairing necessity and sufficiency"):
        started = time.perf_counter()
        for seed in range(200):
            m, n = 2 + seed % 2, 2 + (seed // 2) % 3
            p = 1 + seed % 8
            assert check_pairing(to_fourier(gen(seed, m, n, p)).full()).passed

        rng = np.random.default_rng(12345)
        for trial in range(50):
            p = 1 + trial % 8
            blocks = []
            for k in range(p // 2 + 1):
                blk = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
                if k in real_forced_indices(p):
                    blk = blk.real
                blocks.append(blk)
            fb = FourierBlocks.from_full(mirror_blocks(blocks, p))
            assert isinstance(assemble_real(fb)[0], Tensor3)

        broken = 0
        for trial in range(20):
            p = 2 + trial % 7
            blocks = mirror_blocks(
                [rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
                 if k not in real_forced_indices(p)
                 else rng.uniform(-1, 1, (2, 2))
                 for k in range(p // 2 + 1)],
                p,
            )
            blocks[-1 if p > 2 else 1, 0, 0] += 1e-3j
            with pytest.raises(PairingViolation):
                assemble_real(FourierBlocks.from_full(blocks))
            broken += 1
        assert broken == 20
        assert time.perf_counter() - started < 5.0


def test_criterion_5_factorization_suite():
    with criterion(5, "factorization suite (100 seeds per factorization)"):
        started = time.perf_counter()
        p_all = (1, 2, 3, 4, 5, 8)
        p_odd = (1, 3, 5, 7)

        for seed in range(100):
            m = 2 + seed % 3
            n = 2 + (seed // 3) % 4  # exercises m != n
            res = t_svd(gen(seed, m, n, p_all[seed % len(p_all)]))
            assert res.report.passed, res.report.as_dict()

        for seed in range(100):
            n = 2 + seed % 3
            res = t_schur(gen(seed + 3000, n, n, p_odd[seed % len(p_odd)]))
            assert res.report.passed, res.report.as_dict()
            assert all(s <= 2 for s in res.realized_partition)

        for seed in range(100):
            n = 2 + seed % 3
            res = t_jordan(gen(seed + 6000, n, n, p_odd[seed % len(p_odd)]))
            assert res.report.passed, res.report.as_dict()
            assert all(s <= 2 for s in res.realized_partition)

        for seed in range(100):
            n = 2 + seed % 3
            kind = "rank_deficient" if seed % 2 else "dense"
            res = idempotent_factorization(
                gen(seed + 9000, n, n, p_all[seed % len(p_all)], kind)
            )
            assert res.report.passed, res.report.as_dict()

        assert time.perf_counter() - started < 60.0


def _singular_f_diagonal(seed: int, n: int, p: int) -> Tensor3:
    """Real tensor with diagonal Fourier blocks, one tube of them zero.

    Nonzero block-diagonal values keep magnitude in [0.5, 1.5], so the
    Drazin inverse is well conditioned while the index is exactly 1.
    """
    rng = np.random.default_rng(seed)
    blocks = []
    for k in range(p // 2 + 1):
        if k in real_forced_indices(p):
            vals = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)
            vals = vals.astype(complex)
        else:
            mag = rng.uniform(0.5, 1.5, n)
            phase = np.exp(2j * np.pi * rng.uniform(0, 1, n))
            vals = mag * phase
        vals[-1] = 0.0
        blocks.append(np.diag(vals))
    fb = FourierBlocks.from_full(mirror_blocks(blocks, p))
    return assemble_real(fb)[0]


# Matrix oracles on bcirc(a), written with numpy alone so that no tprod
# kernel judges tprod.  The cutoff is tprod's rank rule for an mp x np
# matrix, max(mp, np) * eps relative to the largest singular value, which
# is also numpy's matrix_rank default.

def _oracle_pinv(big: np.ndarray) -> np.ndarray:
    return np.linalg.pinv(big, rcond=max(big.shape) * np.finfo(float).eps)


def _brute_index(big: np.ndarray) -> int:
    """Least k with rank(big^(k+1)) == rank(big^k), by rank stabilization."""
    prev, mat = big.shape[0], np.eye(big.shape[0])
    for k in range(big.shape[0] + 1):
        mat = mat @ big
        rank = np.linalg.matrix_rank(mat)
        if rank == prev:
            return k
        prev = rank
    raise AssertionError("rank did not stabilize")


def _oracle_drazin(big: np.ndarray, k: int) -> np.ndarray:
    """big^D at index k, from a full-rank factorization big^k = b c:
    big^D = b (c big b)^-1 c (Campbell and Meyer, Generalized Inverses of
    Linear Transformations, ch. 7), the inverse of big at k = 0.  tprod
    takes another route, a^k (a^(2k+1))^+ a^k on each Fourier block."""
    ak = np.linalg.matrix_power(big, k)
    u, s, vh = np.linalg.svd(ak)
    r = np.linalg.matrix_rank(ak)
    b, c = u[:, :r], s[:r, None] * vh[:r]
    return b @ np.linalg.inv(c @ big @ b) @ c


def test_criterion_6_generalized_inverse_suite():
    with criterion(6, "generalized-inverse suite (100 seeds)"):
        started = time.perf_counter()

        # dense, almost surely invertible: Penrose + routes + transport
        for seed in range(50):
            n = 2 + seed % 3
            p = 1 + seed % 6
            a = gen(seed, n, n, p)
            x_blocks = t_pinv_blocks(a)
            x_svd = t_pinv_svd(a)
            report = penrose_report(a, x_blocks)
            assert report.passed
            for c in report.checks:
                assert c.residual <= gi_tolerance(a)
            assert max_abs((x_blocks - x_svd).array) <= 1e-9

            big = bcirc(a).matrix
            assert max_abs(bcirc(x_blocks).matrix - _oracle_pinv(big)) <= 1e-9
            dz = t_drazin(a)
            oracle_idx = _brute_index(big)
            oracle_d = _oracle_drazin(big, oracle_idx)
            assert dz.index == oracle_idx
            assert max_abs(bcirc(dz.ad).matrix - oracle_d) <= 1e-9
            grp = t_group(a)
            assert oracle_idx <= 1
            assert max_abs(bcirc(grp).matrix - oracle_d) <= 1e-9

        # rank-deficient and singular-with-index-1: existence, index, witness
        for seed in range(50):
            n = 3 + seed % 2
            p = 1 + seed % 5
            if seed % 2:
                a = gen(seed + 500, n, n, p, "rank_deficient")
            else:
                a = _singular_f_diagonal(seed + 500, n, p)

            x = t_pinv_blocks(a)
            assert penrose_report(a, x).passed
            assert max_abs((x - t_pinv_svd(a)).array) <= 1e-9
            big = bcirc(a).matrix
            assert max_abs(bcirc(x).matrix - _oracle_pinv(big)) <= 1e-9

            # Drazin index against brute-force rank stabilization of bcirc
            brute = _brute_index(big)
            dz = t_drazin(a)
            assert dz.index == brute
            oracle_d = _oracle_drazin(big, brute)
            assert max_abs(bcirc(dz.ad).matrix - oracle_d) <= 1e-9

            # group existence iff every block passes the rank condition,
            # cross-checked against the matrix oracle on bcirc: the group
            # inverse exists iff the index is at most 1, and is then a^D
            try:
                grp = t_group(a)
                exists = True
            except GroupInverseNotExist:
                exists = False
            assert exists == (brute <= 1)
            if exists:
                assert max_abs(bcirc(grp).matrix - oracle_d) <= 1e-9

            wit = unit_regular_witness(a)
            residual = max_abs((tprod(tprod(a, wit.w), a) - a).array)
            assert residual <= 1e-9
            t_inverse(wit.w)  # invertibility; must not raise

        assert time.perf_counter() - started < 60.0


def test_criterion_7_structural_predicates():
    with criterion(7, "structural predicates and singular-value consistency"):
        for seed in range(60):
            m = 2 + seed % 3
            n = 2 + (seed // 3) % 3
            p = 1 + seed % 8
            a = gen(seed + 200, m, n, p)
            res = t_svd(a)
            assert is_f_diagonal(res.s, 1e-11)
            sig = res.fourier_singular_values
            assert np.all(sig >= 0)
            assert np.all(np.diff(sig, axis=1) <= 0)
            from_blocks = np.sort(sig.ravel())[::-1]
            from_bcirc = np.linalg.svd(bcirc(a).matrix, compute_uv=False)
            assert max_abs(from_blocks - from_bcirc) <= 1e-9


def test_criterion_8_cli_round_trip(tmp_path):
    with criterion(8, "CLI round trip"):
        a_path = tmp_path / "A.tns"
        x_path = tmp_path / "X.tns"
        report_path = tmp_path / "report.json"

        assert cli_main([
            "gen", "--seed", "42", "--dims", "3", "4", "5",
            "-o", str(a_path), "--quiet",
        ]) == 0
        a = read_tensor(a_path)
        assert a.dims == (3, 4, 5)

        assert cli_main([
            "pinv", str(a_path), "-o", str(x_path),
            "--report", str(report_path), "--quiet",
        ]) == 0
        report = json.loads(report_path.read_text())
        assert report["pass"] is True
        assert all(c["pass"] for c in report["checks"])

        assert cli_main([
            "verify", "--kind", "pinv", str(x_path),
            "--input", str(a_path), "--quiet",
        ]) == 0

        bad = tmp_path / "bad.tns"
        bad.write_text("2 2\n1 2\n")
        assert cli_main([
            "pinv", str(bad), "-o", str(x_path), "--quiet",
        ]) == 2

        nil = tmp_path / "nil.tns"
        nil.write_text("2 2 1\n0 1\n0 0\n")
        assert cli_main([
            "group", str(nil), "-o", str(x_path), "--quiet",
        ]) == 3
