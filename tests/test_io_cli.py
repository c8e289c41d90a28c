"""Tests for the file format, the generator, and the CLI."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tprod import (
    DimensionError,
    IoError,
    ParseError,
    Tensor3,
    gen,
    is_t_symmetric,
    read_tensor,
    scalar_mul,
    to_fourier,
    tprod,
    write_tensor,
)
from tprod import cli
from tprod.cli import cli_main

from conftest import FIXTURES, max_abs


def write_tensor_per_element(path, t):
    """Reference writer: one f-string per entry."""
    m, n, p = t.dims
    lines = [f"{m} {n} {p}"]
    for k in range(p):
        for i in range(m):
            lines.append(" ".join(f"{x:.17g}" for x in t.array[k, i]))
        if k < p - 1:
            lines.append("")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_tensor_per_token(path):
    """Reference reader: header, then every token parsed and checked alone."""
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.readlines()
    rows = []
    for lineno, line in enumerate(raw, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append((lineno, stripped.split()))
    if not rows:
        raise ParseError("empty tensor file")
    header_line, header = rows[0]
    if len(header) != 3:
        raise ParseError(
            f"header must be 'm n p', got {len(header)} fields",
            line=header_line,
        )
    dims = []
    for col, token in enumerate(header, start=1):
        try:
            value = int(token)
        except ValueError:
            raise ParseError(
                f"header field {token!r} is not an integer",
                line=header_line, column=col,
            ) from None
        if value < 1:
            raise ParseError(
                f"dimension {token!r} must be positive",
                line=header_line, column=col,
            )
        dims.append(value)
    m, n, p = dims
    body = rows[1:]
    if len(body) != m * p:
        raise DimensionError(
            f"expected {m * p} data rows for a {m}x{n}x{p} tensor, "
            f"got {len(body)}"
        )
    values = []
    for lineno, tokens in body:
        if len(tokens) != n:
            raise ParseError(
                f"expected {n} values per row, got {len(tokens)}",
                line=lineno,
            )
        row = []
        for col, token in enumerate(tokens, start=1):
            try:
                x = float(token)
            except ValueError:
                raise ParseError(
                    f"bad number {token!r}", line=lineno, column=col
                ) from None
            if not math.isfinite(x):
                raise ParseError(
                    f"non-finite value {token!r}", line=lineno, column=col
                )
            row.append(x)
        values.append(row)
    return Tensor3(np.asarray(values).reshape(p, m, n))


def read_outcome(reader, path):
    """The tensor ``reader`` returns, or its error's class, text and place."""
    try:
        return reader(path)
    except (ParseError, DimensionError) as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))


EXTREMES = (-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
            1e-300)
# valid and invalid tokens for the reader; 1e400 overflows to inf and 1_0
# is a valid Python float
TOKENS = ("1", "-0", "2.5e-3", "5e-324", "1e400", "-1e400", "nan", "inf",
          "-inf", "1_0", "0x10", "oops", ".5", "1e")


class TestTensorFile:
    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "t.tns"
        for seed in range(10):
            t = gen(seed, 3, 4, 2)
            write_tensor(path, t)
            assert read_tensor(path) == t

    def test_challenging_values_round_trip(self, tmp_path):
        values = np.array(
            [[[1e-300, -1e300], [1.0 / 3.0, np.pi]],
             [[5e-324, -0.0], [1.2345678901234567, 2.0 ** 52 + 1]]]
        )
        path = tmp_path / "t.tns"
        t = Tensor3(values)
        write_tensor(path, t)
        assert read_tensor(path) == t

    def test_fixture_files_match_expected_slices(self, svd_example, jordan_example):
        np.testing.assert_array_equal(svd_example.slice(0), np.eye(2))
        np.testing.assert_array_equal(svd_example.slice(1), np.diag([-1.0, 0.0]))
        np.testing.assert_array_equal(jordan_example.slice(3), [[0, 1], [1, 0]])

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("# a comment\n1 1 2\n\n3.5\n# another\n\n-1\n")
        t = read_tensor(path)
        np.testing.assert_array_equal(t.array.ravel(), [3.5, -1.0])

    def test_zero_dimension_header_rejected(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("0 2 2\n")
        with pytest.raises(ParseError):
            read_tensor(path)

    def test_bad_token_reports_position(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("1 2 1\n1.0 oops\n")
        with pytest.raises(ParseError) as excinfo:
            read_tensor(path)
        assert excinfo.value.line == 2
        assert excinfo.value.column == 2

    def test_wrong_row_width(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("1 3 1\n1.0 2.0\n")
        with pytest.raises(ParseError):
            read_tensor(path)

    def test_missing_rows(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("2 2 2\n1 2\n3 4\n")
        with pytest.raises(DimensionError):
            read_tensor(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("1 1 1\nnan\n")
        with pytest.raises(ParseError):
            read_tensor(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            read_tensor(tmp_path / "nope.tns")

    def test_bad_header_width(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("2 2\n")
        with pytest.raises(ParseError):
            read_tensor(path)


class TestTensorFileMatchesReference:
    @settings(max_examples=100)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 9),
           st.data())
    def test_writer_is_byte_identical(self, tmp_path_factory, m, n, p, data):
        entries = data.draw(st.lists(
            st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                      st.sampled_from(EXTREMES)),
            min_size=m * n * p, max_size=m * n * p))
        t = Tensor3(np.array(entries).reshape(p, m, n))
        d = tmp_path_factory.mktemp("w")
        write_tensor(d / "new.tns", t)
        write_tensor_per_element(d / "ref.tns", t)
        assert (d / "new.tns").read_bytes() == (d / "ref.tns").read_bytes()

    @settings(max_examples=200)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4),
           st.data())
    def test_reader_matches_reference(self, tmp_path_factory, m, n, p, data):
        # rows of drawn tokens, a sometimes wrong width, tab or space
        # separators, LF or CRLF line ends, comments between slices
        newline = data.draw(st.sampled_from(["\n", "\r\n"]))
        lines = [f"{m} {n} {p}"]
        for k in range(p):
            for _ in range(m):
                width = data.draw(st.sampled_from([n, n, n, n + 1, n - 1]))
                tokens = data.draw(st.lists(
                    st.one_of(st.sampled_from(TOKENS),
                              st.floats(allow_nan=False).map(repr)),
                    min_size=width, max_size=width))
                lines.append(data.draw(st.sampled_from([" ", "\t"]))
                             .join(tokens))
            lines.append(data.draw(st.sampled_from(["", "# slice end"])))
        path = tmp_path_factory.mktemp("r") / "t.tns"
        path.write_bytes(newline.join(lines).encode("ascii"))
        self.assert_same_outcome(path)

    @pytest.mark.parametrize("text", [
        "", "# only a comment\n", "2 2\n", "0 2 2\n", "1 x 1\n",
        "1 2 1\n1.0 oops\n", "1 3 1\n1.0 2.0\n", "2 2 2\n1 2\n3 4\n",
        "1 1 1\nnan\n", "1 1 1\n1e400\n", "1 2 1\n1_0 0x10\n",
        "1 2 2\n1 inf\n\n1 2 3\n", "1 2 2\n1 2 3\n\nnan 2\n",
        "# a comment\n1 1 2\n\n3.5\n# another\n\n-1\n",
        "1 2 1\r\n\t1\t-0 \r\n",
    ])
    def test_error_fixtures_match_reference(self, tmp_path, text):
        path = tmp_path / "t.tns"
        path.write_bytes(text.encode("ascii"))
        self.assert_same_outcome(path)

    def test_paper_fixtures_match_reference(self):
        for path in FIXTURES.glob("*.tns"):
            self.assert_same_outcome(path)

    @staticmethod
    def assert_same_outcome(path):
        new = read_outcome(read_tensor, path)
        ref = read_outcome(read_tensor_per_token, path)
        if isinstance(ref, Tensor3):
            assert isinstance(new, Tensor3) and new == ref
        else:
            assert new == ref


def run_python(*args):
    """``python *args`` in a subprocess with this checkout's tprod."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_leaves_scipy_unloaded():
    # the general Schur kernel loads scipy's compiled LAPACK module alone,
    # not the scipy package; a module-level scipy import anywhere on the
    # CLI path, or in another op, would add its load time to every
    # subprocess.  A t-symmetric input takes the Hermitian kernel, numpy's
    # eigh, in t_schur and t_jordan alike
    script = (
        "import sys, tprod.cli\n"
        "def scipy_loaded():\n"
        "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not scipy_loaded()\n"
        "from tprod import gen, t_drazin, t_jordan, t_pinv, t_schur, t_svd\n"
        "a = gen(3, 3, 3, 4)\n"
        "assert t_svd(a).report.passed\n"
        "t_pinv(a)\n"
        "t_drazin(a)\n"
        "sym = gen(3, 3, 3, 4, 't_symmetric')\n"
        "assert t_schur(sym).report.passed\n"
        "assert t_jordan(sym).report.passed\n"
        "assert not scipy_loaded(), scipy_loaded()\n"
        "assert t_schur(a).report.passed\n"
        "assert scipy_loaded() == ['scipy.linalg._flapack'], scipy_loaded()\n"
    )
    done = run_python("-c", script)
    assert done.returncode == 0, done.stderr


def test_schur_driver_is_scipys_in_either_load_order():
    # subprocesses, because test_batched imports scipy.linalg at collection;
    # the identity checks also fail here if scipy moves its _flapack module
    schur = (
        "import hashlib\n"
        "from tprod import gen, t_schur\n"
        "r = t_schur(gen(5, 4, 4, 5))\n"
        "print(hashlib.sha256(r.u.array.tobytes() + r.t.array.tobytes())"
        ".hexdigest())\n"
    )
    scipy_works = (
        "import numpy as np, scipy.linalg\n"
        "from scipy.linalg.lapack import get_lapack_funcs\n"
        "from tprod.kernels import _flapack\n"
        "assert scipy.linalg.lapack._flapack is _flapack()\n"
        "x = np.array([[1.0, 2.0], [-3.0, 4.0]])\n"
        "assert get_lapack_funcs(('gees',), (x,))[0] is _flapack().dgees\n"
        "assert get_lapack_funcs(('gees',), (x + 0j,))[0] is _flapack().zgees\n"
        "t, u = scipy.linalg.schur(x)\n"
        "assert np.allclose(u @ t @ u.T, x)\n"
    )
    kernel_first = run_python("-c", schur + scipy_works)
    scipy_first = run_python("-c", scipy_works + schur)
    assert kernel_first.returncode == 0, kernel_first.stderr
    assert scipy_first.returncode == 0, scipy_first.stderr
    assert kernel_first.stdout == scipy_first.stdout


def test_only_the_general_schur_route_needs_scipy():
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from tprod import gen, t_drazin, t_jordan, t_pinv, t_schur, t_svd\n"
        "a = gen(3, 3, 3, 4)\n"
        "assert t_svd(a).report.passed\n"
        "t_pinv(a)\n"
        "t_drazin(a)\n"
        "sym = gen(3, 3, 3, 4, 't_symmetric')\n"
        "assert t_schur(sym).report.passed\n"
        "assert t_jordan(sym).report.passed\n"
        "try:\n"
        "    t_schur(a)\n"
        "except ModuleNotFoundError as exc:\n"
        "    assert exc.name == 'scipy' and 'scipy' in str(exc), exc\n"
        "else:\n"
        "    raise AssertionError('t_schur ran without scipy')\n"
    )
    done = run_python("-c", script)
    assert done.returncode == 0, done.stderr


def test_cli_tprod_overflow_exits_3_and_bad_input_exits_2(tmp_path):
    def tprod_cli(a):
        return run_python("-c", "from tprod.cli import main; main()", "tprod",
                          str(a), str(a), "-o", str(tmp_path / "C.tns"))

    big = tmp_path / "big.tns"
    write_tensor(big, scalar_mul(2.0**600, gen(0, 3, 3, 4)))
    done = tprod_cli(big)
    assert done.returncode == 3, done.stderr
    assert "overflowed" in done.stderr
    assert "Warning" not in done.stderr
    bad = tmp_path / "bad.tns"
    bad.write_text("1 1 1\ninf\n")
    assert tprod_cli(bad).returncode == 2
    bad.write_text("1 1\n1\n")
    assert tprod_cli(bad).returncode == 2


def test_cli_drazin_group_and_tinv_write_one_file_on_invertible_input(tmp_path):
    # on an invertible tensor the Drazin and group inverses are the
    # t-inverse, computed by the same kernel, so the files are identical
    a = tmp_path / "A.tns"
    write_tensor(a, gen(7, 3, 3, 4))
    written = []
    for command in ("drazin", "group", "tinv"):
        out = tmp_path / f"{command}.tns"
        done = run_python("-c", "from tprod.cli import main; main()", command,
                          str(a), "-o", str(out), "--quiet")
        assert done.returncode == 0, done.stderr
        written.append(out.read_bytes())
    assert written[0] == written[1] == written[2]


def test_cli_pinv_writes_the_tinv_file_on_a_certified_tensor(tmp_path):
    # above DIRECT_PATH_LIMIT, an invertible tensor whose LU inverse is
    # certified gets the t-inverse's bits from pinv as well
    a = tmp_path / "A.tns"
    write_tensor(a, gen(7, 3, 3, 32))
    written = set()
    for command in ("pinv", "tinv", "drazin", "group"):
        out = tmp_path / f"{command}.tns"
        assert cli_main([command, str(a), "-o", str(out), "--quiet"]) == 0
        written.add(out.read_bytes())
    assert len(written) == 1


@pytest.mark.parametrize("command", ["drazin", "group"])
def test_cli_drazin_power_overflow_is_named_without_lapack_noise(tmp_path, command):
    # the Drazin index needs A^2, whose entries leave the float64 range
    a = tmp_path / "A.tns"
    write_tensor(a, scalar_mul(2.0**600, gen(5, 3, 3, 4, "rank_deficient")))
    done = run_python("-m", "tprod.cli", command, str(a),
                      "-o", str(tmp_path / "X.tns"))
    assert done.returncode == 3, done.stderr
    assert "Fourier block" in done.stderr
    assert "overflowed" in done.stderr
    assert "DLASCL" not in done.stdout
    assert "RuntimeWarning" not in done.stderr


def test_cli_runs_as_a_module(tmp_path):
    out = tmp_path / "g.tns"
    done = run_python("-m", "tprod.cli", "gen", "--seed", "1",
                      "--dims", "2", "2", "2", "-o", str(out))
    assert done.returncode == 0, done.stderr
    assert read_tensor(out) == gen(1, 2, 2, 2)
    # the input is not its own pseudoinverse
    done = run_python("-m", "tprod.cli", "verify", "--kind", "pinv",
                      "--input", str(out), str(out))
    assert done.returncode == 1, done.stderr


class TestGen:
    def test_deterministic(self):
        assert gen(1, 3, 4, 2) == gen(1, 3, 4, 2)
        assert not (gen(1, 3, 4, 2) == gen(2, 3, 4, 2))

    def test_dense_range(self):
        t = gen(0, 5, 5, 5)
        assert t.max_abs <= 1.0

    def test_t_symmetric_exact(self):
        assert is_t_symmetric(gen(3, 4, 4, 3, "t_symmetric"), 0.0)

    def test_t_symmetric_needs_square(self):
        with pytest.raises(DimensionError):
            gen(0, 2, 3, 2, "t_symmetric")

    def test_rank_deficient_blocks(self):
        a = gen(4, 5, 5, 3, "rank_deficient")
        blocks = to_fourier(a).full()
        for k in range(3):
            assert np.linalg.matrix_rank(blocks[k]) < 5

    def test_f_diagonal(self):
        from tprod import is_f_diagonal

        assert is_f_diagonal(gen(5, 3, 4, 2, "f_diagonal"), 0.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen(0, 2, 2, 2, "sparse")


class TestCli:
    def _gen_file(self, tmp_path, name="A.tns", dims=(3, 3, 4), seed=7,
                  kind="dense"):
        path = tmp_path / name
        code = cli_main([
            "gen", "--seed", str(seed),
            "--dims", *map(str, dims), "--kind", kind,
            "-o", str(path), "--quiet",
        ])
        assert code == 0
        return path

    def test_gen_pinv_verify_pipeline(self, tmp_path):
        a = self._gen_file(tmp_path)
        x = tmp_path / "X.tns"
        report_path = tmp_path / "report.json"
        code = cli_main([
            "pinv", str(a), "-o", str(x),
            "--report", str(report_path), "--quiet",
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["pass"] is True
        assert report["operation"] == "pinv"
        assert {"name", "residual", "tolerance", "pass"} == set(
            report["checks"][0]
        )
        assert all(c["pass"] for c in report["checks"])
        assert report["seconds"] >= 0
        code = cli_main([
            "verify", "--kind", "pinv", str(x), "--input", str(a), "--quiet",
        ])
        assert code == 0

    def test_pinv_routes_agree(self, tmp_path):
        a = self._gen_file(tmp_path, dims=(2, 4, 3))
        x1 = tmp_path / "x1.tns"
        x2 = tmp_path / "x2.tns"
        assert cli_main(["pinv", str(a), "-o", str(x1), "--quiet"]) == 0
        assert cli_main(["pinv", str(a), "-o", str(x2), "--route", "svd",
                         "--quiet"]) == 0
        d = max_abs((read_tensor(x1) - read_tensor(x2)).array)
        assert d <= 1e-9

    def test_tprod_subcommand(self, tmp_path):
        a = self._gen_file(tmp_path, "A.tns", seed=1)
        b = self._gen_file(tmp_path, "B.tns", seed=2)
        c = tmp_path / "C.tns"
        assert cli_main(["tprod", str(a), str(b), "-o", str(c), "--quiet"]) == 0
        expected = tprod(read_tensor(a), read_tensor(b))
        assert max_abs((read_tensor(c) - expected).array) <= 1e-12

    def test_tprod_dual_path_allowance_overflow_exits_3(self, tmp_path, capsys):
        # the product is finite, but the allowance 1e-11 * (1 + 1e200)^2 is
        # not: an infinite allowance would pass any disagreement
        a = np.zeros((2, 2, 2))
        a[0, 0, 0], a[1, 1, 1] = 1e200, 1.0
        b = np.zeros((2, 2, 2))
        b[0, 1, 1], b[1, 0, 0] = 1e200, 1.0
        paths = [tmp_path / "A.tns", tmp_path / "B.tns"]
        for path, data in zip(paths, (a, b)):
            write_tensor(path, Tensor3(data))
        assert tprod(Tensor3(a), Tensor3(b)).max_abs == 1e200
        report = tmp_path / "r.json"
        code = cli_main(["tprod", *map(str, paths), "-o", str(tmp_path / "C.tns"),
                         "--report", str(report), "--quiet"])
        assert code == 3
        assert ("the dual-path allowance overflowed the float64 range"
                in capsys.readouterr().err)
        assert not report.exists()

    def test_tsvd_writes_factors_and_verifies(self, tmp_path):
        a = self._gen_file(tmp_path, dims=(3, 5, 4))
        prefix = tmp_path / "out"
        assert cli_main(["tsvd", str(a), "--out-prefix", str(prefix),
                         "--quiet"]) == 0
        factors = [f"{prefix}_{name}.tns" for name in ("U", "S", "V")]
        code = cli_main([
            "verify", "--kind", "tsvd", *factors, "--input", str(a), "--quiet",
        ])
        assert code == 0

    @pytest.mark.parametrize("kind", ["pinv", "tinv", "witness"])
    def test_verify_detects_tampering(self, tmp_path, kind):
        a = self._gen_file(tmp_path)
        x = tmp_path / "X.tns"
        assert cli_main([kind, str(a), "-o", str(x), "--quiet"]) == 0
        verify = ["verify", "--kind", kind, str(x), "--input", str(a),
                  "--quiet"]
        assert cli_main(verify) == 0
        t = read_tensor(x)
        data = t.array.copy()
        data[0, 0, 0] += 0.5
        write_tensor(x, Tensor3(data))
        assert cli_main(verify) == 1

    def test_group_nilpotent_exits_3(self, tmp_path):
        nil = tmp_path / "nil.tns"
        write_tensor(nil, Tensor3(np.array([[[0.0, 1.0], [0.0, 0.0]]])))
        code = cli_main(["group", str(nil), "-o", str(tmp_path / "g.tns"),
                         "--quiet"])
        assert code == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_pinv_overflow_exits_3(self, tmp_path, capsys):
        a = tmp_path / "tiny.tns"
        write_tensor(a, Tensor3(1e-310 * gen(7, 3, 3, 6).array))
        code = cli_main(["pinv", str(a), "-o", str(tmp_path / "x.tns"),
                         "--quiet"])
        assert code == 3
        assert "non-finite (overflow)" in capsys.readouterr().err

    def test_verify_identity_overflow_exits_3(self, tmp_path, capsys):
        a = self._gen_file(tmp_path, seed=3)
        x = tmp_path / "X.tns"
        write_tensor(x, scalar_mul(1e200, read_tensor(a)))
        code = cli_main(["verify", "--kind", "pinv", str(x), "--input", str(a),
                         "--quiet"])
        assert code == 3
        assert ("an identity residual overflowed the float64 range"
                in capsys.readouterr().err)

    # at these scales an op may fail or its verification overflow; every
    # call must still end in an exit code, never a raised exception
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scale", [2.0**600, 2.0**-600, 1e-310, 1e307],
                             ids=["2^600", "2^-600", "1e-310", "1e307"])
    def test_every_subcommand_exits_with_a_code_at_extreme_scales(
        self, tmp_path, capsys, scale
    ):
        for i, kind in enumerate(("dense", "rank_deficient", "t_symmetric")):
            out_dir = tmp_path / kind
            out_dir.mkdir()
            a = out_dir / "A.tns"
            write_tensor(a, scalar_mul(scale, gen(7 + i, 3, 3, 6, kind)))
            runs = [["tprod", str(a), str(a), "-o", str(out_dir / "C.tns")],
                    ["pinv", str(a), "-o", str(out_dir / "X.tns"),
                     "--route", "svd"]]
            for command, op in cli.OPS.items():
                names = [f"{out_dir / command}_{n}.tns" for n in op.factors]
                out = (["--out-prefix", str(out_dir / command)]
                       if len(names) > 1 else ["-o", names[0]])
                runs.append([command, str(a), *out])
                runs.append(["verify", "--kind", command, *names,
                             "--input", str(a)])
            for argv in runs:
                assert isinstance(cli_main([*argv, "--quiet"]), int), argv
        capsys.readouterr()

    def test_tschur_inverse_transform_overflow_exits_3(self, tmp_path, capsys):
        big = tmp_path / "big.tns"
        write_tensor(big, scalar_mul(1e307, gen(2035, 4, 4, 7)))
        code = cli_main(["tschur", str(big), "--out-prefix",
                         str(tmp_path / "S"), "--quiet"])
        assert code == 3
        assert "inverse transform overflowed" in capsys.readouterr().err

    def test_tinv_singular_exits_3(self, tmp_path, capsys):
        a = self._gen_file(tmp_path, dims=(4, 4, 3), kind="rank_deficient")
        code = cli_main(["tinv", str(a), "-o", str(tmp_path / "x.tns"),
                         "--quiet"])
        assert code == 3
        assert "Fourier block 0" in capsys.readouterr().err

    def test_witness_rank_deficient_seed_209_passes(self, tmp_path):
        # block 0's second singular value is transform noise; at the
        # tensor's rank cutoff it no longer counts, so u and v stay
        # well-conditioned and the witness verifies
        a = self._gen_file(tmp_path, dims=(2, 2, 4), seed=209,
                           kind="rank_deficient")
        report_path = tmp_path / "r.json"
        code = cli_main(["witness", str(a), "-o", str(tmp_path / "w.tns"),
                         "--report", str(report_path), "--quiet"])
        assert code == 0
        assert json.loads(report_path.read_text())["pass"] is True

    def test_malformed_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.tns"
        bad.write_text("0 2 2\n")
        code = cli_main(["pinv", str(bad), "-o", str(tmp_path / "x.tns"),
                         "--quiet"])
        assert code == 2

    def test_usage_error_exits_2(self, capsys):
        assert cli_main(["pinv"]) == 2
        assert cli_main(["verify", "--kind", "tsvd", "one.tns",
                         "--input", "a.tns"]) == 2
        capsys.readouterr()

    def test_tol_override_can_fail_honest_results(self, tmp_path):
        a = self._gen_file(tmp_path)
        code = cli_main([
            "tinv", str(a), "-o", str(tmp_path / "x.tns"),
            "--tol", "1e-30", "--quiet",
        ])
        assert code == 1

    # NaN and negative tolerances fail every check and inf passes every one,
    # so none of them may decide the exit code
    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf", "one"])
    def test_tol_not_finite_and_nonnegative_is_a_usage_error(
            self, tmp_path, tol, capsys):
        a = self._gen_file(tmp_path)
        x = tmp_path / "x.tns"
        assert cli_main(["pinv", str(a), "-o", str(x), f"--tol={tol}"]) == 2
        assert "--tol" in capsys.readouterr().err
        assert not x.exists()

    def test_tol_zero_checks_every_residual_against_zero(self, tmp_path):
        a = tmp_path / "zero.tns"
        write_tensor(a, Tensor3.zeros(2, 3, 4))
        report_path = tmp_path / "r.json"
        assert cli_main(["pinv", str(a), "-o", str(tmp_path / "x.tns"),
                         "--tol", "0", "--report", str(report_path),
                         "--quiet"]) == 0
        checks = json.loads(report_path.read_text())["checks"]
        assert {(c["residual"], c["tolerance"]) for c in checks} == {(0.0, 0.0)}

    def test_all_factorization_subcommands(self, tmp_path):
        a = self._gen_file(tmp_path, dims=(3, 3, 3), seed=11)
        for command, names in [
            ("tschur", ("U", "T")),
            ("tjordan", ("P", "J")),
            ("idem", ("U", "E", "V")),
        ]:
            prefix = tmp_path / command
            assert cli_main([command, str(a), "--out-prefix", str(prefix),
                             "--quiet"]) == 0
            factors = [f"{prefix}_{n}.tns" for n in names]
            kind = command
            assert cli_main([
                "verify", "--kind", kind, *factors,
                "--input", str(a), "--quiet",
            ]) == 0

    def test_inverse_subcommands(self, tmp_path):
        a = self._gen_file(tmp_path, dims=(3, 3, 4), seed=19)
        for command in ("tinv", "drazin", "group", "witness"):
            out = tmp_path / f"{command}.tns"
            assert cli_main([command, str(a), "-o", str(out), "--quiet"]) == 0
        assert cli_main([
            "verify", "--kind", "drazin", str(tmp_path / "drazin.tns"),
            "--input", str(a), "--quiet",
        ]) == 0
        assert cli_main([
            "verify", "--kind", "group", str(tmp_path / "group.tns"),
            "--input", str(a), "--quiet",
        ]) == 0

    def test_verify_drazin_checks_at_the_computed_index(self, tmp_path):
        a = self._gen_file(tmp_path, dims=(2, 2, 4), seed=10,
                           kind="rank_deficient")
        x = tmp_path / "X.tns"
        own, checked = tmp_path / "own.json", tmp_path / "verify.json"
        # verify must report the very residuals the op reported
        code = cli_main(["drazin", str(a), "-o", str(x), "--report", str(own),
                         "--quiet"])
        assert cli_main(["verify", "--kind", "drazin", str(x),
                         "--input", str(a), "--report", str(checked),
                         "--quiet"]) == code

        def residuals(path):
            return [(c["name"], c["residual"])
                    for c in json.loads(path.read_text())["checks"]]

        assert residuals(checked) == residuals(own)

    def test_tol_keeps_every_check(self, tmp_path):
        a = self._gen_file(tmp_path, dims=(3, 3, 4))
        for command in ("tsvd", "tschur", "tjordan", "idem", "drazin",
                        "witness"):
            out = (["--out-prefix", str(tmp_path / command)]
                   if len(cli.OPS[command].factors) > 1
                   else ["-o", str(tmp_path / f"{command}.tns")])
            checks = []
            for tol in ([], ["--tol", "1e-6"]):
                report_path = tmp_path / "r.json"
                assert cli_main([command, str(a), *out, *tol, "--quiet",
                                 "--report", str(report_path)]) == 0
                checks.append(json.loads(report_path.read_text())["checks"])
            plain, overridden = checks
            assert [(c["name"], c["residual"]) for c in overridden] == [
                (c["name"], c["residual"]) for c in plain], command
            assert {c["tolerance"] for c in overridden} == {1e-6}, command

    def test_report_written_even_on_failure(self, tmp_path):
        a = self._gen_file(tmp_path)
        report_path = tmp_path / "r.json"
        code = cli_main([
            "tinv", str(a), "-o", str(tmp_path / "x.tns"),
            "--tol", "1e-30", "--report", str(report_path), "--quiet",
        ])
        assert code == 1
        report = json.loads(report_path.read_text())
        assert report["pass"] is False
