"""Hooks the benchmark relies on, checked in the library's own tests.

``perfbench/tracer.py`` installs timing wrappers on the ``(module, attr)``
pairs in its ``SPANS`` table.  A rename in ``tprod`` would break
``perfbench/run.py --trace 1`` without failing any library test, so this
loads the tracer by file path and resolves every pair.  The benchmark
also counts every output that ``perfbench/reference.py`` rejects as a
failure; the same reference checks run here on small shapes, since the
tests do not run the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import tprod
from tprod.generate import KINDS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves():
    spans = _load("tracer").SPANS
    assert spans
    missing = []
    for name, (modname, attr) in spans.items():
        module = importlib.import_module(modname)
        if not callable(getattr(module, attr, None)):
            missing.append(f"{name}: {modname}.{attr}")
    assert not missing, missing


# the retired names, with the replacement each stub's error names; the
# tracer still wraps them: the per-matrix kernels, retired in favour of the
# ops at p = 1, and the per-matrix front end of FourierBlocks.map
RETIRED = {
    ("tprod.kernels", "svd"): "t_svd(Tensor3(a[None])) or svd_stack(a[None])",
    ("tprod.kernels", "schur_complex"): "schur_stack(a[None])",
    ("tprod.kernels", "schur_real_ordered"):
        "t_schur(Tensor3(a[None])) or schur_stack(a[None])",
    ("tprod.kernels", "jordan_complex"): "jordan_stack(a[None])",
    ("tprod.kernels", "jordan_real"):
        "t_jordan(Tensor3(a[None])) or jordan_stack(a[None])",
    ("tprod.kernels", "rank_normal_form"):
        "idempotent_factorization(Tensor3(a[None])) or rank_normal_factors",
    ("tprod.kernels", "mp_inverse"):
        "t_pinv(Tensor3(a[None])) or pinv_from_svd",
    ("tprod.kernels", "matrix_index"):
        "t_index(Tensor3(a[None])) or drazin_indices",
    ("tprod.kernels", "drazin_inverse"):
        "t_drazin(Tensor3(a[None])) or drazin_stack",
    ("tprod.kernels", "group_inverse"):
        "t_group(Tensor3(a[None])) or drazin_from_powers",
    ("tprod.fourier", "lift_multi"): "FourierBlocks.map",
}


def test_retired_kernels_are_stubs_the_tracer_still_wraps():
    """Each retired name is its own callable, still a span, and raises
    NotImplementedError naming its replacement.  Once the tracer drops
    these spans this fails: then delete the stubs and this test."""
    spans = set(_load("tracer").SPANS.values())
    stubs = {(modname, name): getattr(importlib.import_module(modname), name)
             for modname, name in RETIRED}
    assert all(map(callable, stubs.values()))
    assert len(set(map(id, stubs.values()))) == len(RETIRED)
    for (modname, name), stub in stubs.items():
        assert (modname, name) in spans
        with pytest.raises(NotImplementedError) as excinfo:
            stub(np.eye(2))
        assert str(excinfo.value) == (
            f"{modname.removeprefix('tprod.')}.{name} is retired; "
            f"use {RETIRED[modname, name]}")


def test_traced_run_matches_untraced():
    """``--trace 1`` wraps the traced functions without changing what they
    return."""
    a = tprod.gen(0, 3, 3, 4)

    def run():
        schur, svd = tprod.t_schur(a), tprod.t_svd(a)
        return [schur.u.array, schur.t.array, svd.u.array, svd.s.array,
                svd.v.array, svd.fourier_singular_values]

    untraced = run()
    tracer = _load("tracer").Tracer()
    with tracer:
        traced = run()
    for want, got in zip(untraced, traced):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("kind", KINDS)
# 4x4x512 is slice_heavy's shape; at 4x4x64 a per-block rank cutoff below
# the transform noise already passed the reference on these seeds
@pytest.mark.parametrize("shape", [(2, 2, 4), (3, 3, 5), (4, 4, 64), (4, 4, 512)])
def test_outputs_match_numpy_reference(shape, kind):
    ref = _load("reference")
    failures = []
    for seed in range(20):
        a = tprod.gen(seed, *shape, kind)
        arr = a.array
        checks = {
            "tprod": ref.check_tprod(arr, arr, tprod.tprod(a, a).array),
            "t_svd": ref.check_singular_values(
                arr, tprod.t_svd(a).fourier_singular_values),
        }
        for route in ("blocks", "svd"):
            x = tprod.t_pinv(a, route=route)
            checks[f"t_pinv({route})"] = ref.check_pinv(arr, x.array)
        failures += [(seed, op, err) for op, err in checks.items()
                     if err is not None]
    assert not failures, failures
