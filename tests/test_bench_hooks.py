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


# the per-matrix kernels retired in favour of the ops at p = 1, with the
# replacement each stub's error names; the tracer still wraps them
RETIRED = {
    "svd": "t_svd(Tensor3(a[None])) or svd_stack(a[None])",
    "schur_complex": "schur_stack(a[None])",
    "schur_real_ordered": "t_schur(Tensor3(a[None])) or schur_stack(a[None])",
    "jordan_complex": "jordan_stack(a[None])",
    "jordan_real": "t_jordan(Tensor3(a[None])) or jordan_stack(a[None])",
    "rank_normal_form":
        "idempotent_factorization(Tensor3(a[None])) or rank_normal_factors",
    "mp_inverse": "t_pinv(Tensor3(a[None])) or pinv_from_svd",
    "matrix_index": "t_index(Tensor3(a[None])) or drazin_indices",
    "drazin_inverse": "t_drazin(Tensor3(a[None])) or drazin_stack",
    "group_inverse": "t_group(Tensor3(a[None])) or drazin_from_powers",
}


def test_retired_kernels_are_stubs_the_tracer_still_wraps():
    """Each retired name is its own callable, still a span, and raises
    NotImplementedError naming its replacement.  Once the tracer drops
    these spans this fails: then delete the stubs and this test."""
    spans = set(_load("tracer").SPANS.values())
    stubs = [getattr(tprod.kernels, name) for name in RETIRED]
    assert all(map(callable, stubs))
    assert len(set(map(id, stubs))) == len(RETIRED)
    for name, replacement in RETIRED.items():
        assert ("tprod.kernels", name) in spans
        with pytest.raises(NotImplementedError) as excinfo:
            getattr(tprod.kernels, name)(np.eye(2))
        assert str(excinfo.value) == (
            f"kernels.{name} is retired; use {replacement}")


def test_traced_run_matches_untraced():
    """``--trace 1`` wraps ``lift_multi``'s op to count the blocks it
    evaluates, so a change to the lift's calling convention shows here.
    No op calls the lift any more, so ``run`` calls it directly."""
    a = tprod.gen(0, 3, 3, 4)

    def run():
        tprod.fourier.lift_multi(tprod.to_fourier(a), lambda b, k: (b,))
        schur, svd = tprod.t_schur(a), tprod.t_svd(a)
        return [schur.u.array, schur.t.array, svd.u.array, svd.s.array,
                svd.v.array, svd.fourier_singular_values]

    untraced = run()
    tracer = _load("tracer").Tracer()
    with tracer:
        traced = run()
    for want, got in zip(untraced, traced):
        np.testing.assert_array_equal(got, want)
    assert tracer.stats["fourier.lift_multi"]["blocks"] == 3  # p // 2 + 1


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
