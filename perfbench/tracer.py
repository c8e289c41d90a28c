"""Span tracer that wraps tprod's public functions from outside the library.

Nothing under ``src/tprod`` is edited.  :meth:`Tracer.install` replaces a
function with a timing wrapper in *every* loaded ``tprod`` module that binds
it, because ``from .fourier import to_fourier`` copies the reference into
the importing module and wrapping only the defining module would miss those
calls.  :meth:`Tracer.uninstall` puts every original back.

Spans nest: each wrapper adds its inclusive time to its parent's child time,
so ``self = inclusive - child`` is the time spent in the function's own
body, outside the other traced functions.  Statistics are aggregates per
span name, kept in memory; :meth:`Tracer.dump` writes them out and
:meth:`Tracer.merge` folds in the statistics of a traced child process.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# span name -> (defining module, function name).  The "op" spans are not
# reported themselves; they make the CLI's self time exclude library work.
SPANS = {
    "fourier.to_fourier": ("tprod.fourier", "to_fourier"),
    "fourier.inverse_transform": ("tprod.fourier", "inverse_transform"),
    "fourier.assemble_real": ("tprod.fourier", "assemble_real"),
    "fourier.lift_multi": ("tprod.fourier", "lift_multi"),
    "fourier.mirror_blocks": ("tprod.fourier", "mirror_blocks"),
    "fourier.check_pairing": ("tprod.fourier", "check_pairing"),
    "kernels.svd": ("tprod.kernels", "svd"),
    "kernels.schur_complex": ("tprod.kernels", "schur_complex"),
    "kernels.schur_real_ordered": ("tprod.kernels", "schur_real_ordered"),
    "kernels.mp_inverse": ("tprod.kernels", "mp_inverse"),
    "kernels.drazin_inverse": ("tprod.kernels", "drazin_inverse"),
    "kernels.matrix_index": ("tprod.kernels", "matrix_index"),
    "kernels.jordan_real": ("tprod.kernels", "jordan_real"),
    "kernels.jordan_complex": ("tprod.kernels", "jordan_complex"),
    "kernels.rank_normal_form": ("tprod.kernels", "rank_normal_form"),
    "kernels.group_inverse": ("tprod.kernels", "group_inverse"),
    "verify.tsvd_report": ("tprod.factorizations", "tsvd_report"),
    "verify.tschur_report": ("tprod.factorizations", "tschur_report"),
    "verify.tjordan_report": ("tprod.factorizations", "tjordan_report"),
    "verify.idem_report": ("tprod.factorizations", "idem_report"),
    "verify.penrose_report": ("tprod.ginverses", "penrose_report"),
    "verify.drazin_report": ("tprod.ginverses", "drazin_report"),
    "verify.inverse_report": ("tprod.ginverses", "inverse_report"),
    "verify.group_report": ("tprod.ginverses", "group_report"),
    "verify.witness_report": ("tprod.ginverses", "witness_report"),
    "core.tprod": ("tprod.core", "tprod"),
    "core.bcirc": ("tprod.core", "bcirc"),
    "core.power": ("tprod.core", "power"),
    "io.read_tensor": ("tprod.io", "read_tensor"),
    "io.write_tensor": ("tprod.io", "write_tensor"),
    "generate.gen": ("tprod.generate", "gen"),
    "cli.cli_main": ("tprod.cli", "cli_main"),
    "op.t_svd": ("tprod.factorizations", "t_svd"),
    "op.t_schur": ("tprod.factorizations", "t_schur"),
    "op.t_jordan": ("tprod.factorizations", "t_jordan"),
    "op.idempotent_factorization": ("tprod.factorizations",
                                    "idempotent_factorization"),
    "op.t_pinv": ("tprod.ginverses", "t_pinv"),
    "op.t_drazin": ("tprod.ginverses", "t_drazin"),
    "op.t_index": ("tprod.ginverses", "t_index"),
    "op.t_inverse": ("tprod.ginverses", "t_inverse"),
    "op.t_group": ("tprod.ginverses", "t_group"),
    "op.unit_regular_witness": ("tprod.ginverses", "unit_regular_witness"),
}

def _transform_flops(blocks_shape) -> int:
    """Flops of one O(p^2) transform: a complex (p, p) by (p, m*n) product.

    ``np.tensordot`` promotes the real slice stack to complex, so both
    directions cost 8 real flops per multiply-add.
    """
    p, m, n = blocks_shape
    return 8 * p * p * m * n


def _note_transform(counts, args, result):
    arr = result.blocks if hasattr(result, "blocks") else result
    counts["flops"] = counts.get("flops", 0) + _transform_flops(arr.shape)


def _note_file_bytes(counts, args, result):
    counts["bytes"] = counts.get("bytes", 0) + os.path.getsize(args[0])


def _count_lift_blocks(counts, args, kwargs):
    """Count the blocks a lift actually evaluates, against its slice count."""
    fb, op = args[0], args[1]

    def counted(block, k):
        counts["blocks"] = counts.get("blocks", 0) + 1
        return op(block, k)

    counts["slices"] = counts.get("slices", 0) + fb.p
    return (fb, counted) + tuple(args[2:]), kwargs


PRE_HOOKS = {"fourier.lift_multi": _count_lift_blocks}
POST_HOOKS = {
    "fourier.to_fourier": _note_transform,
    "fourier.inverse_transform": _note_transform,
    "io.read_tensor": _note_file_bytes,
    "io.write_tensor": _note_file_bytes,
}


class Tracer:
    """Aggregated nested spans over the functions named in :data:`SPANS`.

    ``stats[name]`` holds ``calls``, inclusive seconds ``s``, seconds spent
    in traced callees ``child_s``, and any counts a hook records.
    """

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats = {}

    def _wrap(self, name, fn):
        pre = PRE_HOOKS.get(name)
        post = POST_HOOKS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = {"calls": 0, "s": 0.0, "child_s": 0.0}
            if pre is not None:
                args, kwargs = pre(st, args, kwargs)
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                st["calls"] += 1
                st["s"] += dt
                st["child_s"] += stack.pop()
                if stack:
                    stack[-1] += dt
            if post is not None:
                post(st, args, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def install(self) -> None:
        """Wrap every binding of each traced function in loaded tprod modules."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for modname, _ in SPANS.values():
            importlib.import_module(modname)
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "tprod" or key.startswith("tprod."))]
        for name, (modname, attr) in SPANS.items():
            original = getattr(sys.modules[modname], attr)
            if getattr(original, "__wrapped_by_tracer__", False):
                raise RuntimeError(f"{modname}.{attr} is already wrapped")
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        """Restore every module attribute :meth:`install` replaced."""
        while self._saved:
            mod, key, original = self._saved.pop()
            setattr(mod, key, original)
        self._stack.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def merge(self, other: dict) -> None:
        """Add the statistics of another tracer (e.g. a traced child)."""
        for name, st in other.items():
            mine = self.stats.setdefault(name, {"calls": 0, "s": 0.0, "child_s": 0.0})
            for key, value in st.items():
                mine[key] = mine.get(key, 0) + value

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.stats, fh)

    def get(self, name: str, key: str = "s"):
        return self.stats.get(name, {}).get(key, 0)

    def self_s(self, name: str) -> float:
        st = self.stats.get(name)
        return 0.0 if st is None else st["s"] - st["child_s"]
