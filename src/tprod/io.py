"""Text serialization of tensors.

Format: a header line "m n p", then the p frontal slices in order, each as
m lines of n decimal numbers, with one blank line between slices.  Lines
starting with '#' are comments.  Values are written with 17 significant
digits, which round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Tensor3
from .errors import DimensionError, IoError, ParseError


def write_tensor(path, t: Tensor3) -> None:
    """Write a tensor to ``path`` in the text format."""
    m, n, p = t.dims
    # one %-format pass over every entry; '%.17g' round-trips doubles
    body = "\n\n".join(["\n".join([" ".join(["%.17g"] * n)] * m)] * p)
    text = f"{m} {n} {p}\n" + body % tuple(t.array.ravel().tolist()) + "\n"
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_tensor(path) -> Tensor3:
    """Read a tensor from ``path``; malformed content raises ParseError."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc

    rows: list[tuple[int, list[str]]] = []  # (1-based line number, tokens)
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
    try:
        values = np.array([tokens for _, tokens in body], dtype=float)
    except ValueError:  # a bad token, or rows of unequal width
        values = None
    if (values is None or values.shape != (m * p, n)
            or not np.isfinite(values).all()):
        values = _parse_rows(body, n)
    return Tensor3(values.reshape(p, m, n))


def _parse_rows(body, n: int) -> np.ndarray:
    """Parse data rows token by token, raising ParseError at the first bad one.

    ``read_tensor`` parses all tokens in one array conversion and falls back
    to this loop only when that fails, so that the error names the line and
    column of the first offending row or token in file order.
    """
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
    return np.asarray(values)
