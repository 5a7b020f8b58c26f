"""Per-point piece lookup reference for ``KernelSpec.eval_many``.

This is the evaluator that ``npinfer.kernels`` used before it worked one
polynomial piece at a time: each point finds its piece with
``searchsorted`` over the breaks, the points exactly at the right edge are
moved to the last piece, and a Horner pass runs over a gathered
per-point coefficient matrix, padded with zeros to the highest degree of
any piece.  The two caches it read from the spec (``_breaks`` and
``_coef_matrix``) are built here on each call.  It serves only as the
oracle that the piece-at-a-time evaluator is checked against, byte for
byte.  It raises TypeError on 0-d input.
"""

from __future__ import annotations

import numpy as np

from npinfer.kernels import KernelSpec


def _breaks(spec: KernelSpec) -> np.ndarray:
    pts = [spec.pieces[0][0]] + [p[1] for p in spec.pieces]
    return np.array([float(b) for b in pts])


def _coef_matrix(spec: KernelSpec) -> np.ndarray:
    deg = max(len(p[2]) for p in spec.pieces)
    mat = np.zeros((len(spec.pieces), deg))
    for i, (_, _, coeffs) in enumerate(spec.pieces):
        mat[i, : len(coeffs)] = [float(c) for c in coeffs]
    return mat


def reference_eval_many(spec: KernelSpec, u: np.ndarray) -> np.ndarray:
    """Evaluate the kernel at an array of points (0 outside support)."""
    u = np.asarray(u, dtype=float)
    breaks = _breaks(spec)
    idx = np.searchsorted(breaks, u, side="right") - 1
    # points exactly at the right edge belong to the last piece
    idx[u == breaks[-1]] = len(spec.pieces) - 1
    inside = (idx >= 0) & (idx < len(spec.pieces)) & (u >= breaks[0]) & (u <= breaks[-1])
    out = np.zeros_like(u)
    if np.any(inside):
        safe = np.clip(idx[inside], 0, len(spec.pieces) - 1)
        coefs = _coef_matrix(spec)[safe]
        ui = u[inside]
        acc = np.zeros_like(ui)
        for j in range(coefs.shape[1] - 1, -1, -1):
            acc = acc * ui + coefs[:, j]
        out[inside] = acc
    return out
