"""Dense O(n^2) reference for the Edgeworth pilot ``_edgeworth_q_hats``.

This is the pairwise-matrix implementation that ``npinfer.bandwidth``
used before the pilot was rewritten as bilinear forms through G^-1.  It
forms the n x n matrices B = R G^-1 R', C, C**2, bmat and L1 over the
whole sample, so it is slow and memory-hungry, and it serves only as the
oracle that the linear-time pilot is checked against.
"""

from __future__ import annotations

import numpy as np

from npinfer.locpoly import LocPolyFit


def dense_edgeworth_q_hats(fit: LocPolyFit, eps: np.ndarray, z: float):
    """Sample analogues of the coverage-error polynomials from one fit.

    ``fit`` is the degree-q pilot fit (with the recommended q = p+1,
    K = L, rho = 1 the RBC polynomials equal the undersmoothing ones at
    degree q); ``eps`` are the degree-p pilot residuals.  Expectations
    over one observation become sample means; expectations over pairs and
    triples become second- and third-order U-statistic averages over
    distinct indices (the triple sum in factorized O(n^2) form).
    Conditional variances v(X_i) use the HC0 plug-in eps_i^2, under which
    the E[l0^4 (eps^4 - v^2)] term vanishes identically; it is kept for
    completeness.
    """
    n = fit.u.size
    h = fit.h
    R = fit.basis
    kv = fit.kvals  # zero off-window
    ginv = fit.g_inv
    e2 = eps**2

    l0 = kv * (R @ ginv[0])
    sig2 = float(l0**2 @ e2 / (n * h))
    if sig2 <= 0:
        return None

    lev_raw = np.einsum("ij,jk,ik->i", R, ginv, R)  # r_i' G^-1 r_i
    A1 = float(l0**3 @ eps**3 / (n * h))
    # l1(X_i, X_i) = h l0_i - l0_i K_i r_i' G^-1 r_i
    l1_diag = h * l0 - l0 * kv * lev_raw
    A2 = float((l0 * l1_diag) @ e2 / (n * h))
    A3 = 0.0  # E[l0^4 (eps^4 - v^2)] with v_hat = eps^2
    A4 = float((l0**2 * kv * lev_raw) @ e2 / (n * h))
    vec1 = R.T @ (l0**3 * eps**3) / (n * h)
    vec2 = R.T @ (kv * l0 * e2) / (n * h)
    A5 = float(vec1 @ ginv @ vec2)

    # pairwise and triple terms on full n x n products
    B = R @ ginv @ R.T
    C = B * kv[None, :]  # C[i, j] = K_j r_i' G^-1 r_j
    pair_norm = n * (n - 1)
    g_i = l0**2
    t_j = e2
    C2 = C**2
    full6 = g_i @ C2 @ t_j
    diag6 = float(np.sum(g_i * np.diag(C2) * t_j))
    A6 = (full6 - diag6) / (pair_norm * h**2)

    # bmat[j, i] = K_i (r_j' G^-1 r_i) l0_i e_i^2 = C[j, i] l0_i e_i^2
    bmat = C * (l0 * e2)[None, :]
    row_sum = bmat.sum(axis=1) - np.diag(bmat)
    row_sq = (bmat**2).sum(axis=1) - np.diag(bmat) ** 2
    triple_norm = n * (n - 1) * (n - 2)
    A7 = float(l0**2 @ (row_sum**2 - row_sq)) / (triple_norm * h**3)

    A8 = float(l0**4 @ eps**4 / (n * h))
    center = float(l0**2 @ e2 / n)  # E[l0^2 v]
    D = l0**2 * e2 - center
    A9 = float(D @ (l0**2 * e2) / (n * h))

    # L1[i, j] = h l0_i - l0_j C[j, i]
    L1 = h * l0[:, None] - C.T * l0[None, :]
    a_vec = l0 * e2  # l0_i v_hat_i and l0_i eps_i^2 coincide under HC0
    g_vec = l0**2 * e2
    tot10 = float(a_vec @ L1 @ g_vec) - float(np.sum(a_vec * np.diag(L1) * g_vec))
    A10 = tot10 / (pair_norm * h**2)
    gt_vec = g_vec - center
    tot11 = float(a_vec @ L1 @ gt_vec) - float(np.sum(a_vec * np.diag(L1) * gt_vec))
    A11 = tot11 / (pair_norm * h**2)
    A12 = float(D @ D / (n * h))

    s2 = 1.0 / sig2**2
    s4 = s2 * s2
    s6 = s4 * s2
    q1 = 2.0 * (
        s6 * A1**2 * (z**3 / 3.0 + 7.0 * z / 4.0 + sig2 * z * (z**2 - 3.0) / 4.0)
        + s2 * A2 * (-z * (z**2 - 3.0) / 2.0)
        + s4 * A3 * (z * (z**2 - 3.0) / 8.0)
        - s2 * A4 * (z * (z**2 - 1.0) / 2.0)
        - s4 * A5 * (z * (z**2 - 1.0))
        + s2 * A6 * (z * (z**2 - 1.0) / 4.0)
        + s4 * A7 * (z * (z**2 - 1.0) / 2.0)
        + s4 * A8 * (-z * (z**2 - 3.0) / 24.0)
        + s4 * A9 * (z * (z**2 - 1.0) / 4.0)
        + s4 * A10 * (z * (z**2 - 3.0))
        + s4 * A11 * (-z)
        + s4 * A12 * (-z * (z**2 + 1.0) / 8.0)
    )
    q2 = -s2 * sig2 * z  # = -z / sig2
    q3 = s4 * A1 * (2.0 * z**3 / 3.0)
    terms = {
        "A1": A1, "A2": A2, "A3": A3, "A4": A4, "A5": A5, "A6": A6,
        "A7": A7, "A8": A8, "A9": A9, "A10": A10, "A11": A11, "A12": A12,
        "sigma2": sig2,
    }
    return q1, q2, q3, terms
