"""Compactly supported kernels represented as exact piecewise polynomials.

Every kernel lives on [-1, 1] (or a rescaling of it) and is stored as a
list of polynomial pieces with exact rational coefficients.  Moments,
powers, derivatives, and the induced bias-corrected kernel are all
computed by closed-form polynomial algebra, so no quadrature error enters
the estimators.  Gauss-Legendre quadrature exists only as a test oracle.

Moment conventions:

    mu_k(K)    = ((-1)^k / k!) * integral of u^k K(u) du
    theta_k(K) = integral of K(u)^k du

A kernel with ``derivative_target = d > 0`` stores the function that plays
the role of the d-th derivative of a smoothing kernel (it estimates the
d-th derivative of a density directly); ``derivative_target = 0`` marks an
ordinary level kernel.

Caching.  These constants depend on the kernels alone, never on the
data, so each is computed once:

- per process: ``kernel()`` returns one shared spec per built-in name
  (aliases included), and ``minvar_derivative_kernel`` and
  ``induced_kernel`` keep the specs they built in an LRU cache of
  ``_CACHE_SIZE`` entries;
- per spec: the exact integrals behind ``moment_mu_exact``,
  ``moment_mu``, ``moment_theta`` and ``power_weighted_integral``, the
  floats that the last three return, and each ``derivative(order)``, are
  kept on the instance that computed them.

A spec hashes its name, order, derivative target and piece count only,
so a cache keyed by a spec looks it up in well under a microsecond
instead of hashing every rational coefficient; equality still compares
the pieces, so equal hashes of unequal specs stay apart.  The hash is
computed afresh on every call, so a pickled spec carries no stale one.
The cached float is the exact result rounded once, so results are
bit-for-bit those of a fresh computation.
``induced_kernel``'s cache must stay bounded: its key holds rho = h/b,
a ratio of two bandwidths.  The MC engine and the CLI set b = h/rho, so
the quotient lands within an ulp of rho (0.3 or 0.29999999999999993 for
rho = 0.3) and a study adds a few entries; but a caller that picks b
apart from h adds one per call.  Failed calls raise every time; errors
are not cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "KernelSpec",
    "TruncatedSupport",
    "kernel",
    "custom_kernel",
    "kernel_names",
    "induced_kernel",
    "gj_equivalent_kernel",
    "derivative_part",
    "minvar_derivative_kernel",
]

# entries in each process-wide LRU cache of derived kernels
_CACHE_SIZE = 64


class MemoMixin:
    """A per-instance dict of computed values, for frozen dataclasses.

    ``_memoized(key, compute)`` returns the stored value for ``key``, or
    stores and returns ``compute()``.  A computation that raises stores
    nothing, so it raises again on the next call.
    """

    @cached_property
    def _memo(self) -> dict:
        return {}

    def _memoized(self, key, compute):
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]


# ----------------------------------------------------------------------
# exact polynomial helpers (coefficients ascending in degree)
# ----------------------------------------------------------------------

def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


def _poly_pow(a: Sequence[Fraction], k: int) -> tuple:
    out = (Fraction(1),)
    for _ in range(k):
        out = _poly_mul(out, a)
    return out


def _poly_derivative(a: Sequence[Fraction]) -> tuple:
    if len(a) <= 1:
        return (Fraction(0),)
    return tuple(Fraction(j) * a[j] for j in range(1, len(a)))


def _poly_defint(a: Sequence[Fraction], lo: Fraction, hi: Fraction) -> Fraction:
    """Exact integral of the polynomial over [lo, hi]."""
    total = Fraction(0)
    for j, c in enumerate(a):
        if c == 0:
            continue
        total += c * (hi ** (j + 1) - lo ** (j + 1)) / (j + 1)
    return total


def _poly_shift_scale(a: Sequence[Fraction], rho: Fraction) -> tuple:
    """Coefficients of u -> P(rho * u)."""
    return tuple(c * rho**j for j, c in enumerate(a))


# ----------------------------------------------------------------------
# supports
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TruncatedSupport:
    """Integration range for boundary-truncated kernel moments.

    ``lower`` must lie in [-1, 0] and ``upper`` in [0, 1]; the full
    support [-1, 1] corresponds to interior evaluation points.
    """

    lower: float = -1.0
    upper: float = 1.0

    def __post_init__(self):
        if not (-1.0 <= self.lower <= 0.0):
            raise ValueError(f"lower must be in [-1, 0], got {self.lower}")
        if not (0.0 <= self.upper <= 1.0):
            raise ValueError(f"upper must be in [0, 1], got {self.upper}")
        if not self.lower < self.upper:
            raise ValueError("lower must be strictly below upper")

    @property
    def is_full(self) -> bool:
        return self.lower == -1.0 and self.upper == 1.0


# ----------------------------------------------------------------------
# kernel specification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec(MemoMixin):
    """A kernel given by exact polynomial pieces on a compact support.

    Parameters
    ----------
    name : str
        Identifier (lowercase, e.g. ``"epanechnikov"``).
    pieces : tuple
        Tuple of ``(lo, hi, coeffs)`` with Fraction endpoints and Fraction
        coefficients ascending in degree; pieces are contiguous and sorted.
    kappa : int
        Kernel order (first nonvanishing mu-moment index), an even
        positive integer for the built-in level kernels.
    derivative_target : int
        0 for a level kernel, d for a kernel that estimates the d-th
        derivative of the density directly.

    The memo holds exact integrals under ``("int", m, power, trunc)``, the
    floats of ``moment_mu``, ``moment_theta`` and ``power_weighted_integral``
    under ``("mu", k, trunc)``, ``("theta", k, trunc)`` and ``("pwi", m,
    power, trunc)``, and derivatives under ``("d", order)``.
    """

    name: str
    pieces: tuple
    kappa: int
    derivative_target: int = 0

    # -- basic geometry ------------------------------------------------

    @property
    def support(self) -> tuple:
        return (self._float_pieces[0][0], self._float_pieces[-1][1])

    @cached_property
    def _float_pieces(self) -> tuple:
        """The pieces as floats: ``(lo, hi, coeffs)`` with the coefficients
        descending in degree, the order Horner's rule reads them."""
        return tuple(
            (float(lo), float(hi), tuple(float(c) for c in reversed(coeffs)))
            for lo, hi, coeffs in self.pieces
        )

    def __hash__(self) -> int:
        # consistent with the field-wise __eq__, without hashing every Fraction
        return hash((self.name, self.kappa, self.derivative_target, len(self.pieces)))

    # -- evaluation ----------------------------------------------------

    def __call__(self, u: float) -> float:
        return float(self.eval_many(np.asarray([u]))[0])

    def eval_many(self, u: np.ndarray) -> np.ndarray:
        """Evaluate the kernel at an array of points, of any shape.

        Piece k covers lo_k <= u < hi_k, and the last piece also covers its
        right edge; points outside the support, +-inf and nan give 0.0.
        """
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        last = len(self._float_pieces) - 1
        for k, (lo, hi, coeffs) in enumerate(self._float_pieces):
            on_piece = (u >= lo) & ((u < hi) if k < last else (u <= hi))
            ui = u[on_piece]
            acc = np.zeros_like(ui)
            for c in coeffs:
                acc = acc * ui + c
            out[on_piece] = acc
        return out

    # -- calculus ------------------------------------------------------

    def derivative(self, order: int = 1) -> "KernelSpec":
        """Exact piecewise derivative, zero outside the support."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        if order == 0:
            return self
        return self._memoized(("d", order), lambda: KernelSpec(
            name=f"{self.name}-d{order}",
            pieces=tuple(
                (lo, hi, _nth_derivative(coeffs, order)) for lo, hi, coeffs in self.pieces
            ),
            kappa=self.kappa,
            derivative_target=self.derivative_target + order,
        ))

    def _clip_pieces(self, trunc: TruncatedSupport | None):
        if trunc is None or trunc.is_full:
            # full support means the kernel's own natural support
            yield from self.pieces
            return
        lo_t, hi_t = _frac(trunc.lower), _frac(trunc.upper)
        for lo, hi, coeffs in self.pieces:
            a, b = max(lo, lo_t), min(hi, hi_t)
            if a < b:
                yield (a, b, coeffs)

    def _integral(self, m: int, power: int, trunc: TruncatedSupport | None) -> Fraction:
        """Exact integral of u^m K(u)^power over the (truncated) support."""
        if trunc is not None and trunc.is_full:
            trunc = None

        def compute():
            um = tuple([Fraction(0)] * m + [Fraction(1)])
            total = Fraction(0)
            for lo, hi, coeffs in self._clip_pieces(trunc):
                total += _poly_defint(_poly_mul(um, _poly_pow(coeffs, power)), lo, hi)
            return total

        return self._memoized(("int", m, power, trunc), compute)

    def moment_mu_exact(self, k: int, trunc: TruncatedSupport | None = None) -> Fraction:
        """Exact rational mu_k moment (see :meth:`moment_mu`)."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        return self._integral(k, 1, trunc) * Fraction((-1) ** k, math.factorial(k))

    def moment_mu(self, k: int, trunc: TruncatedSupport | None = None) -> float:
        """mu_k = ((-1)^k / k!) * integral of u^k K(u) over the (truncated) support."""
        return self._memoized(("mu", k, trunc), lambda: float(self.moment_mu_exact(k, trunc)))

    def moment_theta(self, k: int, trunc: TruncatedSupport | None = None) -> float:
        """theta_k = integral of K(u)^k over the (truncated) support."""
        if k < 1:
            raise ValueError("k must be at least 1")
        return self._memoized(("theta", k, trunc), lambda: float(self._integral(0, k, trunc)))

    def power_weighted_integral(
        self, m: int, power: int, trunc: TruncatedSupport | None = None
    ) -> float:
        """Exact integral of u^m K(u)^power over the (truncated) support."""
        if m < 0 or power < 1:
            raise ValueError("m must be >= 0 and power >= 1")
        return self._memoized(
            ("pwi", m, power, trunc), lambda: float(self._integral(m, power, trunc))
        )


def _nth_derivative(coeffs: Sequence[Fraction], order: int) -> tuple:
    out = tuple(coeffs)
    for _ in range(order):
        out = _poly_derivative(out)
    return out


# ----------------------------------------------------------------------
# built-in kernels
# ----------------------------------------------------------------------

def _single(name, coeffs, kappa, derivative_target=0) -> KernelSpec:
    pieces = ((Fraction(-1), Fraction(1), tuple(Fraction(c) for c in coeffs)),)
    return KernelSpec(name, pieces, kappa, derivative_target)


def _triangular() -> KernelSpec:
    left = (Fraction(-1), Fraction(0), (Fraction(1), Fraction(1)))
    right = (Fraction(0), Fraction(1), (Fraction(1), Fraction(-1)))
    return KernelSpec("triangular", (left, right), 2, 0)


_BUILTINS = {
    # level kernels, order 2
    "uniform": _single("uniform", [Fraction(1, 2)], 2),
    "triangular": _triangular(),
    "epanechnikov": _single(
        "epanechnikov", [Fraction(3, 4), 0, Fraction(-3, 4)], 2
    ),
    # fourth-order level kernels: minimum variance (3/8)(3 - 5u^2) and
    # MSE-optimal (15/32)(3 - 10u^2 + 7u^4)
    "minvar-order4": _single(
        "minvar-order4", [Fraction(9, 8), 0, Fraction(-15, 8)], 4
    ),
    "mseopt-order4": _single(
        "mseopt-order4",
        [Fraction(45, 32), 0, Fraction(-150, 32), 0, Fraction(105, 32)],
        4,
    ),
    # second-derivative kernels: the minimum-variance shape (15/4)(3u^2 - 1)
    # and the MSE-optimal shape (105/16)(6u^2 - 5u^4 - 1)
    "minvar-deriv2": _single(
        "minvar-deriv2", [Fraction(-15, 4), 0, Fraction(45, 4)], 2, 2
    ),
    "mseopt-deriv2": _single(
        "mseopt-deriv2",
        [Fraction(-105, 16), 0, Fraction(630, 16), 0, Fraction(-525, 16)],
        2,
        2,
    ),
}

_ALIASES = {
    "epa": "epanechnikov",
    "uni": "uniform",
    "tri": "triangular",
}


def kernel_names() -> tuple:
    return tuple(sorted(_BUILTINS))


def kernel(name: str) -> KernelSpec:
    """Look up a built-in kernel by its lowercase name or alias.

    Every spelling of one kernel returns the same shared instance.
    """
    key = name.strip().lower().replace("_", "-")
    key = _ALIASES.get(key, key)
    try:
        return _BUILTINS[key]
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; available: {', '.join(kernel_names())}"
        ) from None


def custom_kernel(
    coefficients: Iterable,
    kappa: int,
    derivative_target: int = 0,
    name: str = "custom",
) -> KernelSpec:
    """Build a kernel from polynomial coefficients on [-1, 1].

    Level kernels must integrate to one; derivative kernels of target d
    must have mu_d = 1.  Violations are construction errors.
    """
    coeffs = tuple(_frac(c) for c in coefficients)
    spec = KernelSpec(
        name,
        ((Fraction(-1), Fraction(1), coeffs),),
        kappa,
        derivative_target,
    )
    check_index = derivative_target
    norm = spec.moment_mu(check_index)
    if abs(norm - 1.0) >= 1e-8:
        raise ValueError(
            f"custom kernel fails normalization: mu_{check_index} = {norm!r}, expected 1"
        )
    return spec


# ----------------------------------------------------------------------
# piecewise combinations: the induced and the jackknife kernels
# ----------------------------------------------------------------------

def _combination(terms) -> tuple:
    """Linear combination of argument-scaled kernels as merged pieces.

    ``terms`` is a list of (weight, spec, rho) triples representing
    weight * spec(rho * u).  Returns merged, contiguous pieces covering the
    union of the scaled supports.
    """
    scaled = []
    cuts = set()
    for weight, spec, rho in terms:
        w = _frac(weight)
        r = _frac(rho)
        if w == 0 or r <= 0:
            continue
        pieces = tuple(
            (lo / r, hi / r, _poly_shift_scale(tuple(w * c for c in coeffs), r))
            for lo, hi, coeffs in spec.pieces
        )
        scaled.append(pieces)
        for lo, hi, _ in pieces:
            cuts.add(lo)
            cuts.add(hi)
    if not scaled:
        return ()
    grid = sorted(cuts)
    out = []
    for a, b in zip(grid[:-1], grid[1:]):
        mid = (a + b) / 2
        total = (Fraction(0),)
        for pieces in scaled:
            for lo, hi, coeffs in pieces:
                if lo <= mid < hi:
                    width = max(len(total), len(coeffs))
                    total = tuple(
                        (total[j] if j < len(total) else Fraction(0))
                        + (coeffs[j] if j < len(coeffs) else Fraction(0))
                        for j in range(width)
                    )
                    break
        out.append((a, b, total))
    return tuple(out)


def derivative_part(L: KernelSpec, kappa: int) -> KernelSpec:
    """The function playing the role of the kappa-th derivative of L.

    A level kernel is differentiated exactly kappa times; a kernel whose
    ``derivative_target`` already equals kappa is used as-is.
    """
    if L.derivative_target == kappa:
        return L
    if L.derivative_target == 0:
        return L.derivative(kappa)
    raise ValueError(
        f"kernel {L.name!r} has derivative target {L.derivative_target}, "
        f"cannot serve as an order-{kappa} derivative kernel"
    )


@lru_cache(maxsize=_CACHE_SIZE)
def induced_kernel(K: KernelSpec, L: KernelSpec, kappa: int, rho: float) -> KernelSpec:
    """Equivalent kernel of the bias-corrected estimator.

    M(u) = K(u) - rho^(1+kappa) * L^(kappa)(rho u) * mu_{K,kappa}; for
    rho = 0 the correction factor vanishes and M = K.
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if rho == 0:
        # the correction term carries rho^(1+kappa) = 0, so M reduces to K
        return KernelSpec(f"induced-{K.name}-rho0", K.pieces, K.kappa, 0)
    lk = derivative_part(L, kappa)
    mu = K.moment_mu_exact(kappa)
    r = _frac(rho)
    pieces = _combination(
        [
            (Fraction(1), K, Fraction(1)),
            (-(r ** (1 + kappa)) * mu, lk, r),
        ]
    )
    return KernelSpec(
        name=f"induced-{K.name}-{L.name}-rho{float(rho):g}",
        pieces=pieces,
        kappa=K.kappa + 2,
        derivative_target=0,
    )


def gj_equivalent_kernel(K1: KernelSpec, K2: KernelSpec, h1: float, h2: float) -> KernelSpec:
    """The single kernel whose h1-average reproduces the jackknife estimate.

    With rho = h1/h2, R = rho^2 mu_{K1,2} / mu_{K2,2} and c = rho^3
    mu_{K1,2} / (mu_{K2,2} (1 - R)),

        Mtilde(u) = (1 + c/rho) K1(u) - c K2(rho u),

    so that (n h1)^(-1) sum_i Mtilde((X_i - x)/h1) equals the jackknife
    combination (f1 - R f2) / (1 - R) of ``density.gj_density_estimate``
    for every sample; R within 1e-12 of one is rejected.
    """
    mu1 = K1.moment_mu_exact(2)
    mu2 = K2.moment_mu_exact(2)
    rho = Fraction(h1) / Fraction(h2)
    R = rho**2 * mu1 / mu2
    if abs(float(R) - 1.0) <= 1e-12:
        raise ValueError(f"degenerate jackknife combination: R = {float(R)!r}")
    c = rho**3 * mu1 / (mu2 * (1 - R))
    pieces = _combination(
        [
            (1 + c / rho, K1, Fraction(1)),
            (-c, K2, rho),
        ]
    )
    return KernelSpec(
        name=f"gj-{K1.name}-{K2.name}",
        pieces=pieces,
        kappa=4,
        derivative_target=0,
    )


# ----------------------------------------------------------------------
# derivative kernels of general order
# ----------------------------------------------------------------------

@lru_cache(maxsize=_CACHE_SIZE)
def minvar_derivative_kernel(nu: int) -> KernelSpec:
    """Minimum-variance kernel of order (nu, 2) for estimating f^(nu), nu even.

    The variance-minimizing shape subject to the moment constraints
    mu_j = 0 for even j < nu and mu_nu = 1 is an even polynomial of
    degree nu on [-1, 1]; its coefficients solve a small exact linear
    system in rational arithmetic.
    """
    if nu < 2 or nu % 2 != 0:
        raise ValueError("nu must be an even integer >= 2")
    m = nu // 2 + 1
    # unknowns: coefficients of u^0, u^2, ..., u^nu
    # constraints: integral u^(2i) J(u) du = 0 for i < nu/2, = nu! at i = nu/2
    A = [[Fraction(2, 2 * i + 2 * j + 1) for j in range(m)] for i in range(m)]
    rhs = [Fraction(0)] * (m - 1) + [Fraction(math.factorial(nu))]
    coeffs = _solve_fraction_system(A, rhs)
    full = []
    for c in coeffs:
        full.extend([c, Fraction(0)])
    full = full[: nu + 1]
    return custom_kernel(full, kappa=2, derivative_target=nu, name=f"minvar-deriv{nu}")


def _solve_fraction_system(A, b):
    """Gaussian elimination over Fractions (tiny systems only)."""
    n = len(b)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[pivot] = M[pivot], M[col]
        pc = M[col][col]
        M[col] = [v / pc for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                factor = M[r][col]
                M[r] = [vr - factor * vc for vr, vc in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]
