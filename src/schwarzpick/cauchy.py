"""Derivative engine: trapezoid-rule Cauchy differentiation on line slices.

Along every complex line through z an analytic map expands in homogeneous
polynomials (Rudin, Function Theory in the Unit Ball of C^n, ch. 1),

    f(z + lambda beta) = sum_k lambda^k P_k(beta),
    P_k(beta) = sum_{|alpha| = k} (d^alpha f(z) / alpha!) beta^alpha.

Partials of order <= K come from the NODES = 128 trapezoid nodes
lambda = r e^(2 pi i t / NODES) on each phase-grid line
beta_j = (1, omega^j_2, ..., omega^j_n), omega = e^(2 pi i / (K+1)), for
j in [0, K]^(n-1): NODES * (K+1)^(n-1) map values in all.  One DFT in t
yields every P_k(beta_j), k <= K (Lyness & Moler, SIAM J. Numer. Anal. 1967),
and a (K+1)^(n-1)-point DFT over j separates each alpha with |alpha| = k
exactly, because alpha_2..alpha_n <= K.  The radius r is RADIUS_FRACTION of the largest
uniform polytorus about z inside the ball, so every slice point lies on that
polytorus; the error is spectrally small because the integrand is analytic.

The derivative layer has one entry point per purpose, and the map's type
picks the route:

  partial_bundle        every partial d^alpha f(z), |alpha| <= K, at a point
  taylor_coefficients   chosen Taylor coefficients a_alpha at the origin

A `PolyMap` is differentiated exactly through its coefficient table, the
ground truth the quadrature is validated against; every other map goes
through one slice table.  The order-k directional derivative D_k has two
independent routes: `frechet_from_bundle` sums a bundle's partials, and
`line_derivative` differentiates the one-variable restriction to the line;
`route_gap` measures how far they disagree.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import geometry
from . import multiindex as mi
from .holomap import HoloMap, LineMap, MapDomainError, PolyMap

#: Fraction of the largest safe uniform polytorus radius used for the slices.
RADIUS_FRACTION = 0.6

#: Trapezoid nodes on every circle.
NODES = 128

#: Norm scale below which the two directional-derivative routes are treated
#: as agreeing (both indistinguishable from zero at quadrature noise level).
GAP_FLOOR = 1e-8


def max_uniform_radius(z) -> float:
    """Largest r such that the uniform polytorus of radius r about z stays
    inside the unit ball: solves sum_j (|z_j| + r)^2 = 1."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    az = np.abs(z)
    s = float(az.sum())
    z2 = float((az ** 2).sum())
    if not z2 < 1.0:
        raise MapDomainError("evaluation point must lie strictly inside the unit ball")
    n = z.shape[0]
    return (-s + math.sqrt(s * s + n * (1.0 - z2))) / n


def slice_radius(z) -> float:
    """Radius of the slice circles about z: RADIUS_FRACTION of the largest
    uniform polytorus about z inside the ball."""
    return RADIUS_FRACTION * max_uniform_radius(z)


def _slices(f: HoloMap, z, order: int) -> np.ndarray:
    """Local Taylor coefficients c_alpha = d^alpha f(z) / alpha! of f about z
    for every |alpha| <= order, as table[|alpha|, alpha_2, ..., alpha_n] of
    shape (order+1,)*n + (m,), from NODES * (order+1)^(n-1) slice values."""
    r = slice_radius(z)
    if NODES < 2 * order + 2:
        raise mi.CapacityError(f"node count {NODES} cannot resolve derivative order {order}")
    grid = order + 1
    # line directions (1, omega^j_2, ..., omega^j_n), shape (grid,)*(n-1) + (n,)
    phases = np.exp(2j * np.pi * np.arange(grid) / grid)
    beta = np.stack([np.ones((grid,) * (f.n - 1))]
                    + list(np.meshgrid(*[phases] * (f.n - 1), indexing="ij")), axis=-1)
    circle = r * np.exp(2j * np.pi * np.arange(NODES) / NODES)
    values = f.eval(z + circle.reshape((NODES,) + (1,) * f.n) * beta)
    ks = np.arange(grid)
    # a computed DFT row k >= 1 sums to zero only up to rounding and would leak
    # f(z) into P_k; near the boundary f(z) dwarfs the derivatives, so centre first
    center = values.mean(axis=0)
    table = np.tensordot(np.exp(-2j * np.pi * np.outer(ks, np.arange(NODES)) / NODES) / NODES,
                         values - center, axes=(1, 0))
    table[0] += center
    phase_dft = np.exp(-2j * np.pi * np.outer(ks, ks) / grid) / grid
    for axis in range(1, f.n):
        table = np.tensordot(phase_dft, table, axes=(1, axis))
    table = np.transpose(table, tuple(range(f.n))[::-1] + (f.n,))
    return table * (r ** -ks.astype(float)).reshape((grid,) + (1,) * f.n)


def taylor_coefficients(f: HoloMap, indices) -> dict:
    """Taylor coefficients a_alpha = d^alpha f(0) / alpha! at the origin for
    each alpha in `indices`: read from a `PolyMap`'s table, otherwise from one
    slice table.  An index whose length is not f.n raises ValueError."""
    indices = [mi.as_multiindex(a) for a in indices]
    for a in indices:
        if len(a) != f.n:
            raise ValueError(f"multi-index {a} does not have dimension {f.n}")
    if isinstance(f, PolyMap):
        return {a: f.coefficient(a) for a in indices}
    table = _slices(f, np.zeros(f.n), max(sum(a) for a in indices))
    return {a: table[(sum(a),) + a[1:]] for a in indices}


def partial_bundle(f: HoloMap, z, max_order: int) -> dict:
    """All partials d^alpha f(z), |alpha| <= max_order, as a dict keyed by alpha:
    exact for a `PolyMap`, from one slice table otherwise.  A z that is not a
    finite point of the domain ball raises MapDomainError on both routes."""
    z = geometry.as_ball_point(z, f.n)
    alphas = mi.enumerate_up_to(f.n, max_order)
    if isinstance(f, PolyMap):
        return dict(zip(alphas, f.partial_values(z, alphas)))
    table = _slices(f, z, max_order)
    return {alpha: table[(sum(alpha),) + alpha[1:]] * mi.multiindex_factorial(alpha) for alpha in alphas}


@lru_cache(maxsize=None)
def _degree_terms(n: int, k: int) -> tuple[tuple, tuple, np.ndarray]:
    """The multi-indexes alpha of dimension n and degree k, their weights
    |alpha|!/alpha! and their exponents as a read-only matrix, one row each."""
    alphas = tuple(mi.enumerate_indices(n, k))
    exponents = np.array(alphas, dtype=np.int64).reshape(len(alphas), n)
    exponents.flags.writeable = False
    return alphas, tuple(mi.multinomial_weight(alpha) for alpha in alphas), exponents


def frechet_from_bundle(bundle: dict, beta, k: int, n: int) -> np.ndarray:
    """Assemble the order-k directional derivative from a bundle of partials:

    D_k(f, z, beta) = sum over |alpha| = k of (k!/alpha!) d^alpha f(z) beta^alpha.
    """
    beta = np.asarray(beta, dtype=complex).reshape(n)
    alphas, weights, exponents = _degree_terms(n, k)
    acc = None
    # a row's product is bitwise that of np.prod(beta ** alpha) for the row alone
    for alpha, weight, power in zip(alphas, weights, np.multiply.reduce(beta ** exponents, axis=1)):
        term = bundle[alpha] * (weight * power)
        acc = term if acc is None else acc + term
    return acc


def line_derivative(f: HoloMap, z, beta, k: int) -> np.ndarray:
    """Order-k directional derivative via the one-variable restriction:
    the k-th derivative at 0 of lambda -> f(z + lambda beta), computed on a
    single circle of NODES nodes at half the restriction radius.  A z that is
    not a finite point of the domain ball raises MapDomainError, as in
    `partial_bundle`."""
    line = LineMap(f, geometry.as_ball_point(z, f.n), beta)
    if NODES < 2 * k + 2:
        raise mi.CapacityError(f"node count {NODES} cannot resolve derivative order {k}")
    rho = 0.5 * line.radius
    ts = np.arange(NODES)
    lam = rho * np.exp(2j * np.pi * ts / NODES)
    vals = line.eval(lam[:, None])
    phases = np.exp(-2j * np.pi * k * ts / NODES)
    coeff = (vals * phases[:, None]).sum(axis=0) / (NODES * rho ** k)
    return math.factorial(k) * coeff


def route_gap(d1, d2) -> float:
    """Relative disagreement between two derivative values; values smaller
    than GAP_FLOOR in norm are treated as zero."""
    n1 = float(np.linalg.norm(d1))
    n2 = float(np.linalg.norm(d2))
    scale = max(n1, n2)
    if scale <= GAP_FLOOR:
        return 0.0
    return float(np.linalg.norm(np.asarray(d1) - np.asarray(d2))) / scale

