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

The order-k directional derivative is assembled by two independent routes
(multi-index sum of partials, and a one-variable derivative along the
restricted line); the routes cross-check each other at run time.

Polynomial maps are also differentiated exactly through their coefficient
tables, providing the ground truth the quadrature is validated against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import multiindex as mi
from .holomap import HoloMap, PolyMap, restrict_to_line

#: Fraction of the largest safe uniform polytorus radius used for the slices.
RADIUS_FRACTION = 0.6

#: Trapezoid nodes on every circle.
NODES = 128

#: Norm scale below which the two directional-derivative routes are treated
#: as agreeing (both indistinguishable from zero at quadrature noise level).
GAP_FLOOR = 1e-8


class TorusError(ValueError):
    """The evaluation point lies outside the domain ball, or the node count
    cannot resolve the requested order."""


class QuadratureError(RuntimeError):
    """The two directional-derivative routes disagree beyond tolerance,
    which signals a quadrature configuration problem."""


def max_uniform_radius(z) -> float:
    """Largest r such that the uniform polytorus of radius r about z stays
    inside the unit ball: solves sum_j (|z_j| + r)^2 = 1."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    az = np.abs(z)
    s = float(az.sum())
    z2 = float((az ** 2).sum())
    if z2 >= 1.0:
        raise TorusError("evaluation point lies outside the unit ball")
    n = z.shape[0]
    return (-s + math.sqrt(s * s + n * (1.0 - z2))) / n


def slice_radius(z) -> float:
    """Radius of the slice circles about z: RADIUS_FRACTION of the largest
    uniform polytorus about z inside the ball."""
    return RADIUS_FRACTION * max_uniform_radius(z)


@dataclass(frozen=True)
class DerivativeResult:
    """One derivative value plus provenance for cross-checks.

    method is one of: quadrature | frechet-sum | frechet-line.
    For directional derivatives computed by both routes, route_gap records
    the relative disagreement between them.
    """

    value: np.ndarray
    method: str
    route_gap: float | None = None


def _slices(f: HoloMap, z, order: int) -> np.ndarray:
    """Local Taylor coefficients c_alpha = d^alpha f(z) / alpha! of f about z
    for every |alpha| <= order, as table[|alpha|, alpha_2, ..., alpha_n] of
    shape (order+1,)*n + (m,), from NODES * (order+1)^(n-1) slice values."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    r = slice_radius(z)
    if NODES < 2 * order + 2:
        raise TorusError(f"node count {NODES} cannot resolve derivative order {order}")
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


def _coefficients(f: HoloMap, z, indices) -> dict:
    """Local Taylor coefficients c_alpha of f about z for each alpha in
    `indices`, selected from one slice table."""
    table = _slices(f, z, max(sum(a) for a in indices))
    return {a: table[(sum(a),) + a[1:]] for a in indices}


def partial_derivative(f: HoloMap, z, v) -> DerivativeResult:
    """Quadrature estimate of d^|v| f(z)/dz^v.

    For polynomial inputs this matches the exact coefficient-table route to
    ~1e-10 relative at moderate |z|; see the oracle-agreement tests.
    """
    v = mi.as_multiindex(v)
    z = np.asarray(z, dtype=complex).reshape(-1)
    if len(v) != f.n or z.shape[0] != f.n:
        raise ValueError(f"order and point must have dimension {f.n}")
    coeff = _coefficients(f, z, [v])[v]
    return DerivativeResult(value=coeff * mi.multiindex_factorial(v), method="quadrature")


def taylor_coefficient(f: HoloMap, v) -> np.ndarray:
    """Taylor coefficient a_v of f at the origin: d^v f(0) / v!."""
    v = mi.as_multiindex(v)
    return _coefficients(f, np.zeros(f.n), [v])[v]


def taylor_coefficients(f: HoloMap, indices) -> dict:
    """A chosen set of Taylor coefficients at the origin from one slice table."""
    return _coefficients(f, np.zeros(f.n), [mi.as_multiindex(a) for a in indices])


def coefficient_table(f: HoloMap, max_degree: int) -> dict:
    """All Taylor coefficients a_alpha, |alpha| <= max_degree, from one slice table."""
    return _coefficients(f, np.zeros(f.n), mi.enumerate_up_to(f.n, max_degree))


def partial_bundle(f: HoloMap, z, max_order: int, *, exact: bool | str = "auto") -> dict:
    """All partials d^alpha f(z), |alpha| <= max_order, as a dict keyed by alpha.

    Polynomial maps default to the exact coefficient-table route; everything
    else is differentiated from one slice table.
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    if exact == "auto":
        exact = isinstance(f, PolyMap)
    alphas = mi.enumerate_up_to(f.n, max_order)
    if exact:
        if not isinstance(f, PolyMap):
            raise TypeError("exact differentiation requires a polynomial map")
        return {alpha: f.partial_value(z, alpha) for alpha in alphas}
    coeffs = _coefficients(f, z, alphas)
    return {alpha: c * mi.multiindex_factorial(alpha) for alpha, c in coeffs.items()}


def frechet_from_bundle(bundle: dict, beta, k: int, n: int) -> np.ndarray:
    """Assemble the order-k directional derivative from a bundle of partials:

    D_k(f, z, beta) = sum over |alpha| = k of (k!/alpha!) d^alpha f(z) beta^alpha.
    """
    beta = np.asarray(beta, dtype=complex).reshape(n)
    acc = None
    for alpha in mi.enumerate_indices(n, k):
        term = bundle[alpha] * (mi.multinomial_weight(alpha) * np.prod(beta ** np.array(alpha)))
        acc = term if acc is None else acc + term
    return acc


def line_derivative(f: HoloMap, z, beta, k: int) -> DerivativeResult:
    """Order-k directional derivative via the one-variable restriction:
    the k-th derivative at 0 of lambda -> f(z + lambda beta), computed on a
    single circle of NODES nodes at half the restriction radius."""
    line = restrict_to_line(f, z, beta)
    if NODES < 2 * k + 2:
        raise TorusError(f"node count {NODES} cannot resolve derivative order {k}")
    rho = 0.5 * line.radius
    ts = np.arange(NODES)
    lam = rho * np.exp(2j * np.pi * ts / NODES)
    vals = line.eval(lam[:, None])
    phases = np.exp(-2j * np.pi * k * ts / NODES)
    coeff = (vals * phases[:, None]).sum(axis=0) / (NODES * rho ** k)
    return DerivativeResult(value=math.factorial(k) * coeff, method="frechet-line")


def route_gap(d1, d2) -> float:
    """Relative disagreement between two derivative values; values smaller
    than GAP_FLOOR in norm are treated as zero."""
    n1 = float(np.linalg.norm(d1))
    n2 = float(np.linalg.norm(d2))
    scale = max(n1, n2)
    if scale <= GAP_FLOOR:
        return 0.0
    return float(np.linalg.norm(np.asarray(d1) - np.asarray(d2))) / scale


def frechet_derivative(f: HoloMap, z, beta, k: int, *, exact: bool | str = "auto",
                       route_tol: float | None = 1e-9) -> DerivativeResult:
    """Order-k directional derivative D_k(f, z, beta), computed by BOTH routes.

    Route (i): multi-index sum of partials weighted by |alpha|!/alpha! and
    beta^alpha.  Route (ii): one-variable derivative of the line restriction.
    The returned value is route (i); the relative gap between routes is
    recorded, and a QuadratureError is raised if it exceeds route_tol.
    """
    if k < 1:
        raise ValueError("derivative order must be at least 1")
    beta = np.asarray(beta, dtype=complex).reshape(f.n)
    if float((beta.real ** 2 + beta.imag ** 2).sum()) == 0.0:
        raise ValueError("direction must be non-zero")
    bundle = partial_bundle(f, z, k, exact=exact)
    d_sum = frechet_from_bundle(bundle, beta, k, f.n)
    d_line = line_derivative(f, z, beta, k).value
    gap = route_gap(d_sum, d_line)
    if route_tol is not None and gap > route_tol:
        raise QuadratureError(
            f"directional-derivative routes disagree (relative gap {gap:.3e} > {route_tol:.1e}); "
            "check the quadrature configuration")
    return DerivativeResult(value=d_sum, method="frechet-sum", route_gap=gap)


def jacobian(f: HoloMap, z) -> np.ndarray:
    """Holomorphic Jacobian matrix of f at z (m x n), column j = df/dz_j."""
    bundle = partial_bundle(f, z, 1)
    units = mi.enumerate_indices(f.n, 1)[::-1]  # e_1, ..., e_n
    return np.stack([bundle[e] for e in units], axis=1)
