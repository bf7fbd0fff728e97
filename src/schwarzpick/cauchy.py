"""Derivative engine: iterated circle quadrature on a polytorus.

Every mixed partial of an analytic ball map is recovered from trapezoid
sums of map values on a torus around the evaluation point,

    d^|v| f(z) / dz^v  =  v! / (2 pi i)^n  oint ... oint  f(z+w) / w^(v+1) dw,

which is spectrally accurate because the integrand is analytic.  The same
machinery assembles the order-k directional derivative by two independent
routes (multi-index sum of partials, and a one-variable derivative along a
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

#: Fraction of the largest safe uniform torus radius used by default.
RADIUS_FRACTION = 0.6

#: |z| beyond which node counts are forced up for the near-boundary sweeps.
NEAR_BOUNDARY = 0.95

#: Norm scale below which the two directional-derivative routes are treated
#: as agreeing (both indistinguishable from zero at quadrature noise level).
GAP_FLOOR = 1e-8


class TorusError(ValueError):
    """The quadrature torus does not fit inside the domain ball, or the node
    count cannot resolve the requested order."""


class QuadratureError(RuntimeError):
    """The two directional-derivative routes disagree beyond tolerance,
    which signals a quadrature configuration problem."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Radii (one per domain dimension) and per-circle node count.

    Either field may be None, in which case call-time defaults are used:
    uniform radii at RADIUS_FRACTION of the largest torus that fits around
    the evaluation point, and a node count of 128/64/32 for dimensions
    1 / 2-3 / 4+, raised to 128 near the boundary.
    """

    radii: tuple[float, ...] | None = None
    nodes: int | None = None


def default_nodes(n: int) -> int:
    if n == 1:
        return 128
    return 64 if n <= 3 else 32


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


def resolve_spec(z, order: int, spec: QuadratureSpec | None = None) -> tuple[np.ndarray, int]:
    """Fill in defaults and validate torus containment and node count."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    n = z.shape[0]
    spec = spec or QuadratureSpec()
    if spec.radii is None:
        radii = np.full(n, RADIUS_FRACTION * max_uniform_radius(z))
    else:
        radii = np.asarray(spec.radii, dtype=float).reshape(-1)
        if radii.shape[0] != n:
            raise TorusError(f"expected {n} radii, got {radii.shape[0]}")
        if np.any(radii <= 0):
            raise TorusError("radii must be positive")
    contained = float(((np.abs(z) + radii) ** 2).sum())
    if contained >= 1.0:
        raise TorusError(f"torus exits the unit ball (sum (|z_j|+r_j)^2 = {contained:.6f})")
    if spec.nodes is None:
        nodes = default_nodes(n)
        if n <= 3 and float((np.abs(z) ** 2).sum()) > NEAR_BOUNDARY ** 2:
            nodes = max(nodes, 128)
    else:
        nodes = int(spec.nodes)
    if nodes & (nodes - 1) or nodes <= 0:
        raise TorusError(f"node count must be a power of two, got {nodes}")
    if nodes < 2 * order + 2:
        raise TorusError(f"node count {nodes} cannot resolve derivative order {order}")
    return radii, nodes


@dataclass(frozen=True)
class DerivativeResult:
    """One derivative value plus provenance for cross-checks.

    method is one of: quadrature | frechet-sum | frechet-line.
    For directional derivatives computed by both routes, route_gap records
    the relative disagreement between them.
    """

    value: np.ndarray
    method: str
    v: tuple[int, ...] | None = None
    k: int | None = None
    beta: np.ndarray | None = None
    route_gap: float | None = None


def _torus_values(f: HoloMap, z, radii, nodes: int) -> np.ndarray:
    z = np.asarray(z, dtype=complex).reshape(-1)
    angles = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    circles = [z[j] + radii[j] * angles for j in range(f.n)]
    if isinstance(f, PolyMap):
        # polynomial sums factor along the torus axes; contracting the dense
        # coefficient tensor with per-axis Vandermonde matrices gives the same
        # grid values far faster than pointwise monomial evaluation
        return _poly_torus_values(f, circles, nodes)
    mesh = np.meshgrid(*circles, indexing="ij")
    return f.eval(np.stack(mesh, axis=-1))


def _poly_torus_values(f: PolyMap, circles, nodes: int) -> np.ndarray:
    dims = f.E.max(axis=0, initial=0)
    tensor = np.zeros(tuple(dims + 1) + (f.m,), dtype=complex)
    tensor[tuple(f.E.T)] = f.A
    for j in range(f.n):
        vander = np.empty((nodes, dims[j] + 1), dtype=complex)
        vander[:, 0] = 1.0
        for d in range(1, dims[j] + 1):
            vander[:, d] = vander[:, d - 1] * circles[j]
        tensor = np.tensordot(vander, tensor, axes=(1, j))
    return np.transpose(tensor, tuple(range(f.n))[::-1] + (f.n,))


def _coefficient_dft(values: np.ndarray, exponents, radii, nodes: int) -> np.ndarray:
    """Trapezoid sums extracting scaled local Taylor coefficients.

    values has shape (N,)*n + (m,); exponents is one integer array per axis.
    Returns the table of c_alpha estimates with shape
    (len(exponents[0]), ..., len(exponents[n-1]), m).
    """
    n = values.ndim - 1
    table = values
    ts = np.arange(nodes)
    for j in range(n):
        w = np.exp(-2j * np.pi * np.outer(np.asarray(exponents[j]), ts) / nodes) / nodes
        table = np.tensordot(w, table, axes=(1, j))
    table = np.transpose(table, tuple(range(n))[::-1] + (n,))
    for j in range(n):
        scale = np.asarray(radii[j], dtype=float) ** (-np.asarray(exponents[j], dtype=float))
        shape = [1] * (n + 1)
        shape[j] = len(exponents[j])
        table = table * scale.reshape(shape)
    return table


def _coefficients(f: HoloMap, z, indices, spec: QuadratureSpec | None = None) -> dict:
    """Scaled local Taylor coefficients c_alpha of f about z for each alpha in
    `indices`, from one torus whose DFT runs over the exponents each axis needs."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    radii, nodes = resolve_spec(z, max(max(a) for a in indices), spec)
    values = _torus_values(f, z, radii, nodes)
    exps = [np.array(sorted({a[j] for a in indices})) for j in range(f.n)]
    table = _coefficient_dft(values, exps, radii, nodes)
    position = [{int(e): i for i, e in enumerate(exps[j])} for j in range(f.n)]
    return {a: table[tuple(position[j][a[j]] for j in range(f.n))] for a in indices}


def partial_derivative(f: HoloMap, z, v, spec: QuadratureSpec | None = None) -> DerivativeResult:
    """Quadrature estimate of d^|v| f(z)/dz^v.

    For polynomial inputs this matches the exact coefficient-table route to
    ~1e-10 relative at moderate |z|; see the oracle-agreement tests.
    """
    v = mi.as_multiindex(v)
    z = np.asarray(z, dtype=complex).reshape(-1)
    if len(v) != f.n or z.shape[0] != f.n:
        raise ValueError(f"order and point must have dimension {f.n}")
    coeff = _coefficients(f, z, [v], spec)[v]
    return DerivativeResult(value=coeff * mi.multiindex_factorial(v), method="quadrature", v=v)


def taylor_coefficient(f: HoloMap, v, spec: QuadratureSpec | None = None) -> np.ndarray:
    """Taylor coefficient a_v of f at the origin: d^v f(0) / v!."""
    v = mi.as_multiindex(v)
    return _coefficients(f, np.zeros(f.n), [v], spec)[v]


def taylor_coefficients(f: HoloMap, indices, spec: QuadratureSpec | None = None) -> dict:
    """A chosen set of Taylor coefficients at the origin from one shared torus."""
    return _coefficients(f, np.zeros(f.n), [mi.as_multiindex(a) for a in indices], spec)


def coefficient_table(f: HoloMap, max_degree: int, spec: QuadratureSpec | None = None) -> dict:
    """All Taylor coefficients a_alpha, |alpha| <= max_degree, from one torus."""
    return _coefficients(f, np.zeros(f.n), mi.enumerate_up_to(f.n, max_degree), spec)


def partial_bundle(f: HoloMap, z, max_order: int, spec: QuadratureSpec | None = None,
                   exact: bool | str = "auto") -> dict:
    """All partials d^alpha f(z), |alpha| <= max_order, as a dict keyed by alpha.

    Polynomial maps default to the exact coefficient-table route; everything
    else is differentiated by one shared torus quadrature.
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    if exact == "auto":
        exact = isinstance(f, PolyMap)
    alphas = mi.enumerate_up_to(f.n, max_order)
    if exact:
        if not isinstance(f, PolyMap):
            raise TypeError("exact differentiation requires a polynomial map")
        return {alpha: f.partial_value(z, alpha) for alpha in alphas}
    coeffs = _coefficients(f, z, alphas, spec)
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
    single circle of 128 nodes at half the restriction radius."""
    line = restrict_to_line(f, z, beta)
    n_nodes = 128
    if n_nodes < 2 * k + 2:
        raise TorusError(f"node count {n_nodes} cannot resolve derivative order {k}")
    rho = 0.5 * line.radius
    ts = np.arange(n_nodes)
    lam = rho * np.exp(2j * np.pi * ts / n_nodes)
    vals = line.eval(lam[:, None])
    phases = np.exp(-2j * np.pi * k * ts / n_nodes)
    coeff = (vals * phases[:, None]).sum(axis=0) / (n_nodes * rho ** k)
    return DerivativeResult(value=math.factorial(k) * coeff, method="frechet-line",
                            k=k, beta=np.asarray(beta, dtype=complex))


def route_gap(d1, d2) -> float:
    """Relative disagreement between two derivative values; values smaller
    than GAP_FLOOR in norm are treated as zero."""
    n1 = float(np.linalg.norm(d1))
    n2 = float(np.linalg.norm(d2))
    scale = max(n1, n2)
    if scale <= GAP_FLOOR:
        return 0.0
    return float(np.linalg.norm(np.asarray(d1) - np.asarray(d2))) / scale


def frechet_derivative(f: HoloMap, z, beta, k: int, spec: QuadratureSpec | None = None,
                       exact: bool | str = "auto", route_tol: float | None = 1e-9) -> DerivativeResult:
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
    bundle = partial_bundle(f, z, k, spec, exact=exact)
    d_sum = frechet_from_bundle(bundle, beta, k, f.n)
    d_line = line_derivative(f, z, beta, k).value
    gap = route_gap(d_sum, d_line)
    if route_tol is not None and gap > route_tol:
        raise QuadratureError(
            f"directional-derivative routes disagree (relative gap {gap:.3e} > {route_tol:.1e}); "
            "check the quadrature configuration")
    return DerivativeResult(value=d_sum, method="frechet-sum", k=k, beta=beta, route_gap=gap)


def jacobian(f: HoloMap, z) -> np.ndarray:
    """Holomorphic Jacobian matrix of f at z (m x n), column j = df/dz_j."""
    bundle = partial_bundle(f, z, 1)
    units = mi.enumerate_indices(f.n, 1)[::-1]  # e_1, ..., e_n
    return np.stack([bundle[e] for e in units], axis=1)
