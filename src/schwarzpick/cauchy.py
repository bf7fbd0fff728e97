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
Everything but r, z and the map values depends on (n, K) alone and is built
once per (n, K), on first use.  At the origin r depends on n alone, so an
origin table reads its points and the powers r^-k from a per-(n, K) grid and
scale, built together on first use and kept apart from the plan, which
`partial_bundle` also reads.  Maps differentiated at one point share the
rest as well: the points, r and its powers are built once per point, each
map is evaluated and transformed on its own, and each table is read out into
its partials by one fancy index, cached per (n, K), and one factorial
multiply.  The origin tables of a batch of maps come from one slice call per
order in the same way.

The derivative layer has one entry point per purpose, and the map's type
picks the route:

  partial_bundle        every partial d^alpha f(z), |alpha| <= K, at a point
  partial_bundles       the same for several maps of one shape at one point
  taylor_coefficients   chosen Taylor coefficients a_alpha at the origin
  origin_coefficients   the same for several maps of one shape

A `PolyMap` is differentiated exactly through its coefficient table, the
ground truth the quadrature is validated against; every other map goes
through one slice table.  The order-k directional derivative D_k has two
routes: `degree_sum` over a bundle's order-k partials, weighted by
k!/alpha!, and `line_derivative`, which reads one slice table of `LineMap`,
the one-variable restriction to the line normalised to the unit disk, the
domain of every map.  They share the trapezoid DFT but neither their points
nor their assembly; `route_gap` measures how far they disagree.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import multiindex as mi
from .holomap import HoloMap, LineMap, PolyMap, as_ball_point

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
    az = np.abs(as_ball_point(z))
    s = float(az.sum())
    z2 = float((az ** 2).sum())
    n = az.shape[0]
    return (-s + math.sqrt(s * s + n * (1.0 - z2))) / n


def slice_radius(z) -> float:
    """Radius of the slice circles about z: RADIUS_FRACTION of the largest
    uniform polytorus about z inside the ball."""
    return RADIUS_FRACTION * max_uniform_radius(z)


class _Plan(NamedTuple):
    """Everything a slice table of dimension n and order K takes from (n, K)
    alone, as read-only arrays: the phase-grid directions, the unit circle
    of the nodes, the node and phase DFT matrices, the exponents -k of the
    radius, the axis order that brings each phase axis to the front for its
    DFT and the order of the final transpose, and per alpha with |alpha| <= K
    its table index and alpha!.  The points and radius powers of an origin
    table are not part of it: they come from `_origin_grid` and
    `_origin_scale`, built only for the (n, K) that `origin_coefficients`
    asks for."""

    beta: np.ndarray       # (K+1,)*(n-1) + (n,)
    unit: np.ndarray       # e^(2 pi i t / NODES), shape (NODES,) + (1,)*n
    node_dft: np.ndarray   # (K+1, NODES)
    phase_dft: np.ndarray  # (K+1, K+1)
    powers: np.ndarray     # -k, shape (K+1,) + (1,)*n
    moves: tuple           # per phase axis, the transpose putting it first
    axes: tuple
    readout: Mapping       # alpha -> (table index, alpha!)


@lru_cache(maxsize=None)
def _plan(n: int, order: int) -> _Plan:
    """The plan of every slice table of dimension n and order `order`, built
    on first use; `_slices` reads it in place of rebuilding its parts."""
    grid = order + 1
    phases = np.exp(2j * np.pi * np.arange(grid) / grid)
    beta = np.stack([np.ones((grid,) * (n - 1))]
                    + list(np.meshgrid(*[phases] * (n - 1), indexing="ij")), axis=-1)
    unit = np.exp(2j * np.pi * np.arange(NODES) / NODES).reshape((NODES,) + (1,) * n)
    ks = np.arange(grid)
    node_dft = np.exp(-2j * np.pi * np.outer(ks, np.arange(NODES)) / NODES) / NODES
    phase_dft = np.exp(-2j * np.pi * np.outer(ks, ks) / grid) / grid
    powers = (-ks.astype(float)).reshape((grid,) + (1,) * n)
    for array in (beta, unit, node_dft, phase_dft, powers):
        array.flags.writeable = False
    moves = tuple((axis,) + tuple(i for i in range(n + 1) if i != axis) for axis in range(1, n))
    readout = {alpha: ((sum(alpha),) + alpha[1:], mi.multiindex_factorial(alpha))
               for alpha in mi.enumerate_up_to(n, order)}
    return _Plan(beta, unit, node_dft, phase_dft, powers, moves, tuple(range(n))[::-1] + (n,),
                 MappingProxyType(readout))


@lru_cache(maxsize=None)
def _origin_grid(n: int, order: int) -> np.ndarray:
    """The slice points of every origin table of dimension n and order
    `order`, shape (NODES,) + (order+1,)*(n-1) + (n,), as a read-only array:
    z = 0 fixes the radius at slice_radius(0), so the points depend on
    (n, order) alone.  Built on first use by the expression `_slices` uses
    about any other z, so an origin table is bitwise the table about z = 0."""
    origin, plan = np.zeros(n), _plan(n, order)
    points = origin + (slice_radius(origin) * plan.unit) * plan.beta
    points.flags.writeable = False
    return points


@lru_cache(maxsize=None)
def _origin_scale(n: int, order: int) -> np.ndarray:
    """The powers slice_radius(0) ** -k that scale every origin table of
    dimension n and order `order`, as a read-only array built on first use
    beside `_origin_grid`, by the expression `_slices` uses about any other z."""
    scale = slice_radius(np.zeros(n)) ** _plan(n, order).powers
    scale.flags.writeable = False
    return scale


def _slices(fs: list, z, order: int) -> list[np.ndarray]:
    """Local Taylor coefficients c_alpha = d^alpha f(z) / alpha! about z (about
    the origin when z is None) of each map f of `fs`, maps of one dimension n,
    for every |alpha| <= order, as one table[|alpha|, alpha_2, ..., alpha_n] of
    shape (order+1,)*n + (m,) per map, from NODES * (order+1)^(n-1) slice
    values.  The maps share everything but their values: the points, the
    radius and its powers are built once per call from `_plan(n, order)`, and
    about the origin read from `_origin_grid` and `_origin_scale`, built once
    per (n, order).  Each map is evaluated through
    its own `eval`, and each DFT axis of its table is one `np.dot` on the table
    moved to 2-D, the call `np.tensordot` makes, so every table is bitwise the
    one-map `tensordot` table."""
    if NODES < 2 * order + 2:
        raise mi.CapacityError(f"node count {NODES} cannot resolve derivative order {order}")
    n = fs[0].n
    plan = _plan(n, order)
    if z is None:
        points, scale = _origin_grid(n, order), _origin_scale(n, order)
    else:
        r = slice_radius(z)
        points, scale = z + (r * plan.unit) * plan.beta, r ** plan.powers
    tables = []
    for f in fs:
        values = f.eval(points)
        # a computed DFT row k >= 1 sums to zero only up to rounding and would leak
        # f(z) into P_k; near the boundary f(z) dwarfs the derivatives, so centre first
        center = values.mean(axis=0)
        table = np.dot(plan.node_dft, (values - center).reshape(NODES, -1))
        table = table.reshape((order + 1,) + values.shape[1:])
        table[0] += center
        for move in plan.moves:
            table = table.transpose(move)
            table = np.dot(plan.phase_dft, table.reshape(order + 1, -1)).reshape(table.shape)
        tables.append(np.transpose(table, plan.axes) * scale)
    return tables


def _one_shape(fs, name: str) -> tuple[list, int]:
    """The maps of `fs` as a list and their dimension n: ValueError unless
    they share one (n, m)."""
    fs = list(fs)
    shapes = {(f.n, f.m) for f in fs}
    if len(shapes) != 1:
        raise ValueError(f"{name} needs maps of one (n, m), got {sorted(shapes)}")
    [(n, _)] = shapes
    return fs, n


def origin_coefficients(fs, indices) -> list[dict]:
    """`taylor_coefficients` of each map of `fs` for the same `indices`, in
    order: read from a `PolyMap`'s table, and for every other map from one
    table of a single `_slices` call about the origin, so the maps share its
    grid and scale.  The maps must share (n, m), or ValueError is raised before
    any evaluation; each index is checked by `multiindex.as_multiindex_of` and
    their largest degree by `multiindex.check_order`, on both routes."""
    fs, n = _one_shape(fs, "origin_coefficients")
    indices = [mi.as_multiindex_of(a, n) for a in indices]
    if not indices:
        return [{} for _ in fs]
    order = mi.check_order(max(sum(a) for a in indices))
    quad = [f for f in fs if not isinstance(f, PolyMap)]
    if quad:
        tables = iter(_slices(quad, None, order))
        at = [_plan(n, order).readout[a][0] for a in indices]
    out = []
    for f in fs:
        if isinstance(f, PolyMap):
            out.append({a: f.coefficient(a) for a in indices})
        else:
            table = next(tables)
            out.append({a: table[i] for a, i in zip(indices, at)})
    return out


def taylor_coefficients(f: HoloMap, indices) -> dict:
    """Taylor coefficients a_alpha = d^alpha f(0) / alpha! at the origin for
    each alpha in `indices`: read from a `PolyMap`'s table, otherwise from one
    slice table; the one-map case of `origin_coefficients`, which checks the
    indices and their order on both routes."""
    [coefficients] = origin_coefficients([f], indices)
    return coefficients


@lru_cache(maxsize=None)
def _bundle_readout(n: int, order: int) -> tuple[tuple, np.ndarray]:
    """The table indexes of the alphas with |alpha| <= order, in the order of
    `_plan(n, order).readout`, as one fancy index, and their alpha! as a
    float column, as read-only arrays: a bundle is one read-out of its table."""
    readout = _plan(n, order).readout
    index = tuple(np.array(axis) for axis in zip(*(at for at, _ in readout.values())))
    factorials = np.array([factorial for _, factorial in readout.values()], dtype=float).reshape(-1, 1)
    for array in index + (factorials,):
        array.flags.writeable = False
    return index, factorials


def partial_bundles(fs, z, max_order: int) -> list[dict]:
    """`partial_bundle` of each map of `fs` at one point z, in order: exact for
    a `PolyMap`, and for every other map one table of a single `_slices` call,
    so the maps share its points and radius.  The maps must share (n, m), or
    ValueError is raised before any evaluation; the order is checked by
    `multiindex.check_order` and z by `holomap.as_ball_point`."""
    max_order = mi.check_order(max_order)
    fs, n = _one_shape(fs, "partial_bundles")
    z = as_ball_point(z, n)
    alphas = mi.enumerate_up_to(n, max_order)
    quad = [f for f in fs if not isinstance(f, PolyMap)]
    if quad:
        tables = iter(_slices(quad, z, max_order))
        index, factorials = _bundle_readout(n, max_order)
    bundles = []
    for f in fs:
        values = f.partial_values(z, alphas) if isinstance(f, PolyMap) else next(tables)[index] * factorials
        bundles.append(dict(zip(alphas, values)))
    return bundles


def partial_bundle(f: HoloMap, z, max_order: int) -> dict:
    """All partials d^alpha f(z), |alpha| <= max_order, as a dict keyed by alpha:
    exact for a `PolyMap`, from one slice table otherwise; the one-map case
    of `partial_bundles`, which checks the order and z on both routes."""
    [bundle] = partial_bundles([f], z, max_order)
    return bundle


@lru_cache(maxsize=None)
def _degree_terms(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The weights |alpha|!/alpha! and the exponents of the multi-indexes
    alpha of dimension n and degree k, one row each, as read-only arrays."""
    alphas = mi.enumerate_indices(n, k)
    weights = np.array([mi.multinomial_weight(alpha) for alpha in alphas], dtype=np.int64)
    exponents = np.array(alphas, dtype=np.int64).reshape(len(alphas), n)
    weights.flags.writeable = exponents.flags.writeable = False
    return weights, exponents


def degree_sum(values, beta, k: int, n: int, weighted: bool = False) -> np.ndarray:
    """sum over the j-th |alpha| = k of values[..., j, :] beta^alpha (times
    |alpha|!/alpha! when `weighted`) for one direction beta or each row of a
    stack; each power is bitwise np.prod(beta ** alpha) for its direction
    alone, and the terms add in the order of alpha."""
    beta = np.asarray(beta, dtype=complex)
    if beta.ndim not in (1, 2) or beta.shape[-1] != n:
        raise ValueError(f"expected directions in C^{n}, got shape {beta.shape}")
    weights, exponents = _degree_terms(n, k)
    powers = np.multiply.reduce(beta[..., None, :] ** exponents, axis=-1)
    terms = values * (weights * powers if weighted else powers)[..., None]
    acc = terms[..., 0, :]
    for j in range(1, len(exponents)):
        acc = acc + terms[..., j, :]
    return acc


def line_derivative(f: HoloMap, z, beta, k: int) -> np.ndarray:
    """Order-k directional derivative via the one-variable restriction:
    k!/R^k times the degree-k Taylor coefficient of `LineMap(f, z, beta)`,
    lambda -> f(z + lambda R beta) on the unit disk for its radius R, read
    from one slice table.  A z or beta that is not a finite point of the
    domain ball or a finite non-zero direction in C^n raises MapDomainError,
    as in the bound checks, and k is checked by `multiindex.check_order`."""
    k = mi.check_order(k)
    line = LineMap(f, z, beta)
    return math.factorial(k) / line.radius ** k * taylor_coefficients(line, [(k,)])[(k,)]


def route_gap(d1, d2) -> float:
    """Relative disagreement between two derivative values; values smaller
    than GAP_FLOOR in norm are treated as zero."""
    n1 = float(np.linalg.norm(d1))
    n2 = float(np.linalg.norm(d2))
    scale = max(n1, n2)
    if scale <= GAP_FLOOR:
        return 0.0
    return float(np.linalg.norm(np.asarray(d1) - np.asarray(d2))) / scale

