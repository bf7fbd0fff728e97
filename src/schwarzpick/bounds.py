"""Right-hand-side bound formulas, the recurring left-hand quadratic form,
the Moebius-power derivative coefficients, and single-point inequality checks.

Inequality ids (aliases in parentheses) and their content:

  1.1        one-variable benchmark: |f^(k)(z)|/(1-|f|^2) against the
             classical order-k growth rate
  1.2        several-variable benchmark for |d^v f| with the
             n^(|v|/2) |v|! C(n+|v|-1, n-1) prefactor
  1.3        first-order metric contraction H_f(z)(f'(z)b) <= H_z(b)
  1.4 (4.3)  order-k metric bound on the directional derivative
  3.1        origin bound on the degree-k coefficient slice
  3.2        origin bound on a single Taylor coefficient
  4.1        disk-domain quadratic-form bound on f^(k)
  5.1 (1.5)  quadratic-form bound on a mixed partial, any m
  5.2 (1.6)  scalar version of 5.1 for m = 1
  5.3 (1.7)  sharpened radial/normal bound on the z1-axis
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import cauchy, geometry
from . import multiindex as mi
from .holomap import HoloMap, MapDomainError, hermitian_inner, sq_norm

INEQUALITY_IDS = ("1.1", "1.2", "1.3", "1.4", "3.1", "3.2", "4.1", "5.1", "5.2", "5.3")

_ALIASES = {"4.3": "1.4", "1.5": "5.1", "1.6": "5.2", "1.7": "5.3"}


def normalize_inequality(inequality: str) -> str:
    out = _ALIASES.get(str(inequality), str(inequality))
    if out not in INEQUALITY_IDS:
        raise ValueError(f"unknown inequality id {inequality!r}")
    return out


@dataclass(frozen=True)
class BoundReport:
    """One inequality evaluation: both sides, slack, ratio, and context."""

    inequality: str
    lhs: float
    rhs: float
    slack: float
    ratio: float
    context: dict = field(default_factory=dict)

    @staticmethod
    def build(inequality: str, lhs: float, rhs: float, context: dict) -> "BoundReport":
        lhs = float(lhs)
        rhs = float(rhs)
        ratio = 0.0 if (rhs == 0.0 and lhs == 0.0) else lhs / rhs
        return BoundReport(inequality=inequality, lhs=lhs, rhs=rhs,
                           slack=rhs - lhs, ratio=ratio, context=context)


def lhs_quadratic(value, fz) -> float:
    """|<D, f(z)>|^2 + (1-|f(z)|^2)|D|^2 - the form every quadratic bound controls.

    Identically equal to (1-|f(z)|^2)^2 * H_f(z)(D, D), which ties the
    coefficient bounds to the metric form of the order-k estimate.
    """
    value = np.asarray(value, dtype=complex).reshape(-1)
    fz = np.asarray(fz, dtype=complex).reshape(-1)
    ip = abs(complex(hermitian_inner(value, fz)))
    return ip * ip + (1.0 - float(sq_norm(fz))) * float(sq_norm(value))


def rhs_main(k: int, z, beta) -> float:
    """Order-k metric bound:

    k!^2 (1 + |<b,z>| / ((1-|z|^2)|b|^2 + |<b,z>|^2)^(1/2))^(2(k-1)) H_z(b,b)^k.

    Reduces to H_z(b,b) exactly at k = 1.  The middle factor grows with
    |<b,z>| and is exactly 1 when b is orthogonal to z.
    """
    if k < 1:
        raise ValueError("order must be at least 1")
    z = geometry.as_ball_point(z)
    beta = geometry.as_direction(beta, z.shape[0])
    z2 = float(sq_norm(z))
    b2 = float(sq_norm(beta))
    ip = abs(complex(hermitian_inner(beta, z)))
    pivot = math.sqrt((1.0 - z2) * b2 + ip * ip)
    factor = (1.0 + ip / pivot) ** (2 * (k - 1))
    return math.factorial(k) ** 2 * factor * geometry.bergman_metric(z, beta) ** k


def rhs_disk(k: int, z, fz_norm: float) -> float:
    """Disk-domain quadratic-form bound:
    [k! (1-|f(z)|^2) (1+|z|)^(k-1) / (1-|z|^2)^k]^2."""
    t = abs(complex(z))
    if not t < 1.0:
        raise MapDomainError("z must lie inside the unit disk")
    return (math.factorial(k) * (1.0 - fz_norm ** 2) * (1.0 + t) ** (k - 1) / (1.0 - t * t) ** k) ** 2


def rhs_disk_classical(k: int, z, fz_norm: float) -> float:
    """Benchmark form bounding |f^(k)(z)|/(1-|f(z)|^2):
    k! (1+|z|)^(k-1) / (1-|z|^2)^k."""
    return math.sqrt(rhs_disk(k, z, fz_norm)) / (1.0 - fz_norm ** 2)


class PartialBounds(NamedTuple):
    """Squared and scalar bound values for a mixed partial derivative plus
    the classical benchmark they dominate."""

    squared: float
    scalar: float
    benchmark_scalar: float


def rhs_partial(v, z, fz_norm: float) -> PartialBounds:
    """Bounds for d^|v| f / dz^v at z.

    squared:  (|v|^|v|/v^v) [v! (1+|z|)^(|v|-1) (1-|f|^2) / (1-|z|^2)^|v|]^2
    scalar:   its square root (the m = 1 bound)
    benchmark_scalar: n^(|v|/2) |v|! C(n+|v|-1, n-1) (1-|f|^2)(1+|z|)^(|v|-1)/(1-|z|^2)^|v|

    The scalar bound never exceeds the benchmark: sqrt(|v|^|v|/v^v) <= n^(|v|/2),
    v! <= |v|! and the binomial is at least 1.
    """
    v = mi.as_multiindex(v)
    k = sum(v)
    if k == 0:
        raise ValueError("v must be a non-zero multi-index")
    n = len(v)
    z = np.asarray(z, dtype=complex).reshape(-1)
    t = math.sqrt(float(sq_norm(z)))
    if not t < 1.0:
        raise MapDomainError("z must lie inside the unit ball")
    core = (1.0 + t) ** (k - 1) * (1.0 - fz_norm ** 2) / (1.0 - t * t) ** k
    scalar = math.sqrt(mi.sharpness_factor(v)) * mi.multiindex_factorial(v) * core
    benchmark = (n ** (k / 2.0)) * math.factorial(k) * math.comb(n + k - 1, n - 1) * core
    return PartialBounds(squared=scalar * scalar, scalar=scalar, benchmark_scalar=benchmark)


def mu_factor(v, z_abs: float) -> float:
    """Truncation of (1+t)^(|v|-1) to powers t^j with j <= v_1; the full
    binomial when v_1 = |v|."""
    v = mi.as_multiindex(v)
    k = sum(v)
    return sum(math.comb(k - 1, l) * z_abs ** l for l in range(min(v[0], k - 1) + 1))


def rhs_radial(v, z, fz_norm: float) -> float:
    """Sharpened bound for points on the z1-axis:

    (|v|^|v|/v^v) [v! mu(|z|) (1-|f|^2) / (1-|z|^2)^((v1+|v|)/2)]^2

    with mu the truncated binomial.  Coincides with the squared rhs_partial
    when v_1 = |v|.
    """
    v = mi.as_multiindex(v)
    k = sum(v)
    if k == 0:
        raise ValueError("v must be a non-zero multi-index")
    z = np.asarray(z, dtype=complex).reshape(-1)
    if z.shape[0] != len(v):
        raise ValueError("z and v must have the same dimension")
    if z.shape[0] > 1 and np.any(z[1:] != 0):
        raise MapDomainError("the radial bound applies only on the z1-axis")
    t = abs(complex(z[0]))
    if not t < 1.0:
        raise MapDomainError("z must lie inside the unit ball")
    core = mi.multiindex_factorial(v) * mu_factor(v, t) * (1.0 - fz_norm ** 2)
    core /= (1.0 - t * t) ** ((v[0] + k) / 2.0)
    return mi.sharpness_factor(v) * core * core


class OriginBounds(NamedTuple):
    """Right sides of the two origin bounds: the degree-slice bound and the
    single-coefficient bound carrying the sharpness factor."""

    slice_bound: float
    coefficient_bound: float


def rhs_origin(v, a0_norm: float) -> OriginBounds:
    """(1-|a0|^2)^2 and (|v|^|v|/v^v)(1-|a0|^2)^2."""
    if not 0.0 <= a0_norm < 1.0:
        raise ValueError("a0 norm must lie in [0, 1)")
    base = (1.0 - a0_norm ** 2) ** 2
    return OriginBounds(slice_bound=base, coefficient_bound=mi.sharpness_factor(v) * base)


class AjCoefficients(NamedTuple):
    """Magnitudes |A_j| of the Moebius-power derivative coefficients, their
    term sum, and the closed form the sum must reproduce."""

    orders: tuple[int, ...]
    magnitudes: tuple[float, ...]
    term_sum: float
    closed_form: float


def aj_coefficients(k: int, xi_abs: float, variant: str = "disk", v=None) -> AjCoefficients:
    """Coefficient magnitudes in the expansion of d^k f through a Moebius change
    of variable.

    disk variant (j = 1..k):
      |A_j| = |xi|^(k-j) k!(k-1)! / [(k-j)!(j-1)!] / (1-|xi|^2)^k,
      sum = k! (1+|xi|)^(k-1) / (1-|xi|^2)^k.

    radial variant for a multi-index v (j = 0..v_1, starting at 1 when
    v = (v_1, 0, ..)):
      |A_j| = |xi|^(v1-j) v!(k-1)! / [(v1-j)!(j-1+|v'|)!] / (1-|xi|^2)^((v1+|v|)/2),
      sum = v! mu(|xi|) / (1-|xi|^2)^((v1+|v|)/2).
    """
    if k < 1:
        raise ValueError("order must be at least 1")
    if not 0.0 <= xi_abs < 1.0:
        raise ValueError("|xi| must lie in [0, 1)")
    if variant == "disk":
        orders = tuple(range(1, k + 1))
        mags = tuple(
            xi_abs ** (k - j) * math.factorial(k) * math.factorial(k - 1)
            / (math.factorial(k - j) * math.factorial(j - 1))
            / (1.0 - xi_abs ** 2) ** k
            for j in orders
        )
        closed = math.factorial(k) * (1.0 + xi_abs) ** (k - 1) / (1.0 - xi_abs ** 2) ** k
    elif variant == "radial":
        if v is None:
            raise ValueError("the radial variant requires the multi-index v")
        v = mi.as_multiindex(v)
        if sum(v) != k:
            raise ValueError(f"degree of v must equal k={k}")
        v1 = v[0]
        rest = k - v1
        start = 0 if rest > 0 else 1
        orders = tuple(range(start, v1 + 1))
        vfact = mi.multiindex_factorial(v)
        mags = tuple(
            xi_abs ** (v1 - j) * vfact * math.factorial(k - 1)
            / (math.factorial(v1 - j) * math.factorial(j - 1 + rest))
            / (1.0 - xi_abs ** 2) ** ((v1 + k) / 2.0)
            for j in orders
        )
        closed = vfact * mu_factor(v, xi_abs) / (1.0 - xi_abs ** 2) ** ((v1 + k) / 2.0)
    else:
        raise ValueError("variant must be 'disk' or 'radial'")
    return AjCoefficients(orders=orders, magnitudes=mags,
                          term_sum=float(sum(mags)), closed_form=closed)


def _metric(d, fz) -> float:
    return geometry.bergman_metric(fz, d)


def _norm(d, fz) -> float:
    return float(np.linalg.norm(d))


def _classical(d, fz) -> float:
    return float(np.linalg.norm(d)) / (1.0 - float(np.linalg.norm(fz)) ** 2)


class _Bound(NamedTuple):
    """One inequality id: the derivative it controls, its left-hand form
    lhs(derivative, f(z)) and its right-hand side rhs(z, beta, k, v, |f(z)|).

    derivative is one of
      d^k    f^(k)(z) for n = 1
      D_k    the order-k directional derivative D_k(f, z, beta)
      d^v    the mixed partial d^v f(z)
      slice  the degree-k slice sum_{|alpha|=k} a_alpha beta^alpha at the origin
      a_v    the Taylor coefficient a_v at the origin
    """

    derivative: str
    lhs: Callable
    rhs: Callable
    k: int | None = None
    n1: bool = False
    m1: bool = False


_BOUNDS = {
    "1.1": _Bound("d^k", _classical, lambda z, b, k, v, a: rhs_disk_classical(k, z[0], a), n1=True, m1=True),
    "1.2": _Bound("d^v", _norm, lambda z, b, k, v, a: rhs_partial(v, z, a).benchmark_scalar, m1=True),
    "1.3": _Bound("D_k", _metric, lambda z, b, k, v, a: rhs_main(k, z, b), k=1),
    "1.4": _Bound("D_k", _metric, lambda z, b, k, v, a: rhs_main(k, z, b)),
    "3.1": _Bound("slice", lhs_quadratic, lambda z, b, k, v, a: rhs_origin((k,), a).slice_bound),
    "3.2": _Bound("a_v", lhs_quadratic, lambda z, b, k, v, a: rhs_origin(v, a).coefficient_bound),
    "4.1": _Bound("d^k", lhs_quadratic, lambda z, b, k, v, a: rhs_disk(k, z[0], a), n1=True),
    "5.1": _Bound("d^v", lhs_quadratic, lambda z, b, k, v, a: rhs_partial(v, z, a).squared),
    "5.2": _Bound("d^v", _norm, lambda z, b, k, v, a: rhs_partial(v, z, a).scalar, m1=True),
    "5.3": _Bound("d^v", lhs_quadratic, lambda z, b, k, v, a: rhs_radial(v, z, a)),
}


def _derivative(f: HoloMap, kind: str, z, beta, k, v, bundle):
    """(f at the base point, the derivative a bound controls).

    Origin rows read the Taylor coefficients at 0; the others use the
    partial bundle at z, computed here unless supplied.
    """
    zero = (0,) * f.n
    if kind in ("slice", "a_v"):
        indices = mi.enumerate_indices(f.n, k) if kind == "slice" else [v]
        coeffs = cauchy.taylor_coefficients(f, [zero] + indices)
        if kind == "a_v":
            return coeffs[zero], coeffs[v]
        return coeffs[zero], sum(coeffs[a] * np.prod(beta ** np.array(a)) for a in indices)
    if bundle is None:
        bundle = cauchy.partial_bundle(f, z, sum(v) if kind == "d^v" else k)
    if kind == "d^k":
        return bundle[zero], bundle[(k,)]
    if kind == "d^v":
        return bundle[zero], bundle[v]
    return bundle[zero], cauchy.frechet_from_bundle(bundle, beta, k, f.n)


def _given(value, name: str, ineq: str):
    if value is None:
        raise ValueError(f"inequality {ineq} requires the argument {name}")
    return value


def check_inequality(f: HoloMap, inequality: str, *, z=None, beta=None, k=None, v=None,
                     bundle=None) -> BoundReport:
    """Evaluate one inequality for a map at a single context and report both sides.

    Derivatives come from the exact coefficient route for polynomial maps and
    from slice quadrature otherwise; a precomputed partial `bundle` may be
    supplied to share one quadrature across many contexts.  Leaving out a
    context argument the id needs (z, beta, k or v) raises ValueError.
    """
    ineq = normalize_inequality(inequality)
    row = _BOUNDS[ineq]
    if row.n1 and f.n != 1:
        raise ValueError(f"inequality {ineq} applies to one-variable maps")
    if row.m1 and f.m != 1:
        raise ValueError(f"inequality {ineq} applies to scalar-valued maps")
    origin = row.derivative in ("slice", "a_v")
    ctx = {}
    if not origin:
        z = np.asarray(_given(z, "z", ineq), dtype=complex).reshape(-1)
        ctx["z"] = z
    if row.derivative in ("D_k", "slice"):
        beta = np.asarray(_given(beta, "beta", ineq), dtype=complex).reshape(f.n)
        if origin and abs(math.sqrt(float(sq_norm(beta))) - 1.0) > 1e-12:
            raise MapDomainError("the origin slice bound requires a unit direction")
        ctx["beta"] = beta
    if row.derivative in ("d^v", "a_v"):
        v = mi.as_multiindex(_given(v, "v", ineq))
        ctx["v"] = v
    else:
        k = int(row.k if row.k is not None else _given(k, "k", ineq))
        ctx["k"] = k
    fz, d = _derivative(f, row.derivative, z, beta, k, v, bundle)
    lhs = row.lhs(d, fz)
    rhs = row.rhs(z, beta, k, v, float(np.linalg.norm(fz)))
    return BoundReport.build(ineq, lhs, rhs, ctx)
