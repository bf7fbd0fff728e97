"""Right-hand-side bound formulas, the recurring left-hand quadratic form,
and the inequality checks, which evaluate every request at a point in one
batch.

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
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import cauchy, geometry
from . import multiindex as mi
from .holomap import HoloMap, MapDomainError, hermitian_inner, sq_norm

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
    return _quadratic(value, np.conj(fz), 1.0 - float(sq_norm(fz)))


def _pair(d, conj_fz) -> tuple[float, float]:
    """|d|^2 and |<d, f(z)>| for conj_fz = conj(f(z))."""
    return float(sq_norm(d)), abs(complex(np.add.reduce(d * conj_fz, axis=-1)))


def _quadratic(d, conj_fz, q: float) -> float:
    """lhs_quadratic(d, f(z)) for conj_fz = conj(f(z)) and q = 1-|f(z)|^2."""
    d2, ip = _pair(d, conj_fz)
    return ip * ip + q * d2


def _direction(z, z2: float, beta) -> tuple[float, float]:
    """The factors of rhs_main for the direction beta at z, for z2 = |z|^2:
    1 + |<b,z>| / ((1-|z|^2)|b|^2 + |<b,z>|^2)^(1/2) and H_z(b,b)."""
    b2 = float(sq_norm(beta))
    ip = abs(complex(hermitian_inner(beta, z)))
    pivot = math.sqrt((1.0 - z2) * b2 + ip * ip)
    return 1.0 + ip / pivot, geometry.metric_form(1.0 - z2, b2, ip)


def rhs_main(k: int, lift: float, metric: float) -> float:
    """Order-k metric bound k!^2 lift^(2(k-1)) metric^k for the direction's
    factors lift = 1 + |<b,z>| / ((1-|z|^2)|b|^2 + |<b,z>|^2)^(1/2) and
    metric = H_z(b,b).

    Reduces to H_z(b,b) exactly at k = 1.  The lift grows with |<b,z>| and
    is exactly 1 when b is orthogonal to z.
    """
    return math.factorial(k) ** 2 * lift ** (2 * (k - 1)) * metric ** k


def rhs_disk(k: int, t: float, q: float) -> float:
    """Disk-domain quadratic-form bound [k! q (1+t)^(k-1) / (1-t^2)^k]^2
    for t = |z| and q = 1-|f(z)|^2."""
    return (math.factorial(k) * q * (1.0 + t) ** (k - 1) / (1.0 - t * t) ** k) ** 2


class _Constants(NamedTuple):
    """The combinatorial constants of a multi-index v that the bounds read."""

    k: int              # |v|
    sharpness: float    # |v|^|v| / v^v
    factorial: int      # v!
    scalar: float       # sqrt(|v|^|v| / v^v) v!
    benchmark: float    # n^(|v|/2) |v|! C(n+|v|-1, n-1)


@lru_cache(maxsize=1024)
def _constants(v: tuple[int, ...]) -> _Constants:
    k = sum(v)
    if k == 0:
        raise ValueError("v must be a non-zero multi-index")
    n = len(v)
    sharpness = mi.sharpness_factor(v)
    factorial = mi.multiindex_factorial(v)
    return _Constants(k, sharpness, factorial, math.sqrt(sharpness) * factorial,
                      (n ** (k / 2.0)) * math.factorial(k) * math.comb(n + k - 1, n - 1))


class PartialBounds(NamedTuple):
    """Squared and scalar bound values for a mixed partial derivative plus
    the classical benchmark they dominate."""

    squared: float
    scalar: float
    benchmark_scalar: float


def rhs_partial(v, t: float, q: float) -> PartialBounds:
    """Bounds for d^|v| f / dz^v at a point with t = |z| and q = 1-|f(z)|^2.

    squared:  (|v|^|v|/v^v) [v! (1+t)^(|v|-1) q / (1-t^2)^|v|]^2
    scalar:   its square root (the m = 1 bound)
    benchmark_scalar: n^(|v|/2) |v|! C(n+|v|-1, n-1) q (1+t)^(|v|-1) / (1-t^2)^|v|

    The scalar bound never exceeds the benchmark: sqrt(|v|^|v|/v^v) <= n^(|v|/2),
    v! <= |v|! and the binomial is at least 1.
    """
    c = _constants(mi.as_multiindex(v))
    core = (1.0 + t) ** (c.k - 1) * q / (1.0 - t * t) ** c.k
    scalar = c.scalar * core
    return PartialBounds(squared=scalar * scalar, scalar=scalar, benchmark_scalar=c.benchmark * core)


def mu_factor(v, z_abs: float) -> float:
    """Truncation of (1+t)^(|v|-1) to powers t^j with j <= v_1; the full
    binomial when v_1 = |v|."""
    v = mi.as_multiindex(v)
    k = sum(v)
    return sum(math.comb(k - 1, l) * z_abs ** l for l in range(min(v[0], k - 1) + 1))


def rhs_radial(v, t: float, q: float) -> float:
    """Sharpened bound for points on the z1-axis, with t = |z_1| and
    q = 1-|f(z)|^2:

    (|v|^|v|/v^v) [v! mu(t) q / (1-t^2)^((v1+|v|)/2)]^2

    with mu the truncated binomial.  Coincides with the squared rhs_partial
    when v_1 = |v|.
    """
    v = mi.as_multiindex(v)
    c = _constants(v)
    core = c.factorial * mu_factor(v, t) * q
    core /= (1.0 - t * t) ** ((v[0] + c.k) / 2.0)
    return c.sharpness * core * core


def rhs_origin(a0_abs: float) -> float:
    """Origin bound (1-|a0|^2)^2 on the degree-k slice; the bound on a single
    Taylor coefficient a_v is (|v|^|v|/v^v) times it."""
    return (1.0 - a0_abs ** 2) ** 2


class _Point:
    """One derivative table and what every request reading it shares: f(z)
    with |f(z)|^2 and |f(z)|; for a table at z also the scalars of z, each
    direction's rhs_main factors and each directional derivative D_k.
    Directions are keyed by their bytes, so equal directions share work."""

    def __init__(self, table: dict, n: int, z=None):
        self.table = table
        self.n = n
        self.fz = table[(0,) * n]
        self.conj_fz = np.conj(self.fz)
        self.fz2 = float(sq_norm(self.fz))
        self.fz_norm = float(np.linalg.norm(self.fz))
        # 1-|f(z)|^2 as the left-hand forms round it (from |f(z)|^2) and as
        # the right-hand sides do (from |f(z)|); the two differ in the last bit
        self.lhs_q = 1.0 - self.fz2
        self.rhs_q = 1.0 - self.fz_norm ** 2
        # every bound assumes f maps into the ball; NaN fails too
        if not (self.fz2 < 1.0 and self.fz_norm < 1.0):
            at = "0" if z is None else "z"
            raise MapDomainError(f"f({at}) must lie strictly inside the unit ball (|f({at})| = {self.fz_norm:.6f})")
        if z is not None:
            self.z = z
            self.z2 = float(sq_norm(z))
            self.t = math.sqrt(self.z2)    # |z|, the t of rhs_partial
            self.t1 = abs(complex(z[0]))   # |z_1|, the t of rhs_disk and rhs_radial
            self.on_axis = not np.any(z[1:] != 0)
        self._directions: dict[bytes, tuple[float, float]] = {}
        self._frechet: dict[tuple[bytes, int], np.ndarray] = {}

    def direction(self, beta) -> tuple[float, float]:
        """rhs_main's factors for the direction beta at z."""
        key = beta.tobytes()
        if key not in self._directions:
            self._directions[key] = _direction(self.z, self.z2, beta)
        return self._directions[key]

    def derivative(self, r: "_Request"):
        """The derivative request r controls."""
        kind = r.row.derivative
        if kind == "D_k":
            key = (r.beta.tobytes(), r.k)
            if key not in self._frechet:
                self._frechet[key] = cauchy.frechet_from_bundle(self.table, r.beta, r.k, self.n)
            return self._frechet[key]
        if kind == "slice":
            return sum(self.table[a] * np.prod(r.beta ** np.array(a)) for a in r.indices)
        return self.table[(r.k,) if kind == "d^k" else r.v]


def _metric(d, p: _Point) -> float:
    """H_f(z)(d, d), the left side of the metric bounds."""
    if not np.isfinite(d).all():
        raise MapDomainError("derivative entries must be finite")
    return geometry.metric_form(p.lhs_q, *_pair(d, p.conj_fz))


def _form(d, p: _Point) -> float:
    return _quadratic(d, p.conj_fz, p.lhs_q)


def _norm(d, p: _Point) -> float:
    return float(np.linalg.norm(d))


def _classical(d, p: _Point) -> float:
    return float(np.linalg.norm(d)) / p.rhs_q


def _on_axis_radial(p: _Point, r: "_Request") -> float:
    if not p.on_axis:
        raise MapDomainError("the radial bound applies only on the z1-axis")
    return rhs_radial(r.v, p.t1, p.rhs_q)


class _Bound(NamedTuple):
    """One inequality id: the derivative it controls, its left-hand form
    lhs(derivative, point) and its right-hand side rhs(point, request).

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
    "1.1": _Bound("d^k", _classical, lambda p, r: math.sqrt(rhs_disk(r.k, p.t1, p.rhs_q)) / p.rhs_q,
                  n1=True, m1=True),
    "1.2": _Bound("d^v", _norm, lambda p, r: rhs_partial(r.v, p.t, p.rhs_q).benchmark_scalar, m1=True),
    "1.3": _Bound("D_k", _metric, lambda p, r: rhs_main(r.k, *p.direction(r.beta)), k=1),
    "1.4": _Bound("D_k", _metric, lambda p, r: rhs_main(r.k, *p.direction(r.beta))),
    "3.1": _Bound("slice", _form, lambda p, r: rhs_origin(p.fz_norm)),
    "3.2": _Bound("a_v", _form, lambda p, r: r.c.sharpness * rhs_origin(p.fz_norm)),
    "4.1": _Bound("d^k", _form, lambda p, r: rhs_disk(r.k, p.t1, p.rhs_q), n1=True),
    "5.1": _Bound("d^v", _form, lambda p, r: rhs_partial(r.v, p.t, p.rhs_q).squared),
    "5.2": _Bound("d^v", _norm, lambda p, r: rhs_partial(r.v, p.t, p.rhs_q).scalar, m1=True),
    "5.3": _Bound("d^v", _form, _on_axis_radial),
}

INEQUALITY_IDS = tuple(_BOUNDS)


class _Request(NamedTuple):
    """One request with its context checked: the id, its table row, whether
    it is an origin row, the direction, the order k (|v| for the rows that
    read v), v with its constants, and the Taylor coefficients an origin row
    reads."""

    ineq: str
    row: _Bound
    origin: bool
    beta: np.ndarray | None
    k: int
    v: tuple[int, ...] | None
    c: _Constants | None
    indices: list | None


def _given(value, name: str, ineq: str):
    if value is None:
        raise ValueError(f"inequality {ineq} requires the argument {name}")
    return value


def _request(f: HoloMap, z, directions: dict, inequality: str, beta=None, k=None, v=None) -> _Request:
    """Check one request's context; `directions` holds the checked
    directions of the batch by their bytes."""
    ineq = normalize_inequality(inequality)
    row = _BOUNDS[ineq]
    if row.n1 and f.n != 1:
        raise ValueError(f"inequality {ineq} applies to one-variable maps")
    if row.m1 and f.m != 1:
        raise ValueError(f"inequality {ineq} applies to scalar-valued maps")
    origin = row.derivative in ("slice", "a_v")
    if not origin:
        _given(z, "z", ineq)
    if row.derivative in ("D_k", "slice"):
        beta = np.asarray(_given(beta, "beta", ineq), dtype=complex).reshape(-1)
        key = beta.tobytes()
        if key not in directions:
            directions[key] = geometry.as_direction(beta, f.n)
        beta = directions[key]
        if origin and abs(math.sqrt(float(sq_norm(beta))) - 1.0) > 1e-12:
            raise MapDomainError("the origin slice bound requires a unit direction")
    else:
        beta = None
    c = None
    if row.derivative in ("d^v", "a_v"):
        v = mi.as_multiindex(_given(v, "v", ineq))
        if len(v) != f.n:
            raise ValueError(f"multi-index {v} does not have dimension {f.n}")
        c = _constants(v)
        k = c.k
    else:
        v = None
        k = int(row.k if row.k is not None else _given(k, "k", ineq))
        if k < 1:
            raise ValueError("order must be at least 1")
    indices = None
    if origin:
        indices = mi.enumerate_indices(f.n, k) if v is None else [v]
    return _Request(ineq, row, origin, beta, k, v, c, indices)


def _derivative(f: HoloMap, requests: list[_Request], z, bundle) -> list[_Point]:
    """The derivative table each request reads, as one _Point per table.

    Origin requests share one Taylor-coefficient lookup per derivative order;
    the others share `bundle`, or else one partial bundle per order.  A slice
    table's rounding depends on its order, so every request reads the numbers
    it would read alone.
    """
    zero = (0,) * f.n
    wanted: dict[int, dict] = {}
    for r in requests:
        if r.origin:
            wanted.setdefault(r.k, {zero: None}).update(dict.fromkeys(r.indices))
    points: dict[tuple, _Point] = {}
    out = []
    for r in requests:
        key = (r.origin, None if bundle is not None and not r.origin else r.k)
        if key not in points:
            if r.origin:
                points[key] = _Point(cauchy.taylor_coefficients(f, list(wanted[r.k])), f.n)
            else:
                table = bundle if bundle is not None else cauchy.partial_bundle(f, z, r.k)
                points[key] = _Point(table, f.n, z)
        out.append(points[key])
    return out


def check_requests(f: HoloMap, requests, *, z=None, bundle=None) -> list[BoundReport]:
    """Evaluate (inequality, context) requests for a map and report both sides
    of each, in request order.

    Each request is an (id, kwargs) pair whose kwargs give the beta, k or v
    the id needs; all requests share the point z and, when given, the
    precomputed partial `bundle` of f at z.  Derivatives come from the exact
    coefficient route for polynomial maps and from slice quadrature otherwise.
    Every context is checked before any derivative work, and leaving out one
    an id needs (z, beta, k or v) raises ValueError.  The requests share f(z),
    the scalars of z, each direction's factors, each D_k and each v's
    constants, computed once in the order a lone request computes them, so
    every report is bitwise the one its request gets alone.
    """
    directions: dict[bytes, np.ndarray] = {}
    reqs = [_request(f, z, directions, inequality, **kwargs) for inequality, kwargs in requests]
    if not all(r.origin for r in reqs):
        z = geometry.as_ball_point(z, f.n)
    reports = []
    for r, p in zip(reqs, _derivative(f, reqs, z, bundle)):
        ctx = {} if r.origin else {"z": z}
        if r.beta is not None:
            ctx["beta"] = r.beta
        if r.v is not None:
            ctx["v"] = r.v
        else:
            ctx["k"] = r.k
        reports.append(BoundReport.build(r.ineq, r.row.lhs(p.derivative(r), p), r.row.rhs(p, r), ctx))
    return reports


def check_inequality(f: HoloMap, inequality: str, *, z=None, beta=None, k=None, v=None,
                     bundle=None) -> BoundReport:
    """Evaluate one inequality for a map at a single context and report both
    sides: the one-request case of `check_requests`."""
    [report] = check_requests(f, [(inequality, {"beta": beta, "k": k, "v": v})], z=z, bundle=bundle)
    return report
