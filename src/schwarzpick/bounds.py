"""Right-hand-side bound formulas and the inequality checks, which evaluate
a batch of requests at points of one or more maps as numpy columns.

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
  parseval-slice  sum_{j<=k} |P_j(beta)|^2 <= 1 over the slices at the origin, beta a unit vector
  parseval-torus  sum_{|alpha|<=k} |a_alpha|^2 |beta^alpha|^2 <= 1 at the origin, beta a unit vector
"""
from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import cauchy
from . import multiindex as mi
from .holomap import HoloMap, MapDomainError, as_ball_point, as_direction, hermitian_inner, sq_norm

_ALIASES = {"4.3": "1.4", "1.5": "5.1", "1.6": "5.2", "1.7": "5.3"}


def normalize_inequality(inequality: str) -> str:
    out = _ALIASES.get(str(inequality), str(inequality))
    if out not in INEQUALITY_IDS:
        raise ValueError(f"unknown inequality id {inequality!r}")
    return out


def _moduli(d, fz):
    """|d|^2 and |<d, f(z)>| along the last axis.  np.hypot rounds a modulus
    as abs(complex) does; np.abs does not."""
    ip = hermitian_inner(d, fz)
    return sq_norm(d), np.hypot(ip.real, ip.imag)


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

    v: tuple[int, ...]  # v as a checked tuple
    k: int              # |v|
    sharpness: float    # |v|^|v| / v^v
    factorial: int      # v!
    scalar: float       # sqrt(|v|^|v| / v^v) v!
    benchmark: float    # n^(|v|/2) |v|! C(n+|v|-1, n-1)


@lru_cache(maxsize=1024)
def _cached_constants(v) -> _Constants:
    k = sum(v)
    if k == 0:
        raise ValueError("v must be a non-zero multi-index")
    n = len(v)
    sharpness = mi.sharpness_factor(v)
    factorial = mi.multiindex_factorial(v)
    return _Constants(v, k, sharpness, factorial, math.sqrt(sharpness) * factorial,
                      (n ** (k / 2.0)) * math.factorial(k) * math.comb(n + k - 1, n - 1))


def _constants(v) -> _Constants:
    """The constants of v, checked before the cache: (True, 1) hashes like (1, 1)."""
    return _cached_constants(mi.as_multiindex(v))


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
    c = _constants(v)
    core = (1.0 + t) ** (c.k - 1) * q / (1.0 - t * t) ** c.k
    scalar = c.scalar * core
    return PartialBounds(squared=scalar * scalar, scalar=scalar, benchmark_scalar=c.benchmark * core)


def mu_factor(v, z_abs: float) -> float:
    """Truncation of (1+t)^(|v|-1) to powers t^j with j <= v_1; the full
    binomial when v_1 = |v|."""
    c = _constants(v)
    return sum(math.comb(c.k - 1, l) * z_abs ** l for l in range(min(c.v[0], c.k - 1) + 1))


def rhs_radial(v, t: float, q: float) -> float:
    """Sharpened bound for points on the z1-axis, with t = |z_1| and
    q = 1-|f(z)|^2:

    (|v|^|v|/v^v) [v! mu(t) q / (1-t^2)^((v1+|v|)/2)]^2

    with mu the truncated binomial.  Coincides with the squared rhs_partial
    when v_1 = |v|.
    """
    c = _constants(v)
    core = c.factorial * mu_factor(c.v, t) * q
    core /= (1.0 - t * t) ** ((c.v[0] + c.k) / 2.0)
    return c.sharpness * core * core


def rhs_origin(a0_abs: float) -> float:
    """Origin bound (1-|a0|^2)^2 on the degree-k slice; the bound on a single
    Taylor coefficient a_v is (|v|^|v|/v^v) times it."""
    return (1.0 - a0_abs ** 2) ** 2


def rhs_parseval() -> float:
    """Bound 1 on the Parseval sums: means of |f|^2 <= 1 over a circle and a torus on the sphere."""
    return 1.0


#: The left-hand forms over a batch's rows, of the columns |d|^2 and |<d, f(z)>|
#: of each row's derivative d, q = 1-|f|^2 and q2 = q ** 2 as the left sides
#: round them, and rq = 1-|f|^2 as the right sides round it.
_LHS = {
    "metric": lambda d2, ip, q, q2, rq: (q * d2 + ip * ip) / q2,  # H_f(z)(d, d)
    "form": lambda d2, ip, q, q2, rq: ip * ip + q * d2,
    "norm": lambda d2, ip, q, q2, rq: np.sqrt(d2),  # |d|: rounds as np.linalg.norm(d) for m = 1
    "classical": lambda d2, ip, q, q2, rq: np.sqrt(d2) / rq,
    "sum": lambda d2, ip, q, q2, rq: d2,  # a Parseval row's d2 is its sum of squared norms
}


# A derivative table and the scalars its rows share: f(z) (a0 at the origin),
# q, q2, rq (the two roundings of 1-|f|^2 differ in the last bit), |f|, and for
# a table at z also |z|, |z_1| and the lift and metric lists of rhs_main per
# direction.
_Table = namedtuple("_Table", "table fz q q2 rq fz_norm t t1 lift metric", defaults=(None,) * 4)


class _Bound(NamedTuple):
    """One inequality id: the derivative it controls, the name of its
    left-hand form in _LHS, and its right-hand side rhs(table, request,
    direction index).

    derivative is one of
      d^k    f^(k)(z) for n = 1
      D_k    the order-k directional derivative D_k(f, z, beta)
      d^v    the mixed partial d^v f(z)
      slice  the degree-k slice sum_{|alpha|=k} a_alpha beta^alpha at the origin
      a_v    the Taylor coefficient a_v at the origin
      slices the slices P_j(beta) of every degree j <= k at the origin
      torus  the terms a_alpha beta^alpha of every |alpha| <= k at the origin
    """

    derivative: str
    lhs: str
    rhs: Callable
    k: int | None = None
    n1: bool = False
    m1: bool = False
    axis: bool = False


def _rhs_main(s: _Table, r, d: int) -> float:
    return rhs_main(r.order, s.lift[d], s.metric[d])


_BOUNDS = {
    "1.1": _Bound("d^k", "classical", lambda s, r, d: math.sqrt(rhs_disk(r.order, s.t1, s.rq)) / s.rq,
                  n1=True, m1=True),
    "1.2": _Bound("d^v", "norm", lambda s, r, d: rhs_partial(r.v, s.t, s.rq).benchmark_scalar, m1=True),
    "1.3": _Bound("D_k", "metric", _rhs_main, k=1),
    "1.4": _Bound("D_k", "metric", _rhs_main),
    "3.1": _Bound("slice", "form", lambda s, r, d: rhs_origin(s.fz_norm)),
    "3.2": _Bound("a_v", "form", lambda s, r, d: _constants(r.v).sharpness * rhs_origin(s.fz_norm)),
    "4.1": _Bound("d^k", "form", lambda s, r, d: rhs_disk(r.order, s.t1, s.rq), n1=True),
    "5.1": _Bound("d^v", "form", lambda s, r, d: rhs_partial(r.v, s.t, s.rq).squared),
    "5.2": _Bound("d^v", "norm", lambda s, r, d: rhs_partial(r.v, s.t, s.rq).scalar, m1=True),
    "5.3": _Bound("d^v", "form", lambda s, r, d: rhs_radial(r.v, s.t1, s.rq), axis=True),
    "parseval-slice": _Bound("slices", "sum", lambda s, r, d: rhs_parseval()),
    "parseval-torus": _Bound("torus", "sum", lambda s, r, d: rhs_parseval()),
}

INEQUALITY_IDS = tuple(_BOUNDS)

_ORIGIN, _DIRECTED = ("slice", "a_v", "slices", "torus"), ("D_k", "slice", "slices", "torus")

# A request's checked context less its direction: the id, its table row, k
# (None when v is given), v, the order (k or |v|), whether it reads the origin,
# and the entries of its table it reads: v, the degree k, or every degree <= k for a sum.
_Request = namedtuple("_Request", "ineq row k v order origin entries")
_CONTEXT = frozenset(("beta", "k", "v"))


@lru_cache(maxsize=4096)
def _request(n: int, m: int, inequality: str, at_z: bool, with_beta: bool, k, v) -> _Request:
    """Check a request's context for a map from C^n to C^m, once per distinct
    context; k and v arrive checked, as 2.0, True and (True, 1) hash like 2, 1 and (1, 1)."""
    ineq = normalize_inequality(inequality)
    row = _BOUNDS[ineq]
    if row.n1 and n != 1:
        raise ValueError(f"inequality {ineq} applies to one-variable maps")
    if row.m1 and m != 1:
        raise ValueError(f"inequality {ineq} applies to scalar-valued maps")
    origin, reads_v = row.derivative in _ORIGIN, row.derivative in ("d^v", "a_v")
    for name, missing in (("z", not (origin or at_z)), ("beta", row.derivative in _DIRECTED and not with_beta),
                          ("v", reads_v and v is None), ("k", not reads_v and row.k is None and k is None)):
        if missing:
            raise ValueError(f"inequality {ineq} requires the argument {name}")
    # 1.3 reads no k: its order is 1
    for name, unread in (("beta", with_beta and row.derivative not in _DIRECTED), ("v", v is not None and not reads_v),
                         ("k", k is not None and (reads_v or row.k is not None))):
        if unread:
            raise ValueError(f"inequality {ineq} does not read the argument {name}")
    if reads_v:
        return _Request(ineq, row, None, v, _constants(v).k, origin, (v,))
    k = row.k if row.k is not None else k
    if k < 1:
        raise ValueError("order must be at least 1")
    return _Request(ineq, row, k, None, k, origin, tuple(mi.enumerate_up_to(n, k) if row.lhs == "sum"
                                                          else mi.enumerate_indices(n, k)))


class Point(NamedTuple):
    """One point of a `check_columns` batch.

    f         the map; the maps of one batch share their (n, m)
    z         the point, or None when every request reads the origin
    bundle    the partials of f at z, or None to compute them
    requests  (id, {"beta": ..., "k": ..., "v": ...}) pairs
    """

    f: HoloMap
    z: object
    bundle: dict | None
    requests: list


def _points(points) -> tuple[list[tuple], list[tuple], list]:
    """Check that the maps share (n, m) and every context of every point: one
    (_Request, point, direction index or None) row per request; per point f,
    z, bundle and, when a request reads z, |z|, |z_1| and rhs_main's
    factors by direction b, H_z(b,b) and
    lift = 1 + |<b,z>| / ((1-|z|^2)|b|^2 + |<b,z>|^2)^(1/2), as columns over
    the point's directions; and the checked directions."""
    rows, pts, betas, lift, metric = [], [], [], {}, {}
    for p, (f, z, bundle, requests) in enumerate(points):
        if p == 0:
            n, m = f.n, f.m
        elif (f.n, f.m) != (n, m):
            raise ValueError(f"the maps of one batch must share (n, m) = ({n}, {m}); point {p} has ({f.n}, {f.m})")
        first, start, directions = len(rows), len(betas), {}
        for inequality, kwargs in requests:
            if not kwargs.keys() <= _CONTEXT:
                raise TypeError(f"unexpected request arguments {sorted(kwargs.keys() - _CONTEXT)}")
            beta, k, v = kwargs.get("beta"), kwargs.get("k"), kwargs.get("v")
            k = None if k is None else mi.check_order(k)
            v = None if v is None else mi.as_multiindex_of(v, n)
            r = _request(n, m, inequality, z is not None, beta is not None, k, v)
            d = None
            if r.row.derivative in _DIRECTED:
                beta = np.asarray(beta, dtype=complex)
                d = directions.setdefault((beta.shape, beta.tobytes()), len(betas))
                if d == len(betas):
                    betas.append(as_direction(beta, n))
            rows.append((r, p, d))
        if directions:
            b = np.array(betas[start:])
            b2 = sq_norm(b)
            unit = [d - start for r, _, d in rows[first:] if r.origin and d is not None]
            if unit and (np.abs(np.sqrt(b2[unit]) - 1.0) > 1e-12).any():
                raise MapDomainError("the origin bounds require a unit direction")
        at_z = [r for r, _, _ in rows[first:] if not r.origin]
        if at_z:
            z = as_ball_point(z, n)
            if (z[1:] != 0).any() and any(r.row.axis for r in at_z):
                raise MapDomainError("the radial bound applies only on the z1-axis")
            z2 = float(sq_norm(z))
            if directions:
                _, ip = _moduli(b, z)
                pivot = (1.0 - z2) * b2 + ip * ip
                lift.update(enumerate((1.0 + ip / np.sqrt(pivot)).tolist(), start))
                metric.update(enumerate((pivot / (1.0 - z2) ** 2).tolist(), start))
        pts.append((f, z, bundle, (math.sqrt(z2), abs(complex(z[0])), lift, metric) if at_z else None))
    return rows, pts, betas


def _table(table: dict, n: int, scalars) -> _Table:
    fz = table[(0,) * n]
    fz_norm = float(np.linalg.norm(fz))
    fz2 = float(sq_norm(fz))
    if not (fz2 < 1.0 and fz_norm < 1.0):  # every bound assumes f maps into the ball; NaN fails too
        at = "0" if scalars is None else "z"
        raise MapDomainError(f"f({at}) must lie strictly inside the unit ball (|f({at})| = {fz_norm:.6f})")
    q = 1.0 - fz2  # q ** 2 is a float power: numpy's square of q rounds differently
    return _Table(table, fz, q, q ** 2, 1.0 - fz_norm ** 2, fz_norm, *(scalars or ()))


def _derivative(rows: list[tuple], pts: list[tuple], betas: list) -> tuple[list, list, np.ndarray, dict]:
    """The tables the rows read, each row's table, every row's derivative, as
    one (R, m) array, and each Parseval row's sum by row index.  The origin
    rows of every point read one table per point and order, all tables of an
    order from one `origin_coefficients` call; the others read the point's
    bundle or else one partial bundle per order: a slice table's rounding
    depends on its order, so every row reads the numbers it would read alone.
    The D_k (or slice) rows of one order are one degree sum over their
    directions, the Parseval rows of one kind and order one per degree."""
    n, m = pts[0][0].n, pts[0][0].m
    wanted: dict[int, dict] = {}  # order -> {point: None}, {alpha: None}
    for r, p, _ in rows:
        if r.origin:
            points, alphas = wanted.setdefault(r.order, ({}, {(0,) * n: None}))
            points[p] = None
            alphas.update(dict.fromkeys(r.entries))
    origin = {(p, order): table for order, (points, alphas) in wanted.items()
              for p, table in zip(points, cauchy.origin_coefficients([pts[p][0] for p in points], list(alphas)))}
    groups: dict[tuple, int] = {}
    orders: dict[tuple, list] = {}
    tables, gs, reads = [], [], []
    for i, (r, p, d) in enumerate(rows):
        f, z, bundle, scalars = pts[p]
        key = (p, r.origin, r.order if r.origin or bundle is None else None)
        if key not in groups:
            if r.origin:
                table = origin[p, r.order]
            else:
                table = bundle if bundle is not None else cauchy.partial_bundle(f, z, r.order)
            groups[key] = len(tables)
            tables.append(_table(table, n, None if r.origin else scalars))
        gs.append(groups[key])
        if d is None:
            reads.append(i)
        else:
            orders.setdefault((r.row.derivative, r.order), []).append(i)
    out, betas = np.zeros((len(rows), m), dtype=complex), np.array(betas)
    if reads:  # d^k reads (k,), d^v and a_v read v
        out[reads] = [tables[gs[i]].table[rows[i][0].entries[0]] for i in reads]

    def degree(idx: list, k: int) -> np.ndarray:
        """The degree-k entries of the table of each row of idx, shape (len(idx), J, m)."""
        alphas = mi.enumerate_indices(n, k)
        at = {g: j for j, g in enumerate(dict.fromkeys(gs[i] for i in idx))}
        return np.array([[tables[g].table[alpha] for alpha in alphas] for g in at])[[at[gs[i]] for i in idx]]

    sums: dict[int, float] = {}
    for (kind, k), idx in orders.items():
        b = betas[[rows[i][2] for i in idx]]
        if kind in ("D_k", "slice"):
            out[idx] = cauchy.degree_sum(degree(idx, k), b, k, n, weighted=kind == "D_k")
            if kind == "D_k" and not np.isfinite(out[idx]).all():
                raise MapDomainError("derivative entries must be finite")
        else:  # sum_{j<=k} |P_j(beta)|^2, or sum_{|alpha|<=k} |a_alpha|^2 |beta^alpha|^2 in the |beta_i|^2
            b2 = b.real ** 2 + b.imag ** 2
            terms = (sq_norm(cauchy.degree_sum(degree(idx, j), b, j, n)) if kind == "slices" else
                     cauchy.degree_sum(sq_norm(degree(idx, j))[..., None], b2, j, n)[:, 0].real for j in range(k + 1))
            sums.update(zip(idx, sum(terms).tolist()))
    return tables, gs, out, sums


#: One evaluated request: the id, the context (z or None at the origin, beta,
#: k or None when v is given, v) and both sides, slack and ratio as floats.
Row = namedtuple("Row", "inequality z beta k v lhs rhs slack ratio")


def check_columns(points) -> list[Row]:
    """Evaluate the requests of every `Point` as one batch of columns and
    return one `Row` per request, in request order.  Every map, point and
    context is checked before any derivative work; leaving out a context an
    id needs (z, beta, k or v), or giving one it does not read (beta, k or v;
    any k for 1.3), raises ValueError.  Derivatives come from the exact coefficient route
    for polynomial maps and from slice quadrature otherwise.  |d|^2,
    |<d, f(z)>|, lhs, rhs, slack and ratio are float64 columns, and each
    right-hand side is one scalar call per request.  The columns round as
    the scalar formulas do (see the README), so each row is bitwise the row
    its request gets alone."""
    rows, pts, betas = _points(points)
    if not rows:
        return []
    tables, gs, d, sums = _derivative(rows, pts, betas)
    g = np.array(gs)
    d2, ip = _moduli(d, np.array([t.fz for t in tables])[g])
    d2[list(sums)] = list(sums.values())
    q, q2, rq = (np.array(column)[g] for column in zip(*((t.q, t.q2, t.rq) for t in tables)))
    ids, zs, betas, ks, vs, rhs = zip(*[(r.ineq, None if r.origin else pts[p][1], None if i is None else betas[i],
                                         r.k, r.v, r.row.rhs(tables[t], r, i)) for (r, p, i), t in zip(rows, gs)])
    forms = [r.row.lhs for r, _, _ in rows]
    lhs = np.empty(len(rows))
    for form in dict.fromkeys(forms):
        rows_of = np.array([other == form for other in forms])
        lhs[rows_of] = _LHS[form](d2[rows_of], ip[rows_of], q[rows_of], q2[rows_of], rq[rows_of])
    rhs = np.array(rhs)
    ratio = np.divide(lhs, rhs, out=np.zeros(len(rows)), where=(lhs != 0.0) | (rhs != 0.0))
    return list(map(Row, ids, zs, betas, ks, vs, lhs.tolist(), rhs.tolist(), (rhs - lhs).tolist(),
                    ratio.tolist()))


def check_inequality(f: HoloMap, inequality: str, *, z=None, beta=None, k=None, v=None, bundle=None) -> Row:
    """Evaluate one inequality for a map at a single context: the one-request
    view of `check_columns`."""
    [row] = check_columns([Point(f, z, bundle, [(inequality, {"beta": beta, "k": k, "v": v})])])
    return row
