"""Holomorphic maps from the unit ball of C^n into the unit ball of C^m.

The central representation is a sparse polynomial coefficient table
(`PolyMap`), which admits exact differentiation and serves as the ground
truth for the quadrature engine.  Closed-form families (automorphisms,
extremal maps) live in `geometry` and share the `HoloMap` interface; they
are only ever evaluated pointwise, never expanded into truncated series.
"""
from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np

from . import multiindex as mi


class MapDomainError(ValueError):
    """An evaluation point or map parameter lies outside its required domain."""


_EVAL_CHUNK = 1 << 16


def hermitian_inner(u, w):
    """<u, w> = sum_j u_j * conj(w_j), broadcasting over leading axes."""
    return (np.asarray(u) * np.conj(np.asarray(w))).sum(axis=-1)


def sq_norm(z):
    z = np.asarray(z)
    return np.add.reduce(z.real ** 2 + z.imag ** 2, axis=-1)


def check_inside_ball(z, label="z"):
    worst = float(np.max(sq_norm(z)))
    if not worst < 1.0:  # NaN fails too
        raise MapDomainError(f"{label} must lie strictly inside the unit ball (|{label}| = {math.sqrt(worst):.6f})")


def mobius_point(a, w):
    """Ball automorphism exchanging 0 and a, applied to w (broadcasts over w).

    phi_a(w) = (a - P_a w - sqrt(1-|a|^2) Q_a w) / (1 - <w, a>), where P_a is
    the projection onto the a-line and Q_a its complement; P_0 = 0, so
    phi_0 = -identity.
    """
    a = np.asarray(a, dtype=complex)
    w = np.asarray(w, dtype=complex)
    a2 = float(sq_norm(a))
    if a2 == 0.0:
        return -w
    s = math.sqrt(1.0 - a2)
    ip = hermitian_inner(w, a)[..., None]
    proj = ip * a / a2
    return (a - proj - s * (w - proj)) / (1.0 - ip)


def _power_table(zc, dmax: int) -> np.ndarray:
    """z_j^d for the points zc (shape (N, n)) and every d <= dmax, shape
    (N, n, dmax + 1); each power is the previous one times z_j, so an entry
    does not depend on dmax."""
    pows = np.empty(zc.shape + (dmax + 1,), dtype=complex)
    pows[:, :, 0] = 1.0
    for d in range(1, dmax + 1):
        pows[:, :, d] = pows[:, :, d - 1] * zc
    return pows


def _monomials(pows, E):
    """z^E[r] for every row r of E at the points of a power table, shape (N, R)."""
    mono = pows[:, 0, E[:, 0]]
    for j in range(1, E.shape[1]):
        mono = mono * pows[:, j, E[:, j]]
    return mono


@lru_cache(maxsize=None)
def _perm_table(dmax: int) -> np.ndarray:
    """e!/(e-t)! for 0 <= t <= e <= dmax as Python ints (object array, read-only)."""
    table = np.array([[math.perm(e, t) for t in range(dmax + 1)] for e in range(dmax + 1)], dtype=object)
    table.flags.writeable = False
    return table


def _poly_eval(E, A, z):
    """sum_r A[r] z^E[r] at the points z (shape (..., n)) for an exponent
    matrix E (rows of n ints) and a coefficient matrix A (rows in C^m)."""
    n, m = E.shape[1], A.shape[1]
    flat = z.reshape(-1, n)
    out = np.zeros((flat.shape[0], m), dtype=complex)
    if len(E):
        dmax = int(E.max())
        for lo in range(0, flat.shape[0], _EVAL_CHUNK):
            out[lo:lo + _EVAL_CHUNK] = _monomials(_power_table(flat[lo:lo + _EVAL_CHUNK], dmax), E) @ A
    return out.reshape(z.shape[:-1] + (m,))


class HoloMap:
    """A holomorphic map B_n -> C^m, evaluated on arrays of shape (..., n)."""

    n: int
    m: int
    kind: str = "holomap"

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        if z.ndim == 0 or z.shape[-1] != self.n:
            raise MapDomainError(f"expected points of shape (..., {self.n})")
        check_inside_ball(z)
        return self._eval(z)

    __call__ = eval

    def _eval(self, z):  # pragma: no cover - interface
        raise NotImplementedError

    def describe(self) -> str:
        return f"{self.kind}(n={self.n}, m={self.m})"


class PolyMap(HoloMap):
    """Sparse polynomial map: f(z) = sum_alpha a_alpha z^alpha with a_alpha in C^m.

    Absent keys are zero coefficients.  `certificate_sum() <= 1` is a
    sufficient condition for the image to stay inside the closed unit ball;
    generators produce a strict margin.
    """

    kind = "poly"

    def __init__(self, n, m, coeffs, max_degree=None):
        self.n = int(n)
        self.m = int(m)
        table: dict[tuple[int, ...], np.ndarray] = {}
        for alpha, value in coeffs.items():
            key = mi.as_multiindex(alpha)
            if len(key) != self.n:
                raise ValueError(f"coefficient index {key} does not have dimension {self.n}")
            vec = np.asarray(value, dtype=complex).reshape(self.m)
            if np.any(vec != 0):
                table[key] = vec
        self.coeffs = {k: table[k] for k in sorted(table)}
        found = max((sum(k) for k in self.coeffs), default=0)
        self.max_degree = found if max_degree is None else int(max_degree)
        if found > self.max_degree:
            raise ValueError(f"coefficient of degree {found} exceeds max_degree={self.max_degree}")
        # exponent matrix (one row per key, in key order) and coefficient matrix
        self.E = np.array(list(self.coeffs), dtype=np.int64).reshape(-1, self.n)
        self.A = np.array(list(self.coeffs.values()), dtype=complex).reshape(-1, self.m)
        self._rows: dict[tuple[int, ...], tuple] = {}

    def _eval(self, z):
        return _poly_eval(self.E, self.A, z)

    def coefficient(self, alpha) -> np.ndarray:
        return self.coeffs.get(mi.as_multiindex(alpha), np.zeros(self.m, dtype=complex))

    def certificate_sum(self) -> float:
        """sum_alpha |a_alpha| (Euclidean norms); <= 1 certifies membership."""
        return float(sum(np.linalg.norm(c) for c in self.coeffs.values()))

    def _partial_rows(self, alphas) -> list[tuple]:
        """Exponent and coefficient matrices of the order-alpha partial for each
        alpha: the rows with E >= alpha, lowered by alpha and multiplied by one
        exact integer prod_j E_j!/(E_j - alpha_j)! (Python ints) each.  The
        alphas not built yet are built together and kept read-only on the map."""
        alphas = [mi.as_multiindex(a) for a in alphas]
        for a in alphas:
            if len(a) != self.n:
                raise ValueError(f"derivative order {a} does not have dimension {self.n}")
        missing = [a for a in dict.fromkeys(alphas) if a not in self._rows]
        if missing:
            shifts = np.array(missing, dtype=np.int64).reshape(-1, self.n)
            which, rows = np.nonzero((self.E >= shifts[:, None, :]).all(axis=2))
            E, T = self.E[rows], shifts[which]
            perms = _perm_table(int(self.E.max(initial=0)))
            factors = perms[E[:, 0], T[:, 0]]
            for j in range(1, self.n):
                factors = factors * perms[E[:, j], T[:, j]]
            A = self.A[rows] * np.array(factors, dtype=float).reshape(-1, 1)
            E = E - T
            E.flags.writeable = A.flags.writeable = False
            edges = np.cumsum([0] + np.bincount(which, minlength=len(missing)).tolist()).tolist()
            for a, lo, hi in zip(missing, edges, edges[1:]):
                self._rows[a] = E[lo:hi], A[lo:hi]
        return [self._rows[a] for a in alphas]

    def partial_value(self, z, v) -> np.ndarray:
        """Evaluate the exact order-v partial derivative at a single point z."""
        return self.partial_values(z, [v])[0]

    def partial_values(self, z, alphas) -> list[np.ndarray]:
        """Evaluate the exact order-alpha partial derivative at a single point z
        for each alpha in `alphas`, all from one power table of z.

        Every alpha's monomials come from one product over all rows, and each
        alpha then sums its own slice of shape (1, R) as `_poly_eval` does."""
        z = np.asarray(z, dtype=complex).reshape(self.n)
        check_inside_ball(z)
        rows = self._partial_rows(alphas)
        E = np.concatenate([self.E[:0]] + [E for E, _ in rows])
        mono = _monomials(_power_table(z[None, :], int(E.max()) if len(E) else 0), E)
        edges = np.cumsum([0] + [len(A) for _, A in rows]).tolist()
        return [(mono[:, lo:hi] @ A)[0] for (_, A), lo, hi in zip(rows, edges, edges[1:])]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "coeffs": [
                {"alpha": list(alpha), "re": c.real.tolist(), "im": c.imag.tolist()}
                for alpha, c in self.coeffs.items()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "PolyMap":
        coeffs = {
            tuple(entry["alpha"]): np.asarray(entry["re"], dtype=float) + 1j * np.asarray(entry["im"], dtype=float)
            for entry in payload["coeffs"]
        }
        return cls(payload["n"], payload["m"], coeffs)

    @classmethod
    def from_json(cls, text: str) -> "PolyMap":
        return cls.from_json_dict(json.loads(text))

    def describe(self) -> str:
        return f"poly(n={self.n}, m={self.m}, deg={self.max_degree}, terms={len(self.coeffs)})"


class ComposedMap(HoloMap):
    """An outer ball automorphism phi_a applied to an inner holomorphic map."""

    kind = "composed"

    def __init__(self, a, inner: HoloMap):
        a = np.asarray(a, dtype=complex).reshape(-1)
        if not sq_norm(a) < 1.0:  # NaN fails too
            raise MapDomainError("automorphism parameter must lie inside the unit ball")
        if a.shape[0] != inner.m:
            raise MapDomainError(f"automorphism dimension {a.shape[0]} does not match codomain {inner.m}")
        self.a = a
        self.inner_map = inner
        self.n = inner.n
        self.m = inner.m

    def _eval(self, z):
        return mobius_point(self.a, self.inner_map._eval(z))

    def describe(self) -> str:
        return f"composed(|a|={np.linalg.norm(self.a):.3f}, inner={self.inner_map.describe()})"


class LineMap(HoloMap):
    """One-variable restriction lambda -> f(z0 + lambda * beta).

    `radius` is the largest disk |lambda| < radius guaranteed to stay inside
    the domain ball; it is at least (1 - |z0|)/|beta|.
    """

    kind = "line"

    def __init__(self, base: HoloMap, z0, beta):
        self.base = base
        self.z0 = np.asarray(z0, dtype=complex).reshape(base.n)
        self.beta = np.asarray(beta, dtype=complex).reshape(base.n)
        bnorm2 = float(sq_norm(self.beta))
        if bnorm2 == 0.0:
            raise MapDomainError("direction must be non-zero")
        check_inside_ball(self.z0, "z0")
        p = abs(complex(hermitian_inner(self.beta, self.z0)))
        z2 = float(sq_norm(self.z0))
        # largest t with |z0|^2 + 2 t p + t^2 |beta|^2 = 1
        self.radius = (-p + math.sqrt(p * p + bnorm2 * (1.0 - z2))) / bnorm2
        self.n = 1
        self.m = base.m

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        if z.ndim == 0:
            z = z.reshape(1)
        if z.shape[-1] == 1 and z.ndim > 1:
            lam = z[..., 0]
        else:
            lam = z
        if not np.max(np.abs(lam)) < self.radius:
            raise MapDomainError(f"|lambda| must stay below the restriction radius {self.radius:.6f}")
        pts = self.z0 + lam[..., None] * self.beta
        return self.base._eval(pts)

    __call__ = eval


def random_polymap(n: int, m: int, degree: int, seed, margin: float = 0.05) -> PolyMap:
    """Seeded random member of the class of ball maps, certified by construction.

    Complex-Gaussian coefficients for all |alpha| <= degree are rescaled so
    that sum_alpha |a_alpha| = 1 - margin, which keeps the image strictly
    inside the unit ball.  Deterministic given (n, m, degree, seed, margin).
    """
    if not 0.0 < margin < 1.0:
        raise ValueError("margin must lie in (0, 1)")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    coeffs = {}
    for alpha in mi.enumerate_up_to(n, degree):
        coeffs[alpha] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    total = sum(np.linalg.norm(c) for c in coeffs.values())
    scale = (1.0 - margin) / total
    return PolyMap(n, m, {a: c * scale for a, c in coeffs.items()}, max_degree=degree)


class CoefficientChecks:
    """Left sides and slacks of the power-series coefficient inequalities.

    For f = sum a_alpha z^alpha mapping into the unit ball and a unit vector
    beta, the following hold:

      boundary_power_sum    sum |a_alpha|^2 |beta^(2 alpha)|            <= 1
      weighted_power_sum    sum |a_alpha|^2 v^alpha / |v|^|alpha|       <= 1
      single_coefficient    |a_v|                                       <= sqrt(|v|^|v|/v^v)
      slice_power_sum       sum_k |sum_{|alpha|=k} a_alpha beta^alpha|^2 <= 1
    """

    def __init__(self, boundary_power_sum, weighted_power_sum, single_coefficient,
                 single_coefficient_bound, slice_power_sum):
        self.boundary_power_sum = boundary_power_sum
        self.weighted_power_sum = weighted_power_sum
        self.single_coefficient = single_coefficient
        self.single_coefficient_bound = single_coefficient_bound
        self.slice_power_sum = slice_power_sum

    @property
    def boundary_slack(self):
        return 1.0 - self.boundary_power_sum

    @property
    def weighted_slack(self):
        return 1.0 - self.weighted_power_sum

    @property
    def single_slack(self):
        return self.single_coefficient_bound - self.single_coefficient

    @property
    def slice_slack(self):
        return 1.0 - self.slice_power_sum

    def min_slack(self):
        return min(self.boundary_slack, self.weighted_slack, self.single_slack, self.slice_slack)


def coefficient_checks(f: PolyMap, v, beta) -> CoefficientChecks:
    """Evaluate the four coefficient inequalities for a polynomial ball map.

    beta must be a unit vector (within 1e-12); v must be non-zero.
    """
    if not isinstance(f, PolyMap):
        raise TypeError("coefficient checks require a polynomial coefficient table")
    v = mi.as_multiindex(v)
    if len(v) != f.n:
        raise ValueError(f"multi-index {v} does not have dimension {f.n}")
    kv = sum(v)
    if kv == 0:
        raise ValueError("v must be a non-zero multi-index")
    beta = np.asarray(beta, dtype=complex).reshape(f.n)
    if abs(math.sqrt(float(sq_norm(beta))) - 1.0) > 1e-12:
        raise MapDomainError("beta must be a unit vector")

    c2 = np.linalg.norm(f.A, axis=1) ** 2
    degrees = f.E.sum(axis=1)
    boundary = np.prod((np.abs(beta) ** 2) ** f.E, axis=1)
    weights = np.prod(np.array(v, dtype=float) ** f.E, axis=1) / float(kv) ** degrees
    slices = np.zeros((degrees.max(initial=0) + 1, f.m), dtype=complex)
    np.add.at(slices, degrees, f.A * np.prod(beta ** f.E, axis=1)[:, None])
    return CoefficientChecks(
        boundary_power_sum=float(np.sum(c2 * boundary)),
        weighted_power_sum=float(np.sum(c2 * weights)),
        single_coefficient=float(np.linalg.norm(f.coefficient(v))),
        single_coefficient_bound=math.sqrt(mi.sharpness_factor(v)),
        slice_power_sum=float(np.sum(np.linalg.norm(slices, axis=1) ** 2)),
    )
