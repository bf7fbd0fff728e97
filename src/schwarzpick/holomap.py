"""Holomorphic maps from the unit ball of C^n into the unit ball of C^m.

The central representation is a sparse polynomial coefficient table
(`PolyMap`), which admits exact differentiation and serves as the ground
truth for the quadrature engine.  Closed-form families (automorphisms,
extremal maps) live in `geometry` and share the `HoloMap` interface; they
are only ever evaluated pointwise, never expanded into truncated series.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import multiindex as mi


class MapDomainError(ValueError):
    """An evaluation point or map parameter lies outside its required domain."""


#: Monomial values per `_poly_eval` chunk (512 KiB): the fastest of 2^13-2^17 at n = 1-4.
_EVAL_CHUNK = 1 << 15


def hermitian_inner(u, w):
    """<u, w> = sum_j u_j * conj(w_j), broadcasting over leading axes."""
    return (np.asarray(u) * np.conj(np.asarray(w))).sum(axis=-1)


def sq_norm(z):
    """sum_j |z_j|^2 along the last axis, added column by column in order:
    bitwise np.add.reduce(axis=-1) for the short last axes of this package,
    without the reduction's fixed cost.  The columns are the rows of the
    transpose.  A single float or complex vector adds its terms in order as
    Python floats, the same roundings without a numpy call per term."""
    z = np.asarray(z)
    if z.ndim == 1 and len(z) and z.dtype in (np.float64, np.complex128):
        values = z.tolist()
        acc = values[0].real * values[0].real + values[0].imag * values[0].imag
        for c in values[1:]:
            acc += c.real * c.real + c.imag * c.imag
        return np.float64(acc)
    columns = (z.real ** 2 + z.imag ** 2).T
    acc = columns[0]
    for j in range(1, len(columns)):
        acc = acc + columns[j]
    return acc.T


def check_inside_ball(z):
    sq = sq_norm(z)
    worst = float(sq.max(initial=0.0) if sq.ndim else sq)  # one point skips the reduction's fixed cost
    if not worst < 1.0:  # NaN fails too
        raise MapDomainError(f"z must lie strictly inside the unit ball (|z| = {math.sqrt(worst):.6f})")


def _vector(x, n: int | None, what: str) -> np.ndarray:
    """x as a complex vector (a 0-d x as one entry): MapDomainError unless it
    has at most one axis and n entries (any number when n is None)."""
    x = np.asarray(x, dtype=complex)
    if x.ndim > 1:
        raise MapDomainError(f"a {what} must be a vector, got shape {x.shape}")
    x = x.reshape(-1)
    if n is not None and x.shape[0] != n:
        raise MapDomainError(f"expected a {what} in C^{n}, got dimension {x.shape[0]}")
    return x


def as_ball_point(z, n: int | None = None) -> np.ndarray:
    """z as a complex vector: MapDomainError unless `_vector` takes it and it
    lies strictly inside the unit ball."""
    z = _vector(z, n, "point")
    check_inside_ball(z)
    return z


def as_direction(beta, n: int | None = None, nonzero: bool = True) -> np.ndarray:
    """beta as a complex vector: MapDomainError unless `_vector` takes it, its
    entries are finite and, when `nonzero`, it is non-zero."""
    beta = _vector(beta, n, "direction")
    if not np.isfinite(beta).all():
        raise MapDomainError("direction entries must be finite")
    if nonzero and sq_norm(beta) == 0.0:
        raise MapDomainError("direction must be non-zero")
    return beta


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


def _monomial(z, v) -> np.ndarray:
    """z^v at the points z (shape (..., n)) for one multi-index v, shape (...):
    each z_j^(v_j) by successive multiplication, the factors multiplied in
    the order of j.  Bitwise the value `_monomials(_power_table(z, max(v)), [v])`
    computes, but for the sign of a zero part, which that route's leading
    multiplication by 1 can flip; no (N, n, max(v) + 1) table is built."""
    mono = None
    for j, e in enumerate(v):
        if e:
            power = z[..., j]
            for _ in range(e - 1):
                power = power * z[..., j]
            mono = power if mono is None else mono * power
    return np.ones(z.shape[:-1], dtype=complex) if mono is None else mono


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
        dmax, step = int(E.max()), max(1, _EVAL_CHUNK // len(E))
        for lo in range(0, flat.shape[0], step):
            out[lo:lo + step] = _monomials(_power_table(flat[lo:lo + step], dmax), E) @ A
    return out.reshape(z.shape[:-1] + (m,))


def _coefficient_matrices(n: int, m: int, coeffs: dict) -> tuple[np.ndarray, np.ndarray]:
    """A coefficient table as an int64 exponent matrix and a complex coefficient
    matrix, one row per entry; each key is normalised as a multi-index and each
    value to m entries, or the first bad one raises ValueError."""
    keys, values = [], []
    for alpha, value in coeffs.items():
        keys.append(mi.as_multiindex_of(alpha, n))
        values.append(np.asarray(value, dtype=complex).reshape(m))
    return np.array(keys, dtype=np.int64).reshape(-1, n), np.array(values, dtype=complex).reshape(-1, m)


class HoloMap:
    """A holomorphic map B_n -> C^m, evaluated on arrays of shape (..., n)."""

    n: int
    m: int
    kind: str = "holomap"

    def eval(self, z):
        """f(z): MapDomainError unless z has shape (..., n) and lies in the unit ball."""
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

    Absent keys are zero coefficients.  sum_alpha |a_alpha| <= 1 (Euclidean
    norms) is a sufficient condition for the image to stay inside the closed
    unit ball; `random_polymap` produces a strict margin.
    """

    kind = "poly"

    def __init__(self, n, m, coeffs):
        self.n, self.m = mi.check_dimension(n), mi.check_dimension(m)
        E, A = _coefficient_matrices(self.n, self.m, coeffs)
        nonzero = (A != 0).any(axis=1)
        # exponent and coefficient matrices, one row per non-zero entry in key order
        order = np.lexsort(E[nonzero].T[::-1])  # the last key of lexsort sorts first
        self.E, self.A = E[nonzero][order], A[nonzero][order]
        self.coeffs = dict(zip(map(tuple, self.E.tolist()), self.A))
        self.max_degree = int(self.E.sum(axis=1).max(initial=0))
        self._rows: dict[tuple[int, ...], tuple] = {}

    def _eval(self, z):
        return _poly_eval(self.E, self.A, z)

    def coefficient(self, alpha) -> np.ndarray:
        return self.coeffs.get(mi.as_multiindex_of(alpha, self.n), np.zeros(self.m, dtype=complex))

    def _partial_rows(self, alphas) -> list[tuple]:
        """Exponent and coefficient matrices of the order-alpha partial for each
        alpha: the rows with E >= alpha, lowered by alpha and multiplied by one
        exact integer prod_j E_j!/(E_j - alpha_j)! (Python ints) each.  The
        alphas not built yet are built together and kept read-only on the map."""
        alphas = [mi.as_multiindex_of(a, self.n) for a in alphas]
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

    def partial_values(self, z, alphas) -> list[np.ndarray]:
        """Evaluate the exact order-alpha partial derivative at a single point z
        for each alpha in `alphas`, all from one power table of z.

        Every alpha's monomials come from one product over all rows, and each
        alpha then sums its own slice of shape (1, R) as `_poly_eval` does."""
        z = as_ball_point(z, self.n)
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

    @classmethod
    def from_json_dict(cls, payload: dict) -> "PolyMap":
        coeffs = {
            tuple(entry["alpha"]): np.asarray(entry["re"], dtype=float) + 1j * np.asarray(entry["im"], dtype=float)
            for entry in payload["coeffs"]
        }
        return cls(payload["n"], payload["m"], coeffs)

    def describe(self) -> str:
        return f"poly(n={self.n}, m={self.m}, deg={self.max_degree}, terms={len(self.coeffs)})"


class LineMap(HoloMap):
    """One-variable restriction lambda -> f(z0 + lambda * radius * beta),
    normalised to the unit disk, the domain of every map.

    `radius` is the largest R such that z0 + lambda beta stays in the domain
    ball for every |lambda| < R, at least (1 - |z0|)/|beta|; the attribute
    `beta` holds radius * beta.
    """

    kind = "line"

    def __init__(self, base: HoloMap, z0, beta):
        self.base = base
        self.z0 = as_ball_point(z0, base.n)
        beta = as_direction(beta, base.n)
        bnorm2 = float(sq_norm(beta))
        p = abs(complex(hermitian_inner(beta, self.z0)))
        z2 = float(sq_norm(self.z0))
        # largest t with |z0|^2 + 2 t p + t^2 |beta|^2 = 1
        self.radius = (-p + math.sqrt(p * p + bnorm2 * (1.0 - z2))) / bnorm2
        self.beta = self.radius * beta
        self.n = 1
        self.m = base.m

    def _eval(self, z):
        return self.base._eval(self.z0 + z * self.beta)


def random_polymap(n: int, m: int, degree: int, seed, margin: float = 0.05) -> PolyMap:
    """Seeded random member of the class of ball maps, certified by construction.

    Complex-Gaussian coefficients for all |alpha| <= degree are rescaled so
    that sum_alpha |a_alpha| = 1 - margin, which keeps the image strictly
    inside the unit ball.  Deterministic given (n, m, degree, seed, margin).
    """
    if not 0.0 < margin < 1.0:
        raise ValueError("margin must lie in (0, 1)")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    alphas = mi.enumerate_up_to(n, degree)
    draws = rng.standard_normal((len(alphas), 2, m))  # per alpha: m real parts, then m imaginary parts
    coeffs = draws[:, 0] + 1j * draws[:, 1]
    # one norm per row: a norm along axis 1 differs in the last bit for some rows
    total = sum(np.linalg.norm(c) for c in coeffs)
    return PolyMap(n, m, dict(zip(alphas, coeffs * ((1.0 - margin) / total))))

