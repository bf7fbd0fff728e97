"""Unit-ball geometry: the invariant metric, ball automorphisms, and the
closed-form map families that attain (or asymptotically attain) the
derivative bounds."""
from __future__ import annotations

import cmath
import math

import numpy as np

from . import multiindex as mi
from .holomap import (
    HoloMap,
    MapDomainError,
    PolyMap,
    _monomial,
    as_ball_point,
    as_direction,
    hermitian_inner,
    mobius_point,
    sq_norm,
)


def bergman_metric(z, beta) -> float:
    """H_z(beta, beta) = [(1-|z|^2)|beta|^2 + |<beta,z>|^2] / (1-|z|^2)^2.

    Invariant under ball automorphisms; the common (n+1)/2 normalisation
    factor is deliberately omitted.
    """
    z = as_ball_point(z)
    beta = as_direction(beta, z.shape[0], nonzero=False)
    q = 1.0 - float(sq_norm(z))
    ip = abs(complex(hermitian_inner(beta, z)))
    return (q * float(sq_norm(beta)) + ip * ip) / q ** 2


def _projection_matrices(a: np.ndarray):
    m = a.shape[0]
    eye = np.eye(m, dtype=complex)
    a2 = float(sq_norm(a))
    if a2 == 0.0:
        return np.zeros((m, m), dtype=complex), eye
    proj = np.outer(a, np.conj(a)) / a2
    return proj, eye - proj


def moebius_jacobian(a, at: str = "origin") -> np.ndarray:
    """Holomorphic Jacobian of phi_a at the origin or at a, as an m x m matrix.

    phi_a'(0) = -(1-|a|^2) P_a - sqrt(1-|a|^2) Q_a
    phi_a'(a) = -P_a/(1-|a|^2) - Q_a/sqrt(1-|a|^2)

    The two matrices multiply to the identity (chain rule on the involution).
    """
    a = as_ball_point(a)
    proj, comp = _projection_matrices(a)
    a2 = float(sq_norm(a))
    s = math.sqrt(1.0 - a2)
    if at == "origin":
        return -(1.0 - a2) * proj - s * comp
    if at == "a":
        return -proj / (1.0 - a2) - comp / s
    raise ValueError("at must be 'origin' or 'a'")


class AutomorphismMap(HoloMap):
    """phi_a as a holomorphic self-map of the ball (n = m)."""

    kind = "automorphism"

    def __init__(self, a):
        self.a = as_ball_point(a)
        self.n = self.m = self.a.shape[0]

    def _eval(self, z):
        return mobius_point(self.a, z)

    def describe(self) -> str:
        return f"automorphism(|a|={math.sqrt(sq_norm(self.a)):.3f}, n={self.n})"


def origin_equality_gap(a0, av, v) -> float:
    """Signed gap of the origin coefficient bound:
    |<a_v,a_0>|^2 + (1-|a_0|^2)|a_v|^2 - (|v|^|v|/v^v)(1-|a_0|^2)^2."""
    a02 = float(sq_norm(a0))
    ip = abs(complex(hermitian_inner(av, a0)))
    lhs = ip * ip + (1.0 - a02) * float(sq_norm(av))
    rhs = mi.sharpness_factor(v) * (1.0 - a02) ** 2
    return lhs - rhs


class ExtremalOriginMap(HoloMap):
    """f(z) = a0 + a_v z^v / (1 + <a_v,a0> z^v / (1-|a0|^2)).

    The unique shape attaining equality in the origin coefficient bound when
    every v_j is non-zero; its Taylor support is exactly the lattice
    {j*v : j >= 0}.  The parameters must satisfy the equality condition
    |<a_v,a0>|^2 + (1-|a0|^2)|a_v|^2 = (|v|^|v|/v^v)(1-|a0|^2)^2 within
    1e-12 relative.
    """

    kind = "extremal-origin"

    def __init__(self, a0, av, v):
        self.v = mi.as_multiindex(v)
        if sum(self.v) == 0:
            raise MapDomainError("v must be a non-zero multi-index")
        self.a0 = as_ball_point(a0)
        self.av = as_direction(av, self.a0.shape[0])
        a02 = float(sq_norm(self.a0))
        gap = origin_equality_gap(self.a0, self.av, self.v)
        if not abs(gap) <= 1e-12 * max(1.0, mi.sharpness_factor(self.v) * (1.0 - a02) ** 2):
            raise MapDomainError(f"(a0, a_v, v) do not satisfy the equality condition (gap {gap:.3e})")
        self.n = len(self.v)
        self.m = self.a0.shape[0]
        self._c = complex(hermitian_inner(self.av, self.a0)) / (1.0 - a02)

    def _eval(self, z):
        # one output column per codomain coordinate: bitwise a0 + av * q[..., None], without the broadcast
        zv = _monomial(z, self.v)
        q = zv / (1.0 + self._c * zv)
        out = np.empty(q.shape + (self.m,), dtype=complex)
        for j in range(self.m):
            out[..., j] = self.a0[j] + self.av[j] * q
        return out

    def describe(self) -> str:
        return f"extremal-origin(v={self.v}, |a0|={math.sqrt(sq_norm(self.a0)):.3f})"


def extremal_origin_from_direction(a0, direction, v) -> ExtremalOriginMap:
    """Scale a codomain direction to the exact equality locus and construct the map."""
    a0 = as_ball_point(a0)
    u = as_direction(direction, a0.shape[0])
    u = u / np.linalg.norm(u)
    a02 = float(sq_norm(a0))
    ip = abs(complex(hermitian_inner(u, a0)))
    t = (1.0 - a02) * math.sqrt(mi.sharpness_factor(v) / (ip * ip + 1.0 - a02))
    return ExtremalOriginMap(a0, t * u, v)


class ExtremalK1Map(HoloMap):
    """First-order extremal map with value w0 and Jacobian J at xi:

    f(z) = w0 + [ (1-<z,xi>)/(1-|xi|^2) + <J(z-xi), w0>/(1-|w0|^2) ]^(-1) J(z-xi)

    Valid when phi'_{w0}(w0) J phi'_xi(0) is a linear isometry of C^n into
    C^m, which requires n <= m; the metric pullback is then an exact equality
    at xi for every direction.  The isometry condition frame^H frame = I is
    checked within tol.
    """

    kind = "extremal-k1"

    _DENOM_GUARD = 1e-12

    def __init__(self, xi, w0, jac, tol: float = 1e-10):
        self.xi = as_ball_point(xi)
        self.w0 = as_ball_point(w0)
        self.jac = np.asarray(jac, dtype=complex)
        self.n = self.xi.shape[0]
        self.m = self.w0.shape[0]
        if self.n > self.m:
            raise MapDomainError("first-order extremal maps require n <= m")
        if self.jac.shape != (self.m, self.n):
            raise MapDomainError(f"Jacobian must have shape ({self.m}, {self.n})")
        frame = normalized_frame(self.xi, self.w0, self.jac)
        if not np.max(np.abs(np.conj(frame.T) @ frame - np.eye(self.n))) <= tol:
            raise MapDomainError("renormalised derivative is not an isometry")
        self._xi2 = float(sq_norm(self.xi))
        self._w02 = float(sq_norm(self.w0))

    def _eval(self, z):
        dz = z - self.xi
        jdz = dz @ self.jac.T
        denom = (1.0 - hermitian_inner(z, self.xi)) / (1.0 - self._xi2)
        denom = denom + hermitian_inner(jdz, self.w0) / (1.0 - self._w02)
        if np.min(np.abs(denom), initial=np.inf) <= self._DENOM_GUARD:
            raise MapDomainError("extremal map denominator vanished inside the ball")
        return self.w0 + jdz / denom[..., None]

    def describe(self) -> str:
        return f"extremal-k1(n={self.n}, m={self.m}, |xi|={math.sqrt(self._xi2):.3f})"


def normalized_frame(xi, w0, jac) -> np.ndarray:
    """phi'_{w0}(w0) . J . phi'_xi(0): the derivative of the map renormalised
    to fix the origin. An isometry exactly when the first-order bound is
    attained at xi in every direction."""
    jac = np.asarray(jac, dtype=complex)
    return moebius_jacobian(w0, at="a") @ jac @ moebius_jacobian(xi, at="origin")


def jacobian_from_frame(xi, w0, frame) -> np.ndarray:
    """Inverse of `normalized_frame`: the Jacobian whose renormalised frame is
    the given m x n matrix (use an isometry to hit the equality case)."""
    frame = np.asarray(frame, dtype=complex)
    return moebius_jacobian(w0, at="origin") @ frame @ moebius_jacobian(xi, at="a")


def _disk_point(x, what: str = "the pinned point", nonzero: bool = True) -> complex:
    """A scalar parameter of a remark family as a complex number:
    MapDomainError unless it lies inside the unit disk and, when `nonzero`,
    is non-zero."""
    x = complex(x)
    if nonzero and x == 0:
        raise MapDomainError(f"{what} must be non-zero (its argument sets the phase)")
    if not abs(x) < 1.0:  # NaN fails too
        raise MapDomainError(f"{what} must lie inside the unit disk")
    return x


class Remark2Map(HoloMap):
    """Disk-to-ball family f_w pinned to f_w(xi) = w whose derivative bound
    ratio tends to 1 as |w| -> 1.

    f_w(z) = g_w(-e^{-i theta} (xi - z)/(1 - conj(xi) z)) with theta = arg xi
    and g_w(u) = (w/|w|) (|w| - u)/(1 - |w| u).
    """

    kind = "remark2"

    def __init__(self, xi, w):
        self.xi = _disk_point(xi)
        self.w = as_ball_point(w)
        wnorm = math.sqrt(float(sq_norm(self.w)))
        if wnorm == 0.0:
            raise MapDomainError("w must lie in the punctured unit ball")
        self._wnorm = wnorm
        self._phase = cmath.exp(-1j * cmath.phase(self.xi))
        self.n = 1
        self.m = self.w.shape[0]

    def _eval(self, z):
        z0 = z[..., 0]
        u = -self._phase * (self.xi - z0) / (1.0 - np.conj(self.xi) * z0)
        scalar = (self._wnorm - u) / (1.0 - self._wnorm * u)
        return (self.w / self._wnorm) * scalar[..., None]

    def describe(self) -> str:
        return f"remark2(|xi|={abs(self.xi):.3f}, |w|={self._wnorm:.6f}, m={self.m})"


class Remark3Map(HoloMap):
    """Ball-to-disk family pinned to f(xi) = w on the z1-axis whose order-v
    partial at xi attains the radial bound up to the truncated binomial factor.

    f = g o phi_xi with g(y) = (w - s y^v)/(1 - conj(w) s y^v), s = sqrt(|v|^|v|/v^v).
    """

    kind = "remark3"

    def __init__(self, xi1, w, v):
        self.v = mi.as_multiindex(v)
        if sum(self.v) == 0:
            raise MapDomainError("v must be a non-zero multi-index")
        self.n = len(self.v)
        self.m = 1
        self.xi1 = _disk_point(xi1, nonzero=False)
        self.w = _disk_point(w, "w", nonzero=False)
        self._s = math.sqrt(mi.sharpness_factor(self.v))
        xi = np.zeros(self.n, dtype=complex)
        xi[0] = self.xi1
        self._auto = AutomorphismMap(xi)
        self._vexp = np.array(self.v)

    def _eval(self, z):
        u = self._s * np.prod(self._auto._eval(z) ** self._vexp, axis=-1)
        return ((self.w - u) / (1.0 - np.conj(self.w) * u))[..., None]

    def describe(self) -> str:
        return f"remark3(v={self.v}, |xi|={abs(self.xi1):.3f}, |w|={abs(self.w):.3f})"


class Remark4Map(HoloMap):
    """Ball-to-disk family pinned to f(xi) = w on the z1-axis whose k-th
    z1-derivative bound ratio tends to 1 as |w| -> 1.

    f(z) = (w + e^{-i theta} y1)/(1 + conj(w) e^{-i theta} y1) with
    y1 = (xi1 - z1)/(1 - conj(xi1) z1) and theta = arg xi1 - arg w.
    """

    kind = "remark4"

    def __init__(self, xi1, w, n=1):
        self.xi1 = _disk_point(xi1)
        self.w = _disk_point(w, "w")
        if not (mi.is_order(n) and n >= 1):
            raise MapDomainError(f"n must be an int >= 1, got {n!r}")
        self.n = int(n)
        self.m = 1
        self._phase = cmath.exp(-1j * (cmath.phase(self.xi1) - cmath.phase(self.w)))

    def _eval(self, z):
        y1 = (self.xi1 - z[..., 0]) / (1.0 - np.conj(self.xi1) * z[..., 0])
        u = self._phase * y1
        return ((self.w + u) / (1.0 + np.conj(self.w) * u))[..., None]

    def describe(self) -> str:
        return f"remark4(|xi|={abs(self.xi1):.3f}, |w|={abs(self.w):.6f}, n={self.n})"


def linear_plus_square_map() -> PolyMap:
    """The two-variable scalar map z1 + z2^2/3: attains the origin coefficient
    bound at v = (1,0) while carrying a coefficient outside the extremal shape."""
    return PolyMap(2, 1, {(1, 0): [1.0], (0, 2): [1.0 / 3.0]})


def tensor_power(n: int, m: int, d: int, rotation) -> PolyMap:
    """The proper map U z^(x)d, |f(z)| = |z|^d: z^alpha has the coefficient sqrt(d!/alpha!) U e_alpha,
    e_alpha the unit vector at alpha's place in `enumerate_indices(n, d)`.  MapDomainError unless
    d >= 1, m >= C(n+d-1, d) and the m x m `rotation` U is unitary within 1e-10."""
    n, m, d = mi.check_dimension(n), mi.check_dimension(m), mi.check_order(d)
    alphas = mi.enumerate_indices(n, d)
    if d < 1 or m < len(alphas):
        raise MapDomainError(f"z^(x){d} on C^{n} needs d >= 1 and m >= {len(alphas)}, got m = {m}")
    u = np.asarray(rotation, dtype=complex)
    if u.shape != (m, m) or not np.max(np.abs(np.conj(u.T) @ u - np.eye(m))) <= 1e-10:
        raise MapDomainError(f"rotation must be a {m} x {m} unitary matrix")
    return PolyMap(n, m, {alpha: math.sqrt(mi.multinomial_weight(alpha)) * u[:, j] for j, alpha in enumerate(alphas)})
