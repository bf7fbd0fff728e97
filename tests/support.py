"""Test-only helpers shared by the test modules, and the closed-form oracles
the tests compare the package against; no oracle goes through `cauchy`."""
import cmath
import math
from typing import NamedTuple

import numpy as np

from schwarzpick import bounds, cauchy
from schwarzpick import multiindex as mi
from schwarzpick.holomap import HoloMap, PolyMap


class OpaqueMap(HoloMap):
    """Wraps a map and hides its type, so the derivative layer takes the
    slice route even for a `PolyMap`; values are the wrapped map's, bitwise."""

    def __init__(self, inner):
        self.inner, self.n, self.m = inner, inner.n, inner.m

    def _eval(self, z):
        return self.inner._eval(z)


def jacobian(f, z) -> np.ndarray:
    """Holomorphic Jacobian of f at z (m x n), column j = df/dz_j, stacked
    from the order-1 partial bundle."""
    bundle = cauchy.partial_bundle(f, z, 1)
    return np.stack([bundle[e] for e in mi.enumerate_indices(f.n, 1)[::-1]], axis=1)


def identity_polymap(n: int) -> PolyMap:
    coeffs = {}
    for j in range(n):
        alpha = tuple(1 if i == j else 0 for i in range(n))
        coeffs[alpha] = np.eye(n)[j]
    return PolyMap(n, n, coeffs)


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
        closed = vfact * bounds.mu_factor(v, xi_abs) / (1.0 - xi_abs ** 2) ** ((v1 + k) / 2.0)
    else:
        raise ValueError("variant must be 'disk' or 'radial'")
    return AjCoefficients(orders=orders, magnitudes=mags,
                          term_sum=float(sum(mags)), closed_form=closed)


def remark2_derivative(xi, w, k: int) -> np.ndarray:
    """Closed form of the k-th derivative of the remark2 family at its pinned point:

    f_w^(k)(xi) = -e^{-ik arg xi} k! (1-|w|^2) (|w|+|xi|)^(k-1) / (1-|xi|^2)^k * w/|w|.
    """
    xi = complex(xi)
    w = np.asarray(w, dtype=complex).reshape(-1)
    wn = float(np.linalg.norm(w))
    phase = cmath.exp(-1j * k * cmath.phase(xi))
    mag = math.factorial(k) * (1.0 - wn * wn) * (wn + abs(xi)) ** (k - 1) / (1.0 - abs(xi) ** 2) ** k
    return -phase * mag * w / wn


def remark3_derivative(xi1, w, v) -> complex:
    """Closed form of the order-v partial of the remark3 family at its pinned point:

    (-1)^(|v|+1) sqrt(|v|^|v|/v^v) v! (1-|w|^2) / (1-|xi|^2)^((v1+|v|)/2).
    """
    v = mi.as_multiindex(v)
    k = sum(v)
    s = math.sqrt(mi.sharpness_factor(v))
    mag = s * mi.multiindex_factorial(v) * (1.0 - abs(complex(w)) ** 2)
    mag /= (1.0 - abs(complex(xi1)) ** 2) ** ((v[0] + k) / 2.0)
    return (-1.0) ** (k + 1) * mag


def remark4_derivative(xi1, w, k: int) -> complex:
    """Closed form of the k-th z1-derivative of the remark4 family at its pinned point:

    -k! (1-|w|^2) (|w|+|xi|)^(k-1) / (1-|xi|^2)^k * (w/|w|) e^{-ik arg xi}.
    """
    xi1 = complex(xi1)
    w = complex(w)
    mag = math.factorial(k) * (1.0 - abs(w) ** 2) * (abs(w) + abs(xi1)) ** (k - 1) / (1.0 - abs(xi1) ** 2) ** k
    return -mag * (w / abs(w)) * cmath.exp(-1j * k * cmath.phase(xi1))
