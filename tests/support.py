"""Test-only helpers shared by the test modules."""
import numpy as np

from schwarzpick import cauchy
from schwarzpick import multiindex as mi
from schwarzpick.holomap import HoloMap


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
