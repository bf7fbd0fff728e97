"""Multi-index arithmetic and the combinatorial factors shared by every bound."""
from __future__ import annotations

import math
from functools import lru_cache

#: Hard cap on supported degrees; bounds above this are astronomically loose.
MAX_DEGREE = 64

#: Degrees up to this limit use exact integer arithmetic, log-gamma above.
EXACT_DEGREE = 20


class CapacityError(ValueError):
    """A requested multi-index degree exceeds the supported range."""


def as_multiindex(alpha) -> tuple[int, ...]:
    """Normalise to a tuple of non-negative ints, rejecting anything else."""
    if type(alpha) is tuple and alpha and all(type(a) is int and a >= 0 for a in alpha):
        return alpha
    out = tuple(int(a) for a in alpha)
    if len(out) == 0:
        raise ValueError("multi-index must have at least one entry")
    if any(a != b for a, b in zip(out, alpha)) or any(a < 0 for a in out):
        raise ValueError(f"multi-index entries must be non-negative integers, got {tuple(alpha)}")
    return out


def degree(alpha) -> int:
    """Sum of the entries."""
    return sum(as_multiindex(alpha))


def multinomial_weight(alpha):
    """The weight |alpha|!/alpha! attached to each term of the order-k directional derivative.

    Exact integer for degrees <= EXACT_DEGREE, log-gamma float above,
    CapacityError beyond MAX_DEGREE.
    """
    a = as_multiindex(alpha)
    k = sum(a)
    if k > MAX_DEGREE:
        raise CapacityError(f"degree {k} exceeds the supported maximum {MAX_DEGREE}")
    if k <= EXACT_DEGREE:
        num = math.factorial(k)
        for aj in a:
            num //= math.factorial(aj)
        return num
    logw = math.lgamma(k + 1) - sum(math.lgamma(aj + 1) for aj in a)
    return math.exp(logw)


def multiindex_factorial(alpha) -> int:
    """alpha! = prod_j alpha_j!"""
    a = as_multiindex(alpha)
    out = 1
    for aj in a:
        out *= math.factorial(aj)
    return out


def sharpness_factor(v) -> float:
    """|v|^|v| / prod_j v_j^v_j with the convention 0^0 = 1.

    This is the constant separating the several-variable derivative bounds
    from the one-variable case; it equals 1 exactly when v has a single
    non-zero entry and never exceeds n^|v|.
    """
    a = as_multiindex(v)
    k = sum(a)
    if k == 0:
        raise ValueError("sharpness factor is undefined for the zero multi-index")
    if k > MAX_DEGREE:
        raise CapacityError(f"degree {k} exceeds the supported maximum {MAX_DEGREE}")
    if k <= EXACT_DEGREE:
        den = 1
        for aj in a:
            den *= aj ** aj if aj > 0 else 1
        return (k ** k) / den
    logf = k * math.log(k) - sum(aj * math.log(aj) for aj in a if aj > 0)
    return math.exp(logf)


@lru_cache(maxsize=None)
def _enumerate_cached(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    if n == 1:
        return ((k,),)
    out = []
    for first in range(k + 1):
        for rest in _enumerate_cached(n - 1, k - first):
            out.append((first,) + rest)
    return tuple(out)


def enumerate_indices(n: int, k: int) -> list[tuple[int, ...]]:
    """All multi-indexes of dimension n and degree k in ascending lexicographic order.

    The ordering is part of the public contract: reports and coefficient
    tables iterate in this order.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if k < 0:
        raise ValueError("degree must be non-negative")
    return list(_enumerate_cached(n, k))


def enumerate_up_to(n: int, max_degree: int, include_zero: bool = True) -> list[tuple[int, ...]]:
    """All multi-indexes of dimension n with degree <= max_degree, by degree then lex."""
    out: list[tuple[int, ...]] = []
    for k in range(0 if include_zero else 1, max_degree + 1):
        out.extend(enumerate_indices(n, k))
    return out


def index_count(n: int, k: int) -> int:
    """Number of dimension-n multi-indexes of degree k: C(n+k-1, n-1)."""
    return math.comb(n + k - 1, n - 1)
