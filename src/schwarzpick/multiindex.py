"""Multi-index arithmetic and the combinatorial factors shared by every bound."""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

#: Hard cap on supported degrees; bounds above this are astronomically loose.
MAX_DEGREE = 64


class CapacityError(ValueError):
    """A requested multi-index degree exceeds the supported range."""


def is_order(x) -> bool:
    """The rule for orders and multi-index entries: a non-negative int or numpy integer, not a bool."""
    return not isinstance(x, bool) and isinstance(x, (int, np.integer)) and x >= 0


def check_order(order) -> int:
    """A derivative order as an int: ValueError unless `is_order`,
    CapacityError above MAX_DEGREE."""
    if not is_order(order):
        raise ValueError(f"derivative order must be a non-negative int, got {order!r}")
    if order > MAX_DEGREE:
        raise CapacityError(f"degree {order} exceeds the supported maximum {MAX_DEGREE}")
    return int(order)


def check_dimension(n) -> int:
    """A dimension as an int: ValueError unless `is_order` and at least 1."""
    if not (is_order(n) and n >= 1):
        raise ValueError(f"dimension must be an int >= 1, got {n!r}")
    return int(n)


def as_multiindex(alpha) -> tuple[int, ...]:
    """Normalise to a tuple of ints, each entry checked by `is_order`."""
    if type(alpha) is tuple and alpha and all(type(a) is int and a >= 0 for a in alpha):
        return alpha
    out = tuple(alpha)
    if len(out) == 0:
        raise ValueError("multi-index must have at least one entry")
    if not all(is_order(a) for a in out):
        raise ValueError(f"multi-index entries must be non-negative integers, got {out}")
    return tuple(int(a) for a in out)


def as_multiindex_of(alpha, n: int) -> tuple[int, ...]:
    """`as_multiindex(alpha)`: ValueError unless it has n entries."""
    alpha = as_multiindex(alpha)
    if len(alpha) != n:
        raise ValueError(f"multi-index {alpha} does not have dimension {n}")
    return alpha


def multinomial_weight(alpha) -> int:
    """The weight |alpha|!/alpha! attached to each term of the order-k
    directional derivative, as an exact integer; CapacityError beyond
    MAX_DEGREE.
    """
    a = as_multiindex(alpha)
    k = check_order(sum(a))
    num = math.factorial(k)
    for aj in a:
        num //= math.factorial(aj)
    return num


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
    check_order(k)
    den = 1
    for aj in a:
        den *= aj ** aj if aj > 0 else 1
    return (k ** k) / den


@lru_cache(maxsize=None, typed=True)
def _enumerate(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """`enumerate_indices(n, k)` as a tuple, n checked by `check_dimension`
    and k by `check_order` on the first call per typed key: 2.0 and True
    miss the entries of 2 and 1."""
    n, k = check_dimension(n), check_order(k)
    if n == 1:
        return ((k,),)
    return tuple((first,) + rest for first in range(k + 1) for rest in _enumerate(n - 1, k - first))


def enumerate_indices(n: int, k: int) -> list[tuple[int, ...]]:
    """All multi-indexes of dimension n and degree k in ascending lexicographic order.

    The ordering is part of the public contract: reports and coefficient
    tables iterate in this order.
    """
    return list(_enumerate(n, k))


def enumerate_up_to(n: int, max_degree: int, include_zero: bool = True) -> list[tuple[int, ...]]:
    """All multi-indexes of dimension n with degree <= max_degree, by degree then lex."""
    out: list[tuple[int, ...]] = []
    for k in range(0 if include_zero else 1, check_order(max_degree) + 1):
        out.extend(enumerate_indices(n, k))
    return out
