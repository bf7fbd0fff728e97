import math

import pytest
from hypothesis import given, settings, strategies as st

from schwarzpick import multiindex as mi


@pytest.mark.parametrize("alpha,expected", [
    ((0, 0, 0), 0),
    ((2, 1), 3),
    ((1, 0, 4), 5),
])
def test_degree(alpha, expected):
    assert sum(mi.as_multiindex(list(alpha))) == expected


def test_degree_rejects_negative_entries():
    with pytest.raises(ValueError):
        mi.as_multiindex((1, -2))


@pytest.mark.parametrize("alpha,expected", [
    ((5,), 1),
    ((1, 1), 2),
    ((2, 1), 3),
])
def test_multinomial_weight_small(alpha, expected):
    assert mi.multinomial_weight(alpha) == expected


def test_multinomial_weight_large_degree_is_exact():
    # 30!/(15! 15!) = C(30, 15) in integer arithmetic up to MAX_DEGREE
    assert mi.multinomial_weight((15, 15)) == math.comb(30, 15)
    assert mi.multinomial_weight((32, 32)) == math.comb(64, 32)


def test_multinomial_weight_capacity():
    with pytest.raises(mi.CapacityError):
        mi.multinomial_weight((65,))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_sharpness_factor_single_axis_is_one(k):
    assert mi.sharpness_factor((k, 0, 0)) == 1.0


def test_sharpness_factor_values():
    assert mi.sharpness_factor((1, 1)) == 4.0
    assert mi.sharpness_factor((2, 1)) == 6.75


def test_sharpness_factor_rejects_zero_index():
    with pytest.raises(ValueError):
        mi.sharpness_factor((0, 0))


def test_sharpness_factor_rejects_degree_above_max():
    with pytest.raises(mi.CapacityError, match=f"^degree {mi.MAX_DEGREE + 1} exceeds the supported maximum"):
        mi.sharpness_factor((mi.MAX_DEGREE, 1))


@pytest.mark.parametrize("n, k, message", [(0, 1, "dimension must be an int >= 1, got 0"),
                                            (2, -1, "derivative order must be a non-negative int, got -1")],
                         ids=["dimension-0", "degree-negative"])
def test_enumerate_rejects_bad_dimension_or_degree(n, k, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        mi.enumerate_indices(n, k)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("n, k", [(2, True), (2, 2.0), (True, 2), (2.0, 2)],
                         ids=["bool-degree", "integral-float-degree", "bool-dimension", "integral-float-dimension"])
def test_enumerate_rejects_what_is_not_an_int_before_its_cache(n, k, warm):
    # 2.0 == 2 and True == 1 hash equal, so a check behind the cache passed once a valid twin was cached
    mi._enumerate.cache_clear()
    if warm:
        mi.enumerate_indices(int(n), int(k))
    with pytest.raises(ValueError, match="must be"):
        mi.enumerate_indices(n, k)
    with pytest.raises(ValueError, match="must be"):
        mi.enumerate_up_to(n, k)


def test_sharpness_factor_large_degree():
    # (60^60)/(30^30 * 30^30) = 2^60 exactly
    assert mi.sharpness_factor((30, 30)) == 2.0 ** 60


def test_enumerate_examples():
    assert mi.enumerate_indices(1, 3) == [(3,)]
    assert mi.enumerate_indices(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert mi.enumerate_indices(3, 1) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_enumerate_counts_and_order():
    for n in range(1, 5):
        for k in range(7):
            idx = mi.enumerate_indices(n, k)
            assert len(idx) == math.comb(n + k - 1, n - 1)
            assert idx == sorted(idx)
            assert all(sum(a) == k for a in idx)


@given(st.lists(st.floats(min_value=0.01, max_value=2.0), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=6))
@settings(deadline=None)
def test_multinomial_theorem(xs, k):
    total = sum(mi.multinomial_weight(a) * math.prod(x ** e for x, e in zip(xs, a))
                for a in mi.enumerate_indices(len(xs), k))
    expected = sum(xs) ** k
    assert total == pytest.approx(expected, rel=1e-10)


def test_sharpness_factor_bounds_and_equality_cases():
    for n in range(1, 4):
        for k in range(1, 7):
            for v in mi.enumerate_indices(n, k):
                factor = mi.sharpness_factor(v)
                assert factor >= 1.0
                assert factor <= float(n) ** k + 1e-9
                single_axis = sum(1 for x in v if x > 0) == 1
                if single_axis:
                    assert factor == 1.0
                else:
                    assert factor > 1.0


def test_sharpness_factor_monotone_under_componentwise_order():
    for n in range(1, 4):
        for kv in range(1, 7):
            for v in mi.enumerate_indices(n, kv):
                fv = mi.sharpness_factor(v)
                for ka in range(1, kv + 1):
                    for a in mi.enumerate_indices(n, ka):
                        if all(ai <= vi for ai, vi in zip(a, v)):
                            assert mi.sharpness_factor(a) <= fv + 1e-12
