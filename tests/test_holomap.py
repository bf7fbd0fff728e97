import json
import math
import re

import numpy as np
import pytest

from schwarzpick import bounds, cauchy, geometry, holomap
from schwarzpick import multiindex as mi
from schwarzpick.holomap import (
    HoloMap,
    LineMap,
    MapDomainError,
    PolyMap,
    random_polymap,
)
from support import Composition, identity_polymap, random_polymap_tables


def linear_plus_square():
    return PolyMap(2, 1, {(1, 0): [1.0], (0, 2): [1.0 / 3.0]})


class TestEval:
    def test_identity_map(self):
        f = identity_polymap(2)
        z = np.array([0.3, 0.4j])
        assert np.allclose(f.eval(z[None, :])[0], z, atol=1e-15)

    def test_linear_plus_square_value(self):
        f = linear_plus_square()
        got = f.eval(np.array([[0.5, 0.5]]))[0, 0]
        assert got == pytest.approx(0.5 + 0.25 / 3.0, abs=1e-15)

    def test_constant_map(self):
        f = PolyMap(2, 2, {(0, 0): [0.3, 0.4j]})
        for z in ([0.0, 0.0], [0.5, 0.1j], [-0.2, 0.6]):
            assert np.allclose(f.eval(np.array([z]))[0], [0.3, 0.4j])

    def test_rejects_points_outside_ball(self):
        f = identity_polymap(2)
        with pytest.raises(MapDomainError):
            f.eval(np.array([[0.8, 0.8]]))

    @pytest.mark.parametrize("z", [np.zeros(3), np.zeros((4, 1)), np.array(0.0)], ids=["3", "4x1", "0-d"])
    def test_rejects_points_of_wrong_width(self, z):
        with pytest.raises(MapDomainError, match=r"shape \(\.\.\., 2\)"):
            identity_polymap(2).eval(z)

    def test_rejects_nan_points(self):
        # nan >= 1 is False, so every inside-the-ball check is written as not (x < 1)
        z = np.array([np.nan, 0.0])
        checks = (lambda: identity_polymap(2).eval(z[None, :]), lambda: geometry.as_ball_point(z),
                  lambda: cauchy.max_uniform_radius(z),
                  lambda: LineMap(identity_polymap(2), np.zeros(2), np.ones(2)).eval(np.array([np.nan])))
        for check in checks:
            with pytest.raises(MapDomainError):
                check()

    @pytest.mark.parametrize("f", [
        identity_polymap(2),
        Composition(geometry.AutomorphismMap(np.array([0.3, 0.1j])), random_polymap(2, 2, 3, seed=1)),
        LineMap(random_polymap(2, 3, 3, seed=2), np.array([0.2, 0.1j]), np.array([1.0, -0.5j])),
        geometry.AutomorphismMap(np.array([0.3, 0.1j, 0.2])),
        geometry.extremal_origin_from_direction(np.array([0.3, 0.1j]), np.array([1.0, 0.4]), (1, 1)),
        geometry.ExtremalK1Map(np.array([0.2, 0.1j]), np.array([0.1, 0.3, 0.0]),
                               geometry.jacobian_from_frame(np.array([0.2, 0.1j]), np.array([0.1, 0.3, 0.0]),
                                                            np.eye(3, 2))),
        geometry.Remark2Map(0.5, np.array([0.8, 0.1])),
        geometry.Remark3Map(0.45, 0.5, (1, 1)),
        geometry.Remark4Map(0.45, 0.6, n=2),
    ], ids=["poly", "composed", "line", "automorphism", "extremal-origin", "extremal-k1", "remark2", "remark3",
            "remark4"])
    def test_empty_batch_evaluates_and_nan_still_fails(self, f):
        # the domain check reduced an empty batch with max(), which has no identity
        for shape in ((0, f.n), (3, 0, f.n)):
            assert f.eval(np.zeros(shape)).shape == shape[:-1] + (f.m,)
        with pytest.raises(MapDomainError, match="unit ball"):
            f.eval(np.full((2, f.n), np.nan))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_chunked_evaluation_is_bitwise_one_evaluation(self, monkeypatch, n):
        # the maps and grid size of the slice tests (m = 2, at most 126 monomials); for m = 1,
        # or more monomials, the BLAS product can round a row differently in another chunk
        f = random_polymap(n, 2, 5, seed=30 + n)
        rng = np.random.default_rng(n)
        g = rng.standard_normal((16000, n)) + 1j * rng.standard_normal((16000, n))
        z = 0.95 * g / np.linalg.norm(g, axis=1, keepdims=True) * rng.uniform(size=(16000, 1)) ** (1 / (2 * n))
        values = f.eval(z)
        for chunk in (1 << 13, 1 << 14, 1 << 16, 1 << 17, 1 << 20, 126 << 16):  # the last: 65,536 points at n = 4
            monkeypatch.setattr(holomap, "_EVAL_CHUNK", chunk)
            assert f.eval(z).tobytes() == values.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_monomial_is_the_power_table_monomial(self, n):
        # the extremal maps' z^v: bitwise what a PolyMap evaluates, and within rounding of
        # np.prod(z ** v), which numpy does not evaluate by multiplication
        rng = np.random.default_rng(90 + n)
        g = rng.standard_normal((40, 5, n)) + 1j * rng.standard_normal((40, 5, n))
        z = 0.95 * g / np.linalg.norm(g, axis=-1, keepdims=True) * rng.uniform(size=(40, 5, 1)) ** (1 / (2 * n))
        for v in mi.enumerate_up_to(n, 8):
            mono = holomap._monomial(z, v)
            assert mono.shape == z.shape[:-1]
            table = holomap._monomials(holomap._power_table(z.reshape(-1, n), max(v)), np.array([v]))
            assert mono.tobytes() == table.reshape(z.shape[:-1]).tobytes(), v
            power = np.prod(z ** np.array(v), axis=-1)
            assert np.all(np.abs(mono - power) <= 2e-15 * sum(v) * np.abs(power)), v


class TestPartial:
    def test_product_map(self):
        f = PolyMap(2, 1, {(1, 1): [1.0]})
        for z in ([0.0, 0.0], [0.3 - 0.2j, 0.5j]):
            assert f.partial_values(np.array(z), [(1, 1)])[0][0] == 1.0
        assert f.partial_values(np.array([0.3 - 0.2j, 0.5j]), [(1, 0)])[0][0] == 0.5j

    def test_linear_plus_square(self):
        f = linear_plus_square()
        assert f.partial_values(np.array([0.4, -0.2j]), [(0, 2)])[0][0] == pytest.approx(2.0 / 3.0, abs=0)
        assert f.partial_values(np.array([0.4, -0.2j]), [(0, 1)])[0][0] == pytest.approx(-0.4j / 3.0, rel=1e-15)
        assert f.partial_values(np.array([0.4, -0.2j]), [(1, 1)])[0][0] == 0.0

    def test_zero_order_is_identity(self):
        f = random_polymap(2, 2, 3, seed=11)
        z = np.array([0.3 - 0.1j, 0.2 + 0.4j])
        assert np.array_equal(f.partial_values(z, [(0, 0)])[0], f.eval(z[None])[0])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_partial_value_is_bitwise_the_table_value(self, n):
        # the derivative's coefficient table, built here term by term:
        # a_(alpha+v) prod_j (alpha_j+v_j)!/alpha_j! at alpha
        f = random_polymap(n, 2, 6, seed=40 + n)
        rng = np.random.default_rng(n)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z *= 0.7 / np.linalg.norm(z)
        for v in mi.enumerate_up_to(n, 4):
            table = {tuple(e - s for e, s in zip(alpha, v)):
                     c * float(math.prod(math.perm(e, s) for e, s in zip(alpha, v)))
                     for alpha, c in f.coeffs.items() if all(e >= s for e, s in zip(alpha, v))}
            assert np.array_equal(f.partial_values(z, [v])[0], PolyMap(n, 2, table).eval(z[None])[0])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shifted_rows_built_together_are_bitwise_the_row_loop(self, n):
        f = random_polymap(n, 3, 6, seed=70 + n)
        orders = mi.enumerate_up_to(n, 5)
        for alpha, (E, A) in zip(orders, f._partial_rows(orders)):
            # one alpha at a time: keep, then one exact integer factor per row
            keep = np.all(f.E >= alpha, axis=1)
            factors = [math.prod(math.perm(e, t) for e, t in zip(row, alpha)) for row in f.E[keep].tolist()]
            assert E.tobytes() == (f.E[keep] - alpha).tobytes()
            assert A.tobytes() == (f.A[keep] * np.array(factors, dtype=float).reshape(-1, 1)).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_partial_values_share_one_power_table_bitwise(self, n):
        # degree 3 with orders up to 4, so some alphas keep no rows
        f = random_polymap(n, 2, 3, seed=60 + n)
        rng = np.random.default_rng(10 + n)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z *= 0.8 / np.linalg.norm(z)
        orders = mi.enumerate_up_to(n, 4)
        values = f.partial_values(z, orders)
        for alpha, value in zip(orders, values):
            assert np.array_equal(value, f.partial_values(z, [alpha])[0])
            # the per-alpha power table the single-alpha evaluation once built
            [(E, A)] = f._partial_rows([alpha])
            assert np.array_equal(value, holomap._poly_eval(E, A, z[None, :])[0])

    @pytest.mark.parametrize("z, message", [(np.zeros(3), "^expected a point in C\\^2, got dimension 3$"),
                                            (np.zeros(1), "^expected a point in C\\^2, got dimension 1$"),
                                            (np.zeros((2, 2)), "^a point must be a vector, got shape \\(2, 2\\)$")],
                             ids=["3", "1", "2x2"])
    def test_point_of_wrong_length_rejected(self, z, message):
        with pytest.raises(MapDomainError, match=message):
            random_polymap(2, 2, 3, seed=1).partial_values(z, [(1, 0)])

    @pytest.mark.parametrize("alpha", [(1,), (1, 0, 0)], ids=["short", "long"])
    def test_order_of_wrong_dimension_rejected(self, alpha):
        with pytest.raises(ValueError, match="^" + re.escape(f"multi-index {alpha} does not have dimension 2") + "$"):
            random_polymap(2, 2, 3, seed=1).partial_values(np.zeros(2), [(1, 0), alpha])


class TestRandomPolymap:
    def test_deterministic_given_seed(self):
        f = random_polymap(2, 3, 4, seed=99)
        g = random_polymap(2, 3, 4, seed=99)
        assert set(f.coeffs) == set(g.coeffs)
        for alpha in f.coeffs:
            assert np.array_equal(f.coeffs[alpha], g.coeffs[alpha])

    def test_certificate_normalisation(self):
        for seed in range(5):
            f = random_polymap(3, 2, 4, seed=seed, margin=0.05)
            assert sum(np.linalg.norm(c) for c in f.coeffs.values()) == pytest.approx(0.95, abs=1e-12)

    def test_values_stay_inside_ball(self):
        f = random_polymap(2, 2, 4, seed=5)
        rng = np.random.default_rng(0)
        g = rng.standard_normal((1000, 2)) + 1j * rng.standard_normal((1000, 2))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        z = g * rng.uniform(0, 1, size=(1000, 1)) ** 0.25
        norms = np.linalg.norm(f.eval(z), axis=1)
        assert norms.max() < 1.0

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            random_polymap(2, 2, 3, seed=0, margin=1.5)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_draw_is_the_per_alpha_draw_bitwise(self, n):
        for m in range(1, 5):
            for degree in range(1, 9):
                for margin in (0.05, 0.3):
                    seed = 1000 * n + 100 * m + degree
                    f = random_polymap(n, m, degree, seed=seed, margin=margin)
                    E, A, coeffs = random_polymap_tables(n, m, degree, seed, margin)
                    assert f.E.dtype == E.dtype and np.array_equal(f.E, E)
                    assert f.A.shape == A.shape and f.A.tobytes() == A.tobytes()
                    assert list(f.coeffs) == list(coeffs)
                    assert all(f.coeffs[k].tobytes() == c.tobytes() for k, c in coeffs.items())


class TestPolyMapTable:
    def test_zero_coefficients_dropped_and_keys_sorted(self):
        f = PolyMap(2, 2, {(0, 1): [0.0, 0.5], (1, 0): [0.0, 0.0], (0, 0): [0.25, 0.0], (2, 0): [0.0, np.nan]})
        assert list(f.coeffs) == [(0, 0), (0, 1), (2, 0)]  # NaN is not zero
        assert f.E.tolist() == [[0, 0], [0, 1], [2, 0]]
        assert all(type(a) is int for key in f.coeffs for a in key)
        assert f.max_degree == 2
        assert PolyMap(2, 2, {(1, 0): [0.0, 0.0]}).E.shape == (0, 2)
        assert PolyMap(2, 3, {}).A.shape == (0, 3)

    def test_coefficients_are_the_rows_of_A(self):
        f = random_polymap(3, 2, 4, seed=21)
        assert len(f.coeffs) == len(f.A) == len(f.E)
        for row, (alpha, c), e in zip(f.A, f.coeffs.items(), f.E.tolist()):
            assert alpha == tuple(e)
            assert c.tobytes() == row.tobytes() == f.coefficient(alpha).tobytes()
            assert f.coefficient(list(alpha)).tobytes() == row.tobytes()

    @pytest.mark.parametrize("alpha", [(1, 0, 0), (1,), (0, 0, 0)], ids=["long", "short", "long-zero"])
    def test_coefficient_of_wrong_dimension_rejected(self, alpha):
        with pytest.raises(ValueError, match="^" + re.escape(f"multi-index {alpha} does not have dimension 2") + "$"):
            random_polymap(2, 2, 3, seed=1).coefficient(alpha)

    @pytest.mark.parametrize("coeffs", [{(1,): [0.5, 0.0]}, {(1, 0, 0): [0.5, 0.0]}, {(1, 0): [0.5, 0.0], (1,): [0.1, 0.0]},
                                        {(1, 0): [0.5]}, {(1, 0): [0.5, 0.0, 0.0]}, {(1, 0): [0.5, 0.0], (0, 1): [0.1]},
                                        {(-1, 0): [0.5, 0.0]}, {(1.5, 0): [0.5, 0.0]}, {(): [0.5, 0.0]},
                                        {(1, 0): [0.5, 0.0], (0, 1): [[0.1, 0.0], [0.0, 0.1]]}],
                             ids=["short-index", "long-index", "ragged-indices", "short-value", "long-value",
                                  "ragged-values", "negative-index", "fractional-index", "empty-index", "matrix-value"])
    def test_bad_index_or_value_raises(self, coeffs):
        with pytest.raises(ValueError):
            PolyMap(2, 2, coeffs)

    def test_entry_by_entry_route_normalises_as_the_array_route(self):
        # numpy ints as index entries, scalars and (1, m) rows as values give the matrices of the
        # plain table; an integral float is not an index entry
        odd = PolyMap(2, 1, {(np.int64(1), 0): 0.5, (np.int64(0), np.int64(2)): [[0.25]], (0, 0): np.array([0.125])})
        plain = PolyMap(2, 1, {(1, 0): [0.5], (0, 2): [0.25], (0, 0): [0.125]})
        assert list(odd.coeffs) == list(plain.coeffs) and all(type(a) is int for key in odd.coeffs for a in key)
        assert np.array_equal(odd.E, plain.E) and odd.A.tobytes() == plain.A.tobytes()
        with pytest.raises(ValueError, match="multi-index entries must be non-negative integers"):
            PolyMap(2, 1, {(1.0, 0): 0.5})

    @pytest.mark.parametrize("n, m, bad", [(2.7, 1, 2.7), (True, 1, True), (2, 1.0, 1.0), (0, 1, 0),
                                           (2, np.int64(0), np.int64(0))],
                             ids=["fractional-n", "bool-n", "integral-float-m", "zero-n", "zero-numpy-m"])
    def test_dimension_that_is_not_an_int_of_at_least_one_rejected(self, n, m, bad):
        # int() once made PolyMap(2.7, ...) a map with n = 2 and PolyMap(True, ...) one with n = 1
        with pytest.raises(ValueError, match="^" + re.escape(f"dimension must be an int >= 1, got {bad!r}") + "$"):
            PolyMap(n, m, {(1, 0): [0.5]})
        f = PolyMap(np.int64(2), 1, {(1, 0): [0.5]})
        assert type(f.n) is int and PolyMap.from_json_dict(json.loads(json.dumps(f.to_json_dict()))).n == 2


class TestRestrictToLine:
    def test_identity_along_axis(self):
        line = LineMap(identity_polymap(3), np.zeros(3), np.eye(3)[0])
        assert line.radius == pytest.approx(1.0, abs=1e-15)
        lam = np.array([[0.5j]])
        assert np.allclose(line.eval(lam)[0], [0.5j, 0, 0], atol=1e-15)

    def test_zero_parameter_recovers_value(self):
        f = random_polymap(2, 2, 3, seed=8)
        z = np.array([0.2, 0.1j])
        line = LineMap(f, z, np.array([0.7, -0.2]))
        assert np.allclose(line.eval(np.array([[0.0]]))[0], f.eval(z[None, :])[0], atol=1e-15)

    def test_product_map_diagonal(self):
        f = PolyMap(2, 1, {(1, 1): [1.0]})
        beta = np.array([1.0, 1.0]) / math.sqrt(2)
        line = LineMap(f, np.zeros(2), beta)
        lam = np.array([[0.6], [0.3j]])
        assert np.allclose(line.eval(lam)[:, 0], (lam[:, 0] ** 2) / 2, atol=1e-15)

    def test_radius_lower_bound_and_agreement(self):
        rng = np.random.default_rng(12)
        f = random_polymap(3, 2, 4, seed=13)
        for _ in range(20):
            g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            z = 0.6 * g / np.linalg.norm(g) * rng.uniform()
            beta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            line = LineMap(f, z, beta)
            assert line.radius >= (1.0 - np.linalg.norm(z)) / np.linalg.norm(beta) - 1e-15
            ip = holomap.hermitian_inner(beta, z)
            assert np.linalg.norm(z + line.radius * np.conj(ip) / abs(ip) * beta) == pytest.approx(1.0, abs=1e-14)
            lam = 0.9 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            direct = f.eval((z + lam * line.radius * beta)[None, :])[0]
            assert np.max(np.abs(line.eval(np.array([[lam]]))[0] - direct)) < 1e-13

    def test_eval_is_bitwise_the_map_on_the_scaled_line(self):
        rng = np.random.default_rng(21)
        maps = [random_polymap(3, 2, 4, seed=s) for s in range(3)]
        maps.append(geometry.AutomorphismMap(np.array([0.3, 0.1j, -0.2])))
        lam = (0.999 * rng.uniform(size=(50, 1)) ** 0.5) * np.exp(2j * np.pi * rng.uniform(size=(50, 1)))
        for f in maps:
            for scale in (0.3, 0.9, 0.999):
                g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                z = scale * g / np.linalg.norm(g)
                b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                line = LineMap(f, z, b)
                assert line.beta.tobytes() == (line.radius * b).tobytes()
                assert line(lam).tobytes() == f(z + lam * (line.radius * b)).tobytes()

    @pytest.mark.parametrize("lam", [1.0, -1j, 1.5, 0.6 + 0.8j, np.nan, complex(0.0, np.nan)],
                             ids=["1", "-i", "1.5", "unit-phase", "nan", "imaginary-nan"])
    def test_unit_disk_is_the_domain(self, lam):
        line = LineMap(identity_polymap(2), np.zeros(2), np.array([2.0, 0.0]))  # radius 0.5
        with pytest.raises(MapDomainError, match=r"^z must lie strictly inside the unit ball"):
            line(np.array([[0.1], [lam]]))

    def test_zero_direction_rejected(self):
        with pytest.raises(MapDomainError):
            LineMap(identity_polymap(2), np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("z0, beta, message", [
        (np.zeros(2), [np.nan, 0.0], "direction entries must be finite"),
        (np.zeros(2), [np.inf, 0.0], "direction entries must be finite"),
        (np.zeros(2), [0.0, complex(0.0, -np.inf)], "direction entries must be finite"),
        (np.zeros(3), np.ones(2), "expected a point in C\\^2, got dimension 3"),
        (np.zeros(1), np.ones(2), "expected a point in C\\^2, got dimension 1"),
        (np.zeros(2), np.ones(3), "expected a direction in C\\^2, got dimension 3"),
        (np.zeros(2), np.ones(1), "expected a direction in C\\^2, got dimension 1"),
    ], ids=["nan-beta", "inf-beta", "imaginary-inf-beta", "long-z0", "short-z0", "long-beta", "short-beta"])
    def test_malformed_point_or_direction_rejected(self, z0, beta, message):
        with pytest.raises(MapDomainError, match=f"^{message}$"):
            LineMap(identity_polymap(2), z0, beta)

    def test_one_evaluator_checks_the_restriction_radius(self):
        # the restriction radius scales the direction, so the one domain is the unit disk
        assert LineMap.eval is HoloMap.eval and LineMap.__call__ is HoloMap.__call__
        assert not hasattr(LineMap, "_check_domain")
        line = LineMap(identity_polymap(2), np.zeros(2), np.array([2.0, 0.0]))  # radius 0.5
        assert line.radius == 0.5 and line.beta.tolist() == [1.0, 0.0]
        assert line(np.array([[0.25j]])).tolist() == [[0.25j, 0.0]]
        assert line.describe() == "line(n=1, m=2)"
        assert line(np.array([[0.1], [0.5]])).tolist() == [[0.1, 0.0], [0.5, 0.0]]
        with pytest.raises(MapDomainError, match=r"^z must lie strictly inside the unit ball \(\|z\| = 1\.000000\)$"):
            line(np.array([[0.1], [1.0]]))

    @pytest.mark.parametrize("lam", [np.array(0.1), np.array([0.1, 0.2, 0.3])], ids=["0-d", "vector"])
    def test_eval_takes_points_of_shape_dots_1(self, lam):
        line = LineMap(identity_polymap(2), np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(MapDomainError, match=r"shape \(\.\.\., 1\)"):
            line.eval(lam)
        assert np.array_equal(line.eval(lam[..., None]), lam[..., None] * [1.0, 0.0])


class TestVectors:
    """Points and directions are vectors: a 0-d value is one entry, two axes are rejected."""

    def test_point_with_two_axes_rejected(self):
        with pytest.raises(MapDomainError, match=r"^a point must be a vector, got shape \(2, 2\)$"):
            cauchy.partial_bundle(random_polymap(4, 1, 2, seed=1), np.zeros((2, 2)), 1)

    def test_direction_with_two_axes_rejected(self):
        with pytest.raises(MapDomainError, match=r"^a direction must be a vector, got shape \(2, 2\)$"):
            holomap.as_direction(np.ones((2, 2)), 4)

    def test_0d_value_is_a_vector_of_one_entry(self):
        assert holomap.as_ball_point(0.5j, 1).tolist() == [0.5j]
        assert holomap.as_direction(np.array(2.0), 1).tolist() == [2.0]


#: Parts whose squares and sums are easy to round wrongly: signed zeros, the
#: least subnormal, a square that underflows, one that overflows, the
#: infinities and NaNs of both signs.
_SQ_NORM_PARTS = [0.0, -0.0, 5e-324, -5e-324, 1e-160, 2.2250738585072014e-308, 1e200, math.inf, -math.inf,
                  math.nan, -math.nan, 1.5, -0.3, 0.1]


class TestSqNorm:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_vector_is_bitwise_its_row_of_a_stack(self, n):
        rng = np.random.default_rng(70 + n)
        parts = np.array(_SQ_NORM_PARTS)
        z = np.empty((3000, n), dtype=complex)
        z.real, z.imag = rng.choice(parts, z.shape), rng.choice(parts, z.shape)
        for stack in (z, z.real.copy()):
            with np.errstate(over="ignore", invalid="ignore"):
                rows = holomap.sq_norm(stack)
                singles = [holomap.sq_norm(row) for row in stack]
            assert all(type(single) is np.float64 for single in singles)
            assert np.array(singles).tobytes() == rows.tobytes()

    def test_one_vector_of_another_type_keeps_its_numpy_type(self):
        assert holomap.sq_norm(np.array([3, 4])) == 25 and holomap.sq_norm(np.array([3, 4])).dtype == np.int64
        single = holomap.sq_norm(np.array([0.5j, 0.25], dtype=np.complex64))
        assert single.dtype == np.float32 and single == np.float32(0.3125)


class TestCoefficientChecks:
    """The power-series coefficient inequalities, as the `bounds` rows
    parseval-slice and parseval-torus and the single-coefficient id 3.2."""

    @staticmethod
    def parseval(f, beta, k=None):
        """The lhs of parseval-slice and parseval-torus at a unit beta, to degree k (the map's degree)."""
        k = f.max_degree if k is None else k
        point = bounds.Point(f, None, None, [(ineq, {"beta": beta, "k": k})
                                             for ineq in ("parseval-slice", "parseval-torus")])
        return tuple(row.lhs for row in bounds.check_columns([point]))

    def test_constant_map(self):
        f = PolyMap(2, 1, {(0, 0): [0.9]})
        assert self.parseval(f, np.array([1.0, 0.0]), k=1) == pytest.approx((0.81, 0.81), abs=1e-15)

    def test_single_monomial_extremal_is_tight(self):
        v = (2, 1)
        f = PolyMap(2, 1, {v: [math.sqrt(6.75)]})
        assert bounds.check_inequality(f, "3.2", v=v).ratio == pytest.approx(1.0, abs=1e-15)
        # both sums are tight for the sharp direction beta_j = sqrt(v_j/|v|)
        beta = np.array([math.sqrt(2.0 / 3.0), math.sqrt(1.0 / 3.0)])
        assert self.parseval(f, beta) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_linear_plus_square_first_coefficient(self):
        f = linear_plus_square()
        row = bounds.check_inequality(f, "3.2", v=(1, 0))
        assert (row.lhs, row.rhs, row.slack) == (1.0, 1.0, 0.0)
        # the first coefficient alone fills both sums along e1
        assert self.parseval(f, np.array([1.0, 0.0])) == (1.0, 1.0)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(MapDomainError, match="^the origin bounds require a unit direction$"):
            self.parseval(linear_plus_square(), np.array([1.0, 0.5]))

    @pytest.mark.parametrize("v, message", [((1, 0, 0), "multi-index \\(1, 0, 0\\) does not have dimension 2"),
                                            ((0, 0), "v must be a non-zero multi-index")], ids=["long", "zero"])
    def test_malformed_v_rejected(self, v, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            bounds.check_inequality(linear_plus_square(), "3.2", v=v)

    @staticmethod
    def loop_sums(f, v, beta):
        """Per-coefficient loop form of the three power sums."""
        boundary = weighted = 0.0
        slices = {}
        for alpha, c in f.coeffs.items():
            c2 = float(np.linalg.norm(c)) ** 2
            boundary += c2 * float(np.prod(np.abs(beta) ** (2 * np.array(alpha))))
            weighted += c2 * math.prod(float(vj) ** aj for vj, aj in zip(v, alpha)) / sum(v) ** sum(alpha)
            acc = slices.setdefault(sum(alpha), np.zeros(f.m, dtype=complex))
            acc += c * np.prod(beta ** np.array(alpha))
        slicesum = float(sum(np.linalg.norm(s) ** 2 for s in slices.values()))
        return boundary, weighted, slicesum

    def test_matches_per_coefficient_loop(self):
        # the weighted sum is parseval-torus at beta_j = sqrt(v_j/|v|)
        rng = np.random.default_rng(22)
        for seed in range(6):
            f = random_polymap(1 + seed % 3, 1 + seed % 2, 4, seed=seed)
            g = rng.standard_normal(f.n) + 1j * rng.standard_normal(f.n)
            beta = g / np.linalg.norm(g)
            slices, torus = self.parseval(f, beta)
            for v in mi.enumerate_up_to(f.n, 3, include_zero=False):
                _, weighted = self.parseval(f, np.sqrt(np.array(v) / sum(v)))
                assert (torus, weighted, slices) == pytest.approx(self.loop_sums(f, v, beta), rel=1e-13, abs=1e-15)

    def test_certified_maps_satisfy_all_inequalities(self):
        rng = np.random.default_rng(21)
        orders = mi.enumerate_up_to(2, 4, include_zero=False)
        for seed in range(10):
            f = random_polymap(2, 1 + seed % 2, 4, seed=seed)
            betas = [g / np.linalg.norm(g) for g in rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))]
            betas += [np.sqrt(np.array(v) / sum(v)) for v in orders]
            requests = [(ineq, {"beta": beta, "k": 4}) for beta in betas for ineq in ("parseval-slice", "parseval-torus")]
            requests += [("3.2", {"v": v}) for v in orders]
            assert min(row.slack for row in bounds.check_columns([bounds.Point(f, None, None, requests)])) >= -1e-10


def test_serialization_round_trip():
    f = random_polymap(2, 3, 4, seed=77)
    # the text form of emit's side files and replay_sample
    g = PolyMap.from_json_dict(json.loads(json.dumps(f.to_json_dict(), sort_keys=True)))
    assert (g.n, g.m) == (f.n, f.m)
    assert set(g.coeffs) == set(f.coeffs)
    for alpha in f.coeffs:
        assert np.array_equal(g.coeffs[alpha], f.coeffs[alpha])


def test_geometry_exports_linear_plus_square_example():
    f = geometry.linear_plus_square_map()
    assert np.allclose(f.coefficient((0, 2)), [1.0 / 3.0])
