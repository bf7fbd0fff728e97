import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schwarzpick import bounds, cauchy, geometry, harness
from schwarzpick import multiindex as mi
from schwarzpick.holomap import MapDomainError, PolyMap, hermitian_inner, random_polymap, sq_norm
from support import Composition, OpaqueMap, aj_coefficients, identity_polymap, quadratic_form, remark3_derivative


def unit(rng, dim):
    g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return g / np.linalg.norm(g)


def main_rhs(k, z, beta):
    """The right-hand side of 1.4 at (z, beta), as check_inequality reports it."""
    return bounds.check_inequality(identity_polymap(len(z)), "1.4", z=z, beta=beta, k=k).rhs


def form_lhs(d, fz):
    """The quadratic left side of 4.1 for f(0) = fz and f'(0) = d, as
    check_inequality reports it at z = 0."""
    f = PolyMap(1, len(fz), {(0,): fz, (1,): d})
    return bounds.check_inequality(f, "4.1", z=[0.0], k=1).lhs


class TestLhsQuadratic:
    """The left side |<D, f(z)>|^2 + (1-|f(z)|^2)|D|^2 of the quadratic bounds."""

    def test_center_at_origin(self):
        d = np.array([0.3, 0.4j])
        assert form_lhs(d, np.zeros(2)) == pytest.approx(0.25, rel=1e-14)

    def test_zero_derivative(self):
        assert form_lhs(np.zeros(2), np.array([0.5, 0.1])) == 0.0

    def test_scalar_example(self):
        assert form_lhs(np.array([1.0]), np.array([0.5])) == pytest.approx(1.0, rel=1e-15)

    @given(st.integers(0, 10 ** 6), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_equals_scaled_metric_form(self, seed, m):
        rng = np.random.default_rng(seed)
        fz = 0.9 * unit(rng, m) * rng.uniform()
        d = 3.0 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        lhs = form_lhs(d, fz)
        assert lhs == quadratic_form(d, fz)
        scaled = (1.0 - np.linalg.norm(fz) ** 2) ** 2 * geometry.bergman_metric(fz, d)
        assert lhs == pytest.approx(scaled, rel=1e-12)


class TestRhsMain:
    def test_first_order_is_metric(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            z = 0.8 * unit(rng, 2) * rng.uniform()
            beta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            assert main_rhs(1, z, beta) == geometry.bergman_metric(z, beta)

    def test_origin_second_order(self):
        assert main_rhs(2, np.zeros(2), np.array([1.0, 0.0])) == pytest.approx(4.0, rel=1e-14)

    def test_factor_increases_with_radial_alignment(self):
        z = np.array([0.6, 0.0])
        vals = []
        for t in np.linspace(0.0, 1.0, 11):
            beta = np.array([t, math.sqrt(1.0 - t * t)])
            # strip H^k so only the alignment factor (k = 2) is compared
            vals.append(main_rhs(2, z, beta) / geometry.bergman_metric(z, beta) ** 2)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_orthogonal_direction_factor_is_one(self):
        z = np.array([0.7, 0.0])
        beta = np.array([0.0, 1.0])
        for k in (1, 2, 3, 4):
            expected = math.factorial(k) ** 2 * geometry.bergman_metric(z, beta) ** k
            assert main_rhs(k, z, beta) == pytest.approx(expected, rel=1e-14)

    def test_homogeneity_degree_zero_of_factor(self):
        z = np.array([0.4, 0.3j])
        beta = np.array([0.2, 0.5 - 0.1j])
        for c in (2.0, 0.5 + 0.5j):
            lhs = main_rhs(3, z, c * beta)
            rhs = main_rhs(3, z, beta) * (abs(c) ** 2) ** 3
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestRhsDisk:
    def test_identity_map_first_order_equality(self):
        # the identity disk map attains the quadratic-form bound at k = 1
        rep = bounds.check_inequality(identity_polymap(1), "4.1", z=[0.5], k=1)
        assert rep.lhs == pytest.approx(1.0, rel=1e-15)
        assert rep.rhs == bounds.rhs_disk(1, 0.5, 1.0 - 0.5 ** 2)
        assert rep.ratio == pytest.approx(1.0, rel=1e-14)

    def test_origin_value(self):
        assert bounds.rhs_disk(3, 0.0, 1.0) == pytest.approx(36.0, rel=0)

    def test_half_point_value(self):
        assert bounds.rhs_disk(2, 0.5, 1.0) == pytest.approx((16.0 / 3.0) ** 2, rel=1e-14)


class TestRhsPartial:
    def test_diagonal_pair_at_origin(self):
        got = bounds.rhs_partial((1, 1), 0.0, 1.0)
        assert got.scalar == pytest.approx(2.0, rel=0)
        assert got.squared == pytest.approx(4.0, rel=0)

    def test_single_axis_reduces_to_disk_bound(self):
        for k in (1, 2, 3):
            got = bounds.rhs_partial((k,), 0.4, 1.0 - 0.3 ** 2)
            assert got.squared == pytest.approx(bounds.rhs_disk(k, 0.4, 1.0 - 0.3 ** 2), rel=1e-14)

    def test_scalar_bound_never_exceeds_benchmark(self):
        for n in (1, 2, 3):
            for t in (0.0, 0.3, 0.6, 0.9):
                for kv in range(1, 6):
                    for v in mi.enumerate_indices(n, kv):
                        got = bounds.rhs_partial(v, t, 1.0 - 0.2 ** 2)
                        assert got.scalar <= got.benchmark_scalar + 1e-12


class TestRhsRadial:
    def test_full_first_component_matches_partial_bound(self):
        for k in (1, 2, 3):
            v = (k, 0)
            assert bounds.rhs_radial(v, 0.5, 1.0 - 0.2 ** 2) == pytest.approx(
                bounds.rhs_partial(v, 0.5, 1.0 - 0.2 ** 2).squared, rel=1e-14)

    @pytest.mark.parametrize("v", [(0, 0), (1, -1), (1.5, 1), (2.0, 1), (True, 1), (), [2, -1], "12", 3],
                             ids=["zero", "negative", "fraction", "integral-float", "bool", "empty", "negative-list",
                                  "string", "int"])
    def test_bad_multi_index_rejected(self, v):
        # each public formula checks its v, whether or not an equal v was seen before
        bounds.rhs_partial((1, 1), 0.5, 0.75)
        for call in (lambda: bounds.rhs_partial(v, 0.5, 0.75), lambda: bounds.rhs_radial(v, 0.5, 0.75),
                     lambda: bounds.mu_factor(v, 0.5)):
            with pytest.raises((ValueError, TypeError)):
                call()

    def test_multi_index_of_any_int_sequence_accepted(self):
        want = bounds.rhs_radial((2, 1), 0.5, 0.75)
        for v in ([2, 1], np.array([2, 1]), (np.int64(2), 1)):
            assert bounds.rhs_radial(v, 0.5, 0.75) == want
            assert bounds.rhs_partial(v, 0.5, 0.75) == bounds.rhs_partial((2, 1), 0.5, 0.75)
            assert bounds.mu_factor(v, 0.5) == bounds.mu_factor((2, 1), 0.5)

    def test_truncated_binomial(self):
        assert bounds.mu_factor((1, 2), 0.5) == pytest.approx(2.0, rel=0)
        for v in ((1, 2), (2, 1), (3, 2)):
            assert bounds.mu_factor(v, 0.0) == 1.0

    def test_off_axis_rejected(self):
        with pytest.raises(MapDomainError, match="z1-axis"):
            bounds.check_inequality(random_polymap(2, 1, 3, seed=15), "5.3", z=np.array([0.2, 0.1]), v=(1, 1))


class TestRhsOrigin:
    def test_center_free_values(self):
        assert bounds.rhs_origin(0.0) == 1.0
        # 3.2 carries the sharpness factor |v|^|v|/v^v = 4 of v = (1, 1)
        assert bounds.check_inequality(identity_polymap(2), "3.2", v=(1, 1)).rhs == 4.0

    def test_slice_bound_at_radius(self):
        assert bounds.rhs_origin(0.6) == pytest.approx(0.4096, rel=1e-14)

    @pytest.mark.parametrize("a0", [[1.0], [np.nan]], ids=["boundary", "nan"])
    def test_center_outside_ball_rejected(self, a0):
        f = PolyMap(2, 1, {(0, 0): a0, (1, 0): [0.1]})
        for ineq, context in (("3.1", {"beta": [1.0, 0.0], "k": 1}), ("3.2", {"v": (1, 0)})):
            with pytest.raises(MapDomainError, match="f\\(0\\)"):
                bounds.check_inequality(f, ineq, **context)


class TestParsevalRows:
    """parseval-slice and parseval-torus, and the tensor powers that attain them."""

    @staticmethod
    def tensor_powers():
        rng = np.random.default_rng(31)
        for n, m, d in ((1, 1, 1), (1, 2, 5), (2, 2, 1), (2, 3, 2), (2, 4, 3), (2, 4, 1), (3, 3, 1), (3, 4, 1)):
            yield geometry.tensor_power(n, m, d, harness.random_isometry(rng, m, m)), d, rng

    def test_tensor_power_sends_the_sphere_to_the_sphere(self):
        for f, d, rng in self.tensor_powers():
            zeta = np.array([unit(rng, f.n) for _ in range(50)])
            assert np.abs(np.linalg.norm(f._eval(zeta), axis=-1) - 1.0).max() <= 1e-14
            assert f.max_degree == d and all(sum(alpha) == d for alpha in f.coeffs)

    def test_tensor_power_attains_both_rows_and_3_1_at_its_degree(self):
        for f, d, rng in self.tensor_powers():
            requests = [(ineq, {"beta": unit(rng, f.n), "k": d}) for _ in range(10)
                        for ineq in ("3.1", "parseval-slice", "parseval-torus")]
            rows = bounds.check_columns([bounds.Point(f, None, None, requests)])
            assert max(abs(row.ratio - 1.0) for row in rows) <= 1e-12
            assert {row.rhs for row in rows} == {1.0}

    @pytest.mark.parametrize("n, m, d", [(2, 2, 2), (2, 3, 3), (3, 2, 1), (3, 5, 2)])
    def test_tensor_power_needs_room_for_every_monomial(self, n, m, d):
        with pytest.raises(MapDomainError, match=f"needs d >= 1 and m >= {math.comb(n + d - 1, d)}, got m = {m}$"):
            geometry.tensor_power(n, m, d, np.eye(m))

    @pytest.mark.parametrize("rotation", [np.ones((2, 2)), np.eye(3)], ids=["not-unitary", "wrong-shape"])
    def test_tensor_power_rejects_a_rotation_that_is_not_unitary(self, rotation):
        with pytest.raises(MapDomainError, match="^rotation must be a 2 x 2 unitary matrix$"):
            geometry.tensor_power(2, 2, 1, rotation)

    def test_tensor_power_rejects_degree_zero(self):
        with pytest.raises(MapDomainError, match="needs d >= 1"):
            geometry.tensor_power(2, 2, 0, np.eye(2))

    @pytest.mark.parametrize("ineq", ["parseval-slice", "parseval-torus"])
    @pytest.mark.parametrize("beta", [[1.0, 0.5], [0.5, 0.0], [1.0 + 1e-11, 0.0]], ids=["long", "short", "near"])
    def test_non_unit_direction_rejected(self, ineq, beta):
        with pytest.raises(MapDomainError, match="^the origin bounds require a unit direction$"):
            bounds.check_inequality(random_polymap(2, 2, 3, seed=5), ineq, beta=beta, k=3)

    @pytest.mark.parametrize("ineq", ["parseval-slice", "parseval-torus"])
    def test_a_sum_cut_below_the_degree_is_smaller(self, ineq):
        # the sum grows with k up to the map's degree and then stays put
        f, beta = random_polymap(2, 2, 4, seed=8), np.array([0.6, 0.8j])
        lhs = [bounds.check_inequality(f, ineq, beta=beta, k=k).lhs for k in range(1, 7)]
        assert lhs == sorted(lhs) and lhs[3] == lhs[4] == lhs[5] and lhs[0] < lhs[3] < 1.0

    @pytest.mark.parametrize("ineq", ["parseval-slice", "parseval-torus"])
    def test_any_map_takes_the_rows(self, ineq):
        # a closed-form map reads its coefficients from a slice table: 2 z1 z2 attains both sums along (1, 1)/sqrt(2)
        f = geometry.ExtremalOriginMap(np.zeros(2), np.array([2.0, 0.0]), (1, 1))
        beta = np.array([math.sqrt(0.5), math.sqrt(0.5)])
        assert bounds.check_inequality(f, ineq, beta=beta, k=4).ratio == pytest.approx(1.0, abs=1e-12)


class TestAjCoefficients:
    def test_disk_values_at_half(self):
        got = aj_coefficients(2, 0.5)
        assert got.term_sum == pytest.approx(16.0 / 3.0, rel=1e-14)
        assert got.term_sum == pytest.approx(got.closed_form, rel=1e-14)

    def test_first_order_sum(self):
        for t in (0.0, 0.3, 0.8):
            got = aj_coefficients(1, t)
            assert got.term_sum == pytest.approx(1.0 / (1.0 - t * t), rel=1e-14)

    def test_center_keeps_only_top_term(self):
        for k in (1, 2, 3, 4):
            got = aj_coefficients(k, 0.0)
            assert got.magnitudes[:-1] == tuple([0.0] * (k - 1))
            assert got.term_sum == pytest.approx(float(math.factorial(k)), rel=0)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_sum_identity(self, k):
        for t in np.arange(0.0, 0.91, 0.1):
            got = aj_coefficients(k, float(t))
            assert got.term_sum == pytest.approx(got.closed_form, rel=1e-12)

    def test_radial_variant_identity_and_value(self):
        got = aj_coefficients(3, 0.5, variant="radial", v=(1, 2))
        assert got.orders == (0, 1)
        assert got.term_sum == pytest.approx(64.0 / 9.0, rel=1e-14)
        assert got.term_sum == pytest.approx(got.closed_form, rel=1e-12)

    def test_radial_variant_single_axis_matches_disk(self):
        disk = aj_coefficients(3, 0.4)
        radial = aj_coefficients(3, 0.4, variant="radial", v=(3,))
        assert radial.orders == disk.orders
        assert radial.magnitudes == pytest.approx(disk.magnitudes, rel=1e-14)


class TestCheckInequality:
    def test_aliases_normalise(self):
        assert bounds.normalize_inequality("4.3") == "1.4"
        assert bounds.normalize_inequality("1.6") == "5.2"
        with pytest.raises(ValueError):
            bounds.normalize_inequality("9.9")

    def test_automorphisms_attain_first_order_bound(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 3):
            aut = geometry.AutomorphismMap(0.5 * unit(rng, n))
            for _ in range(5):
                z = 0.6 * unit(rng, n) * rng.uniform()
                beta = unit(rng, n)
                rep = bounds.check_inequality(aut, "1.3", z=z, beta=beta)
                assert abs(rep.slack) <= 1e-9
                assert rep.ratio == pytest.approx(1.0, abs=1e-9)

    def test_extremal_origin_attains_coefficient_bound(self):
        rng = np.random.default_rng(32)
        f = geometry.extremal_origin_from_direction(0.3 * unit(rng, 2), unit(rng, 2), (2, 1))
        rep = bounds.check_inequality(f, "3.2", v=(2, 1))
        assert abs(rep.slack) <= 1e-10

    def test_linear_plus_square_attains_coefficient_bound(self):
        rep = bounds.check_inequality(geometry.linear_plus_square_map(), "3.2", v=(1, 0))
        assert rep.lhs == 1.0 and rep.rhs == 1.0 and rep.slack == 0.0

    def test_first_order_reduction_consistency(self):
        rng = np.random.default_rng(33)
        f = random_polymap(2, 2, 4, seed=8)
        for _ in range(10):
            z = 0.8 * unit(rng, 2) * rng.uniform()
            beta = unit(rng, 2)
            r14 = bounds.check_inequality(f, "1.4", z=z, beta=beta, k=1)
            r13 = bounds.check_inequality(f, "1.3", z=z, beta=beta)
            assert r14.lhs == pytest.approx(r13.lhs, rel=1e-12)
            assert r14.rhs == pytest.approx(r13.rhs, rel=1e-12)

    def test_disk_reduction_after_rescaling(self):
        rng = np.random.default_rng(34)
        f = random_polymap(1, 2, 5, seed=9)
        for _ in range(10):
            z = np.array([0.8 * rng.uniform() * cmath.exp(2j * math.pi * rng.uniform())])
            fz = f.eval(z[None, :])[0]
            scale = (1.0 - np.linalg.norm(fz) ** 2) ** 2
            for k in (1, 2, 3):
                r14 = bounds.check_inequality(f, "1.4", z=z, beta=np.array([1.0]), k=k)
                r41 = bounds.check_inequality(f, "4.1", z=z, k=k)
                assert r14.lhs * scale == pytest.approx(r41.lhs, rel=1e-10)
                assert r14.rhs * scale == pytest.approx(r41.rhs, rel=1e-10)

    def test_origin_slice_requires_unit_direction(self):
        f = random_polymap(2, 1, 3, seed=10)
        with pytest.raises(MapDomainError):
            bounds.check_inequality(f, "3.1", beta=np.array([0.5, 0.0]), k=1)

    def test_origin_bounds_for_closed_form_maps(self):
        # exercises the quadrature coefficient route of 3.1/3.2: the
        # origin-extremal map attains 3.2, and attains 3.1 at the sharp
        # direction beta_j = sqrt(v_j/|v|) since its degree-|v| slice is
        # a_v beta^v with |beta^v|^2 = v^v/|v|^|v|
        rng = np.random.default_rng(35)
        v = (2, 1)
        f = geometry.extremal_origin_from_direction(0.4 * unit(rng, 2), unit(rng, 2), v)
        r32 = bounds.check_inequality(f, "3.2", v=v)
        assert abs(r32.slack) <= 1e-10
        sharp_beta = np.sqrt(np.array(v) / sum(v))
        r31 = bounds.check_inequality(f, "3.1", beta=sharp_beta, k=sum(v))
        assert abs(r31.slack) <= 1e-10
        for _ in range(10):
            rep = bounds.check_inequality(f, "3.1", beta=unit(rng, 2), k=sum(v))
            assert rep.slack >= -1e-10

    @pytest.mark.parametrize("ineq, missing", [
        ("1.3", "z"), ("1.3", "beta"), ("1.4", "k"), ("3.1", "k"), ("3.2", "v"), ("5.1", "v"),
    ])
    def test_missing_context_named(self, monkeypatch, ineq, missing):
        def no_derivative(*args):
            raise AssertionError("derivative work started before the context was checked")

        monkeypatch.setattr(bounds, "_derivative", no_derivative)
        context = {"z": np.array([0.3, 0.1j]), "beta": np.array([1.0, 0.0]), "k": 2, "v": (1, 1)}
        del context[missing]
        f = random_polymap(2, 2, 3, seed=12)
        with pytest.raises(ValueError, match=f"requires the argument {missing}$"):
            bounds.check_inequality(f, ineq, **context)

    @pytest.mark.parametrize("ineq, context", [
        ("1.4", {"beta": [1.0, 0.0], "k": 1}), ("4.1", {"k": 1}), ("5.1", {"v": (1, 0)}), ("5.3", {"v": (1, 0)}),
    ], ids=["1.4", "4.1", "5.1", "5.3"])
    @pytest.mark.parametrize("family", [lambda n: random_polymap(n, 1, 3, seed=13),
                                        lambda n: geometry.AutomorphismMap(np.array([0.3, 0.1j])[:n])],
                             ids=["poly", "automorphism"])
    def test_nan_point_raises_instead_of_reporting_nan(self, family, ineq, context):
        # nan >= 1 is False, so a NaN point once passed every inside-the-ball check
        n = 1 if ineq == "4.1" else 2
        f = family(n)
        z = np.array([np.nan, 0.0])[:n]
        with pytest.raises(MapDomainError):
            bounds.check_inequality(f, ineq, z=z, **context)
        bundle = cauchy.partial_bundle(f, np.zeros(n), 1)
        with pytest.raises(MapDomainError):
            bounds.check_inequality(f, ineq, z=z, bundle=bundle, **context)

    @pytest.mark.parametrize("ineq, context", [
        ("1.1", {"k": 1}), ("1.2", {"v": (1,)}), ("4.1", {"k": 1}),
        ("5.1", {"v": (1,)}), ("5.2", {"v": (1,)}), ("5.3", {"v": (1,)}),
    ], ids=["1.1", "1.2", "4.1", "5.1", "5.2", "5.3"])
    def test_map_leaving_the_ball_raises(self, ineq, context):
        # |f(0.2)| = 1.52: every id, not only the metric ones, must refuse the point
        f = PolyMap(1, 1, {(0,): [1.5], (1,): [0.1]})
        with pytest.raises(MapDomainError, match=r"f\(z\) must lie strictly inside"):
            bounds.check_inequality(f, ineq, z=[0.2], **context)

    def test_ratio_convention_when_both_sides_vanish(self):
        # a direction of modulus 1e-100 underflows both sides of 1.4 at k = 2 to zero
        f = random_polymap(2, 2, 3, seed=30)
        rep = bounds.check_inequality(f, "1.4", z=np.array([0.3, 0.1j]), beta=1e-100 * np.array([0.6, 0.8j]), k=2)
        assert (rep.lhs, rep.rhs, rep.ratio) == (0.0, 0.0, 0.0)

    def test_constant_map_gives_zero_ratio(self):
        f = PolyMap(2, 2, {(0, 0): [0.2, 0.1j]})
        rep = bounds.check_inequality(f, "1.4", z=np.array([0.3, 0.0]), beta=np.array([1.0, 0.0]), k=2)
        assert rep.lhs == 0.0 and rep.ratio == 0.0


def _requests(ineq, n, rng):
    """Several contexts of one id, some sharing a direction or an order; 1.3
    and 1.4 come mixed in one batch."""
    def unit_direction():
        return unit(rng, n)

    orders = mi.enumerate_up_to(n, 3, include_zero=False)
    if ineq in ("1.3", "1.4"):
        betas = [unit_direction(), 2.0 * unit_direction(), np.eye(n)[0]]
        other = "1.4" if ineq == "1.3" else "1.3"
        return [(name, {"beta": b, "k": k} if name == "1.4" else {"beta": b})
                for b in betas + betas[:1] for k in (1, 2, 3) for name in (ineq, other)]
    if ineq in ("3.1", "parseval-slice", "parseval-torus"):
        return [(ineq, {"beta": b, "k": k}) for b in (unit_direction(), np.eye(n)[-1]) for k in (1, 3, 2, 3)]
    if ineq in ("1.1", "4.1"):
        return [(ineq, {"k": k}) for k in (1, 2, 3, 2)]
    return [(ineq, {"v": v}) for v in orders + orders[:2]]


def _points(ineq, n, rng):
    """Points at |z| = 0.6, at a random |z| and at a random |z| in [0.99, 0.999],
    on the z1-axis for 5.3."""
    out = []
    for radius in (0.6, rng.uniform(0.0, 0.99), rng.uniform(0.99, 0.999)):
        z = np.zeros(n, dtype=complex)
        if ineq == "5.3" or n == 1:
            z[0] = radius * cmath.exp(2j * math.pi * rng.uniform())
        else:
            z = radius * unit(rng, n)
        out.append(z)
    return out


def _same_row(a, b):
    assert a[:1] + a[3:] == b[:1] + b[3:]
    for x, y in zip(a[1:3], b[1:3]):  # z and beta
        assert (x is None) == (y is None) and (x is None or np.array_equal(x, y))


def _directional(bundle, beta, k, n):
    """D_k as the term-by-term sum over alpha."""
    acc = None
    for alpha in mi.enumerate_indices(n, k):
        term = bundle[alpha] * (mi.multinomial_weight(alpha) * np.prod(beta ** np.array(alpha)))
        acc = term if acc is None else acc + term
    return acc


def _reference(f, ineq, z, bundle, beta=None, k=None, v=None):
    """(lhs, rhs) of one request from scalar formulas, with |z| or |z_1|,
    1-|f(z)|^2 (or |a0|), the direction's factors and D_k derived here from z
    and the bundle."""
    zero = (0,) * f.n
    k = 1 if ineq == "1.3" else k
    beta = None if beta is None else np.asarray(beta, dtype=complex)
    if ineq.startswith("parseval"):
        coeffs = cauchy.taylor_coefficients(f, mi.enumerate_up_to(f.n, k))
        b2 = (beta.real ** 2 + beta.imag ** 2).astype(complex)
        lhs = 0.0
        for j in range(k + 1):
            alphas = mi.enumerate_indices(f.n, j)
            if ineq == "parseval-slice":
                lhs += float(sq_norm(sum(coeffs[a] * np.prod(beta ** np.array(a)) for a in alphas)))
            else:
                lhs += sum(float(sq_norm(coeffs[a])) * np.prod(b2 ** np.array(a)) for a in alphas).real
        return lhs, bounds.rhs_parseval()
    if ineq in ("3.1", "3.2"):
        indices = mi.enumerate_indices(f.n, k) if ineq == "3.1" else [v]
        coeffs = cauchy.taylor_coefficients(f, [zero] + indices)
        a0, a0_abs = coeffs[zero], float(np.linalg.norm(coeffs[zero]))
        if ineq == "3.1":
            d = sum(coeffs[a] * np.prod(beta ** np.array(a)) for a in indices)
            return quadratic_form(d, a0), bounds.rhs_origin(a0_abs)
        return quadratic_form(coeffs[v], a0), mi.sharpness_factor(v) * bounds.rhs_origin(a0_abs)
    fz, fz_abs = bundle[zero], float(np.linalg.norm(bundle[zero]))
    q = 1.0 - fz_abs ** 2
    if ineq in ("1.3", "1.4"):
        d = _directional(bundle, beta, k, f.n)
        q_z, b2 = 1.0 - float(sq_norm(z)), float(sq_norm(beta))
        ip = abs(complex(hermitian_inner(beta, z)))
        lift = 1.0 + ip / math.sqrt(q_z * b2 + ip * ip)
        return geometry.bergman_metric(fz, d), bounds.rhs_main(k, lift, geometry.bergman_metric(z, beta))
    t = math.sqrt(float(sq_norm(z)))   # |z|
    t1 = abs(complex(z[0]))            # |z_1|
    d = bundle[(k,)] if ineq in ("1.1", "4.1") else bundle[v]
    norm = float(np.linalg.norm(d))
    return {
        "1.1": lambda: (norm / q, math.sqrt(bounds.rhs_disk(k, t1, q)) / q),
        "1.2": lambda: (norm, bounds.rhs_partial(v, t, q).benchmark_scalar),
        "4.1": lambda: (quadratic_form(d, fz), bounds.rhs_disk(k, t1, q)),
        "5.1": lambda: (quadratic_form(d, fz), bounds.rhs_partial(v, t, q).squared),
        "5.2": lambda: (norm, bounds.rhs_partial(v, t, q).scalar),
        "5.3": lambda: (quadratic_form(d, fz), bounds.rhs_radial(v, t1, q)),
    }[ineq]()


class TestCheckRequests:
    """Batches of requests through check_columns."""

    @pytest.mark.parametrize("opaque", [False, True], ids=["poly", "slices"])
    @pytest.mark.parametrize("ineq", bounds.INEQUALITY_IDS)
    def test_batch_equals_single_requests(self, ineq, opaque):
        # for m = 1..4, three points over two maps (one near the boundary), and batches that repeat
        # a direction, an order or a v: each row of a one-point batch, and each row of one batch
        # over all the points, is bitwise the lone request's row, check_inequality's report and
        # the scalar oracle's
        row = bounds._BOUNDS[ineq]
        n = 1 if row.n1 else 2
        rng = np.random.default_rng(22)
        for m in (1,) if row.m1 else (1, 2, 3, 4):
            maps = [random_polymap(n, m, 4, seed=20 + m), random_polymap(n, m, 3, seed=40 + m)]
            maps = [OpaqueMap(f) for f in maps] if opaque else maps
            origin = row.derivative in ("slice", "a_v", "slices", "torus")
            for bundled in (False,) if origin else (False, True):
                points = []
                for i, z in enumerate(_points(ineq, n, rng)):
                    f = maps[i % 2]
                    points.append(bounds.Point(f, z, cauchy.partial_bundle(f, z, 3) if bundled else None,
                                               _requests(ineq, n, rng)))
                rows = []
                for f, z, bundle, requests in points:
                    batch = bounds.check_columns([bounds.Point(f, z, bundle, requests)])
                    assert len(batch) == len(requests)
                    for (name, kwargs), got in zip(requests, batch):
                        [alone] = bounds.check_columns([bounds.Point(f, z, bundle, [(name, kwargs)])])
                        _same_row(got, alone)
                        _same_row(got, bounds.check_inequality(f, name, z=z, bundle=bundle, **kwargs))
                        order = got.k or sum(got.v)
                        own = bundle if bundle is not None else cauchy.partial_bundle(f, z, order)
                        assert (got.lhs, got.rhs) == _reference(f, name, z, own, **kwargs)
                    rows += batch
                for got, want in zip(bounds.check_columns(points), rows, strict=True):
                    _same_row(got, want)

    @pytest.mark.parametrize("n, m", [(2, 1), (2, 3), (3, 2), (3, 3)])
    def test_origin_rows_of_mixed_orders_are_bitwise_their_lone_rows(self, monkeypatch, n, m):
        # the equality suite's origin-extremal grid (every |v| <= 4, |a0| in {0, 0.3, 0.7}) with a
        # polynomial map and its wrapped twin, 3.1 and Parseval rows mixed in: the batch takes one
        # origin_coefficients call per order, and each row is bitwise its request's row alone
        rng = np.random.default_rng(10 * n + m)
        points = []
        for v in mi.enumerate_up_to(n, 4, include_zero=False):
            for a0_abs in (0.0, 0.3, 0.7):
                f = harness._extremal_origin(rng, m, a0_abs, v)
                points.append(bounds.Point(f, None, None, [("3.2", {"v": v})]))
        beta = unit(rng, n)
        f = geometry.extremal_origin_from_direction(0.3 * unit(rng, m), unit(rng, m), (1,) * n)
        points.append(bounds.Point(f, None, None, [("3.1", {"beta": beta, "k": 2}), ("3.2", {"v": (1,) * n}),
                                                   ("parseval-torus", {"beta": beta, "k": 3})]))
        poly = random_polymap(n, m, 3, seed=n + m)
        for g in (poly, OpaqueMap(poly)):
            points.append(bounds.Point(g, None, None, [("3.1", {"beta": beta, "k": k}) for k in (1, 2, 3)]
                                       + [("3.2", {"v": (2,) + (0,) * (n - 1)}),
                                          ("parseval-slice", {"beta": beta, "k": 3})]))
        calls = []
        batched = cauchy.origin_coefficients

        def counted(fs, indices):
            calls.append(max(map(sum, indices)))
            return batched(fs, indices)

        monkeypatch.setattr(cauchy, "origin_coefficients", counted)
        rows = bounds.check_columns(points)
        assert sorted(calls) == [1, 2, 3, 4]
        assert len(rows) == sum(len(point.requests) for point in points)
        want = [bounds.check_inequality(f, name, **kwargs) for f, _, _, requests in points
                for name, kwargs in requests]
        for got, alone in zip(rows, want, strict=True):
            _same_row(got, alone)

    @pytest.mark.parametrize("opaque", [False, True], ids=["poly", "slices"])
    def test_map_leaving_the_ball_at_the_origin_raises_in_a_batch(self, opaque):
        rng = np.random.default_rng(3)
        outside = PolyMap(2, 2, {(0, 0): [0.6, 0.81], (1, 1): [0.1, 0.0]})  # |f(0)| > 1
        points = [bounds.Point(harness._extremal_origin(rng, 2, 0.3, v), None, None, [("3.2", {"v": v})])
                  for v in [(1, 0), (1, 1), (2, 1)]]
        points.insert(1, bounds.Point(OpaqueMap(outside) if opaque else outside, None, None,
                                      [("3.2", {"v": (1, 1)})]))
        with pytest.raises(MapDomainError, match=r"f\(0\) must lie strictly inside the unit ball"):
            bounds.check_columns(points)

    def test_context_checked_before_any_derivative_work(self, monkeypatch):
        def no_derivative(*args):
            raise AssertionError("derivative work started before every context was checked")

        monkeypatch.setattr(bounds, "_derivative", no_derivative)
        f = random_polymap(2, 2, 3, seed=12)
        requests = [("1.4", {"beta": np.array([1.0, 0.0]), "k": 2}), ("5.1", {"v": (1, 1)}),
                    ("5.1", {"v": (1, 0, 0)})]
        with pytest.raises(ValueError, match="does not have dimension 2"):
            bounds.check_columns([bounds.Point(f, np.array([0.3, 0.1j]), None, requests)])

    @pytest.mark.parametrize("beta, message", [
        ([np.nan, 0.0], "entries must be finite"), ([np.inf, 0.0], "entries must be finite"),
        ([0.0, 0.0], "must be non-zero"), ([1.0, 0.0, 0.0], "in C\\^2, got dimension 3"),
        ([[1.0, 0.0]], r"^a direction must be a vector, got shape \(1, 2\)$"),
    ], ids=["nan", "inf", "zero", "length-3", "two-axes"])
    @pytest.mark.parametrize("ineq", ["1.3", "1.4", "3.1"])
    def test_bad_direction_raises_before_any_derivative_work(self, monkeypatch, ineq, beta, message):
        def no_derivative(*args):
            raise AssertionError("derivative work started before every direction was checked")

        monkeypatch.setattr(bounds, "_derivative", no_derivative)
        f = random_polymap(2, 2, 3, seed=12)
        z = None if ineq == "3.1" else np.array([0.3, 0.1j])
        order = {} if ineq == "1.3" else {"k": 2}
        good, bad = ({"beta": np.array(b, dtype=complex), **order} for b in ([1.0, 0.0], beta))
        with pytest.raises(MapDomainError, match=message):
            bounds.check_inequality(f, ineq, z=z, **bad)
        with pytest.raises(MapDomainError, match=message):
            bounds.check_columns([bounds.Point(f, z, None, [(ineq, good)]), bounds.Point(f, z, None, [(ineq, bad)])])

    @pytest.mark.parametrize("ineq, m, context, maps", [
        ("1.1", 1, {"k": 1}, "one-variable"), ("4.1", 1, {"k": 1}, "one-variable"),
        ("1.2", 2, {"v": (1, 0)}, "scalar-valued"), ("5.2", 2, {"v": (1, 0)}, "scalar-valued"),
    ])
    def test_id_for_other_dimensions_rejected(self, ineq, m, context, maps):
        f = random_polymap(2, m, 3, seed=15)
        with pytest.raises(ValueError, match=f"inequality {ineq} applies to {maps} maps"):
            bounds.check_inequality(f, ineq, z=np.array([0.3, 0.1j]), **context)

    @pytest.mark.parametrize("ineq, m, context, unread", [
        ("4.1", 1, {"k": 2, "beta": [1.0]}, "beta"), ("5.1", 2, {"v": (1, 0), "beta": [1.0, 0.0]}, "beta"),
        ("3.2", 2, {"v": (1, 1), "beta": [1.0, 0.0]}, "beta"),
        ("1.4", 2, {"beta": [1.0, 0.0], "k": 2, "v": (1, 0)}, "v"),
        ("3.1", 2, {"beta": [1.0, 0.0], "k": 2, "v": (1, 1)}, "v"),
        ("parseval-torus", 2, {"beta": [1.0, 0.0], "k": 2, "v": (1, 1)}, "v"),
        ("5.1", 2, {"v": (1, 0), "k": 1}, "k"), ("3.2", 2, {"v": (1, 1), "k": 7}, "k"),
        ("1.3", 2, {"beta": [1.0, 0.0], "k": 1}, "k"), ("1.3", 2, {"beta": [1.0, 0.0], "k": 5}, "k"),
    ], ids=["4.1-beta", "5.1-beta", "3.2-beta", "1.4-v", "3.1-v", "parseval-v", "5.1-k", "3.2-k", "1.3-k1", "1.3-k5"])
    def test_context_the_id_does_not_read_rejected(self, monkeypatch, ineq, m, context, unread):
        def no_derivative(*args):
            raise AssertionError("derivative work started before every context was checked")

        monkeypatch.setattr(bounds, "_derivative", no_derivative)
        n = 1 if ineq == "4.1" else 2
        f = random_polymap(n, m, 3, seed=15)
        z = None if ineq in ("3.1", "3.2", "parseval-torus") else np.array([0.3, 0.0][:n])
        message = f"^inequality {ineq} does not read the argument {unread}$"
        with pytest.raises(ValueError, match=message):
            bounds.check_inequality(f, ineq, z=z, **context)
        with pytest.raises(ValueError, match=message):
            bounds.check_columns([bounds.Point(f, z, None, [(ineq, context)])])

    def test_unknown_request_argument_raises(self):
        f = random_polymap(2, 2, 3, seed=12)
        point = bounds.Point(f, np.array([0.3, 0.1j]), None, [("5.1", {"v": (1, 0), "w": 1})])
        with pytest.raises(TypeError, match=r"unexpected request arguments \['w'\]"):
            bounds.check_columns([point])

    @pytest.mark.parametrize("as_v", [list, np.array], ids=["list", "array"])
    @pytest.mark.parametrize("ineq", ["3.2", "5.1", "5.3"])
    def test_v_as_any_int_sequence_gives_the_tuple_row(self, ineq, as_v):
        f = random_polymap(2, 2, 3, seed=12)
        z = np.array([0.3, 0.0])  # on the z1-axis, for 5.3
        want = bounds.check_inequality(f, ineq, z=z, v=(2, 1))
        _same_row(bounds.check_inequality(f, ineq, z=z, v=as_v((2, 1))), want)

    def test_empty_batch_gives_no_rows(self):
        assert bounds.check_columns([]) == []

    @pytest.mark.parametrize("n, m", [(3, 2), (2, 1)], ids=["n", "m"])
    def test_maps_of_one_batch_share_n_and_m(self, monkeypatch, n, m):
        def no_derivative(*args):
            raise AssertionError("derivative work started before every map was checked")

        monkeypatch.setattr(bounds, "_derivative", no_derivative)
        f, g = random_polymap(2, 2, 3, seed=12), random_polymap(n, m, 3, seed=13)
        points = [bounds.Point(f, np.array([0.3, 0.1j]), None, [("5.1", {"v": (1, 0)})]),
                  bounds.Point(g, np.zeros(n), None, [("5.1", {"v": (1,) + (0,) * (n - 1)})])]
        with pytest.raises(ValueError, match=rf"share \(n, m\) = \(2, 2\); point 1 has \({n}, {m}\)"):
            bounds.check_columns(points)

    @pytest.mark.parametrize("k", [2.7, 2.0, True, "2"], ids=["fraction", "integral-float", "bool", "string"])
    def test_order_that_is_not_an_int_rejected_after_its_valid_twin(self, k):
        # 2.0 and True hash like 2 and 1, so the check must run before the cached context check
        f, z, beta = random_polymap(2, 2, 3, seed=12), np.array([0.3, 0.1j]), np.array([1.0, 0.5j])
        for twin in (1, 2):
            bounds.check_inequality(f, "1.4", z=z, beta=beta, k=twin)
        with pytest.raises(ValueError, match="derivative order must be a non-negative int"):
            bounds.check_inequality(f, "1.4", z=z, beta=beta, k=k)
        point = bounds.Point(f, z, None, [("1.4", {"beta": beta, "k": 2}), ("1.4", {"beta": beta, "k": k})])
        with pytest.raises(ValueError, match="derivative order must be a non-negative int"):
            bounds.check_columns([point])

    @pytest.mark.parametrize("v", [(True, 1), (1.0, 1)], ids=["bool", "integral-float"])
    @pytest.mark.parametrize("ineq", ["3.2", "5.1"])
    def test_multi_index_that_is_not_ints_rejected_after_its_valid_twin(self, ineq, v):
        f, z = random_polymap(2, 2, 3, seed=12), np.array([0.3, 0.1j])
        bounds.check_inequality(f, ineq, z=z, v=(1, 1))
        with pytest.raises(ValueError, match="multi-index entries must be non-negative integers"):
            bounds.check_inequality(f, ineq, z=z, v=v)

    @pytest.mark.parametrize("ineq, context", [("4.1", {"k": 0}), ("1.4", {"beta": [1.0], "k": 0}),
                                               ("5.1", {"v": (0,)})])
    def test_zero_order_rejected(self, ineq, context):
        f = random_polymap(1, 2, 3, seed=14)
        with pytest.raises(ValueError, match="order must be at least 1|non-zero multi-index"):
            bounds.check_inequality(f, ineq, z=np.array([0.2]), **context)


def _spread(rng, shape):
    """Normal draws scaled across 16 decades, so every exponent range is hit."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)


def _parity(primitive, rng):
    """(column result, scalar result) of one primitive on 10^4 seeded inputs."""
    size = 10 ** 4
    re, im = _spread(rng, size), _spread(rng, size)
    if primitive == "hypot":
        return np.hypot(re, im), [abs(complex(a, b)) for a, b in zip(re.tolist(), im.tolist())]
    if primitive == "sqrt":
        x = np.abs(re)
        return np.sqrt(x), [math.sqrt(a) for a in x.tolist()]
    if primitive == "arithmetic":
        a, b, c = re, im, _spread(rng, size)
        column = (a * b + c) / b - a
        return column, [(x * y + w) / y - x for x, y, w in zip(a.tolist(), b.tolist(), c.tolist())]
    m = 1 + np.arange(size) % 4  # row lengths 1..4, each reduced as an (R, m) array
    rows = [(re + 1j * im)[m == k].reshape(-1, 1)[: (m == k).sum() // k * k].reshape(-1, k) for k in (1, 2, 3, 4)]
    if primitive == "add.reduce":
        column = [np.add.reduce(x, axis=-1) for x in rows] + [np.add.reduce(x.real, axis=-1) for x in rows]
        scalar = [[np.add.reduce(r) for r in x] for x in rows] + [[np.add.reduce(r) for r in x.real] for x in rows]
        return np.concatenate(column), np.concatenate(scalar)
    if primitive == "multiply":
        other = [x[::-1] for x in rows]
        return (np.concatenate([(x * y[0]).ravel() for x, y in zip(rows, other)]),
                np.concatenate([(r * y[0]).ravel() for x, y in zip(rows, other) for r in x]))
    if primitive == "power":
        exps = [rng.integers(0, 6, size=x.shape) for x in rows]
        return (np.concatenate([np.multiply.reduce(x ** e, axis=-1) for x, e in zip(rows, exps)]),
                np.concatenate([[np.prod(r ** q) for r, q in zip(x, e)] for x, e in zip(rows, exps)]))
    weights = rng.integers(1, 10 ** 4, size)  # "weights": an integer weight times a complex power
    z = re + 1j * im
    return weights * z, [int(w) * c for w, c in zip(weights.tolist(), z)]


@pytest.mark.parametrize("primitive", ["hypot", "sqrt", "arithmetic", "add.reduce", "multiply", "power",
                                       "weights"])
def test_column_primitive_rounds_as_its_scalar_counterpart(primitive):
    # the batch's columns are bitwise the lone request's scalars only while these hold; np.abs on
    # complex values and array ** k (against float ** k) do not, which is why the columns avoid them
    column, scalar = _parity(primitive, np.random.default_rng(61))
    column, scalar = np.asarray(column), np.asarray(scalar)
    assert column.shape == scalar.shape and column.size > 1000
    assert column.tobytes() == scalar.tobytes(), f"{primitive} rounds differently in columns"


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_column_sum_sq_norm_is_the_reduction(width):
    # sq_norm adds its last axis column by column; np.add.reduce adds these short axes in the same order
    rng = np.random.default_rng(62 + width)
    z = _spread(rng, (10 ** 4, width)) + 1j * _spread(rng, (10 ** 4, width))
    squares = z.real ** 2 + z.imag ** 2
    for stacked in (z, z.reshape(100, 100, width)):
        assert sq_norm(stacked).tobytes() == np.add.reduce(stacked.real ** 2 + stacked.imag ** 2, axis=-1).tobytes()
    singles = np.array([sq_norm(row) for row in z])
    assert singles.tobytes() == np.array([np.add.reduce(row) for row in squares]).tobytes()


class TestNonFiniteBundle:
    """A bundle with one NaN partial, beside finite requests in the same batch."""

    def setup_method(self):
        self.f = random_polymap(2, 2, 3, seed=30)
        self.z = np.array([0.3, 0.1j])
        self.bundle = cauchy.partial_bundle(self.f, self.z, 2)
        self.bundle[(1, 1)] = np.array([np.nan, 0.1 + 0.2j])

    def test_directional_row_still_raises(self):
        requests = [("5.1", {"v": (1, 0)}), ("1.4", {"beta": [1.0, 0.5j], "k": 1}),
                    ("1.4", {"beta": [1.0, 0.5j], "k": 2})]
        with pytest.raises(MapDomainError, match="derivative entries must be finite"):
            bounds.check_columns([bounds.Point(self.f, self.z, self.bundle, requests)])

    def test_partial_row_reports_nan_and_fails_the_sample(self):
        requests = [("5.1", {"v": v}) for v in ((1, 0), (1, 1), (0, 2))] + [("1.4", {"beta": [1.0, 0.5j], "k": 1})]
        points = [bounds.Point(self.f, self.z, self.bundle, requests)]
        rows = bounds.check_columns(points)
        assert [math.isnan(row.slack) for row in rows] == [False, True, False, False]
        assert math.isnan(rows[1].lhs) and math.isnan(rows[1].ratio) and rows[1].rhs > 0
        for (name, kwargs), row in zip(requests, rows):
            alone = bounds.check_inequality(self.f, name, z=self.z, bundle=self.bundle, **kwargs)
            assert np.array_equal(row[5:], alone[5:], equal_nan=True)  # lhs, rhs, slack, ratio
        config = harness.SuiteConfig(suite="partials", n=2, m=2)
        records, _ = harness._records(config, harness._labelled("poly-0000", self.f, points))
        report = harness._finalize(config, records, {"poly-0000": self.f})
        assert report.summary["failure_count"] == 1 and math.isnan(report.summary["min_slack"])
        assert [failure["sample"] for failure in report.failures] == ["poly-0000"]

    def test_both_sides_zero_give_zero_ratio(self):
        # a direction of modulus 1e-100 underflows both sides of 1.4 at k >= 2 to zero
        beta = 1e-100 * np.array([0.6, 0.8j])
        requests = [("1.4", {"beta": beta, "k": k}) for k in (1, 2, 3)] + [("5.1", {"v": (2, 0)})]
        rows = bounds.check_columns([bounds.Point(self.f, self.z, None, requests)])
        assert [(row.lhs, row.rhs, row.ratio) for row in rows[1:3]] == [(0.0, 0.0, 0.0)] * 2
        assert rows[0].ratio == rows[0].lhs / rows[0].rhs > 0.0


class TestUniversalSoundness:
    def test_mixed_map_families_satisfy_all_applicable_bounds(self):
        rng = np.random.default_rng(77)
        maps = [
            random_polymap(2, 2, 4, seed=1),
            random_polymap(2, 1, 4, seed=2),
            geometry.AutomorphismMap(0.5 * unit(rng, 2)),
            Composition(geometry.AutomorphismMap(0.4 * unit(rng, 2)), random_polymap(2, 2, 3, seed=3)),
            geometry.extremal_origin_from_direction(0.3 * unit(rng, 2), unit(rng, 2), (1, 1)),
            geometry.Remark3Map(0.45, 0.5, (1, 1)),
            geometry.Remark4Map(0.45, 0.6, n=2),
        ]
        orders = mi.enumerate_up_to(2, 3, include_zero=False)
        for f in maps:
            for trial in range(3):
                z = 0.8 * unit(rng, 2) * rng.uniform()
                beta = unit(rng, 2)
                bundle = cauchy.partial_bundle(f, z, 3)
                for k in (1, 2, 3):
                    rep = bounds.check_inequality(f, "1.4", z=z, beta=beta, k=k, bundle=bundle)
                    assert rep.slack >= -1e-8
                for v in orders:
                    rep = bounds.check_inequality(f, "5.1", z=z, v=v, bundle=bundle)
                    assert rep.slack >= -1e-8
                    if f.m == 1:
                        rep = bounds.check_inequality(f, "5.2", z=z, v=v, bundle=bundle)
                        assert rep.slack >= -1e-8
                axis_z = np.zeros(2, dtype=complex)
                axis_z[0] = 0.6 * rng.uniform() * cmath.exp(2j * math.pi * rng.uniform())
                axis_bundle = cauchy.partial_bundle(f, axis_z, 3)
                for v in orders:
                    rep = bounds.check_inequality(f, "5.3", z=axis_z, v=v, bundle=axis_bundle)
                    assert rep.slack >= -1e-8


class TestRemarkRatioLaws:
    def test_remark2_exact_ratio_law(self):
        xi = 0.5 * cmath.exp(0.4j)
        w_dir = np.array([0.6, 0.8j])
        for k in (1, 2, 3, 4):
            for w_abs in (0.5, 0.9):
                f = geometry.Remark2Map(xi, w_abs * w_dir)
                dk = cauchy.partial_bundle(f, np.array([xi]), k)[(k,)]
                ratio = quadratic_form(dk, w_abs * w_dir) / bounds.rhs_disk(k, abs(xi), 1.0 - w_abs ** 2)
                predicted = ((w_abs + abs(xi)) / (1.0 + abs(xi))) ** (2 * (k - 1))
                assert ratio == pytest.approx(predicted, abs=1e-8)

    def test_remark3_ratio_floor_and_display(self):
        w = 0.5 * cmath.exp(0.3j)
        for v in ((1, 1), (2, 1), (1, 2), (2, 2)):
            xi1 = 0.55 * cmath.exp(0.9j)
            f = geometry.Remark3Map(xi1, w, v)
            z = np.zeros(2, dtype=complex)
            z[0] = xi1
            dv = cauchy.partial_bundle(f, z, sum(v))[v]
            display = remark3_derivative(xi1, w, v)
            assert abs(dv[0] - display) <= 1e-8 * abs(display)
            ratio = quadratic_form(dv, f.eval(z[None, :])[0]) / bounds.rhs_radial(v, abs(xi1), 1.0 - abs(w) ** 2)
            assert ratio >= 2.0 ** (-2 * (sum(v) - 1)) - 1e-8
            assert ratio == pytest.approx(1.0 / bounds.mu_factor(v, abs(xi1)) ** 2, rel=1e-9)

    def test_remark4_ratio_law(self):
        xi1 = 0.5 * cmath.exp(1.2j)
        for k in (1, 2, 3, 4):
            for w_abs in (0.5, 0.9):
                f = geometry.Remark4Map(xi1, w_abs * cmath.exp(0.15j), n=2)
                v = (k, 0)
                z = np.zeros(2, dtype=complex)
                z[0] = xi1
                dk = cauchy.partial_bundle(f, z, k)[v]
                ratio = abs(dk[0]) / math.sqrt(bounds.rhs_radial(v, abs(xi1), 1.0 - w_abs ** 2))
                predicted = ((w_abs + abs(xi1)) / (1.0 + abs(xi1))) ** (k - 1)
                assert ratio == pytest.approx(predicted, abs=1e-8)
