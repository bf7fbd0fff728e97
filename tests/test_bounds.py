import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schwarzpick import bounds, cauchy, geometry
from schwarzpick import multiindex as mi
from schwarzpick.holomap import MapDomainError, compose_ball_automorphism, random_polymap
from support import OpaqueMap


def unit(rng, dim):
    g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return g / np.linalg.norm(g)


class TestLhsQuadratic:
    def test_center_at_origin(self):
        d = np.array([0.3, 0.4j])
        assert bounds.lhs_quadratic(d, np.zeros(2)) == pytest.approx(0.25, rel=1e-14)

    def test_zero_derivative(self):
        assert bounds.lhs_quadratic(np.zeros(2), np.array([0.5, 0.1])) == 0.0

    def test_scalar_example(self):
        assert bounds.lhs_quadratic(np.array([1.0]), np.array([0.5])) == pytest.approx(1.0, rel=1e-15)

    @given(st.integers(0, 10 ** 6), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_equals_scaled_metric_form(self, seed, m):
        rng = np.random.default_rng(seed)
        fz = 0.9 * unit(rng, m) * rng.uniform()
        d = 3.0 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        lhs = bounds.lhs_quadratic(d, fz)
        scaled = (1.0 - np.linalg.norm(fz) ** 2) ** 2 * geometry.bergman_metric(fz, d)
        assert lhs == pytest.approx(scaled, rel=1e-12)


class TestRhsMain:
    def test_first_order_is_metric(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            z = 0.8 * unit(rng, 2) * rng.uniform()
            beta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            assert bounds.rhs_main(1, z, beta) == geometry.bergman_metric(z, beta)

    def test_origin_second_order(self):
        assert bounds.rhs_main(2, np.zeros(2), np.array([1.0, 0.0])) == pytest.approx(4.0, rel=1e-14)

    def test_factor_increases_with_radial_alignment(self):
        z = np.array([0.6, 0.0])
        vals = []
        for t in np.linspace(0.0, 1.0, 11):
            beta = np.array([t, math.sqrt(1.0 - t * t)])
            # strip H^k so only the alignment factor (k = 2) is compared
            vals.append(bounds.rhs_main(2, z, beta) / geometry.bergman_metric(z, beta) ** 2)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_orthogonal_direction_factor_is_one(self):
        z = np.array([0.7, 0.0])
        beta = np.array([0.0, 1.0])
        for k in (1, 2, 3, 4):
            expected = math.factorial(k) ** 2 * geometry.bergman_metric(z, beta) ** k
            assert bounds.rhs_main(k, z, beta) == pytest.approx(expected, rel=1e-14)

    def test_homogeneity_degree_zero_of_factor(self):
        z = np.array([0.4, 0.3j])
        beta = np.array([0.2, 0.5 - 0.1j])
        for c in (2.0, 0.5 + 0.5j):
            lhs = bounds.rhs_main(3, z, c * beta)
            rhs = bounds.rhs_main(3, z, beta) * (abs(c) ** 2) ** 3
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestRhsDisk:
    def test_identity_map_first_order_equality(self):
        # the identity disk map attains the quadratic-form bound at k = 1
        assert bounds.lhs_quadratic(np.array([1.0]), np.array([0.5])) == pytest.approx(
            bounds.rhs_disk(1, 0.5, 0.5), rel=1e-14)

    def test_origin_value(self):
        assert bounds.rhs_disk(3, 0.0, 0.0) == pytest.approx(36.0, rel=0)

    def test_half_point_value(self):
        assert bounds.rhs_disk(2, 0.5, 0.0) == pytest.approx((16.0 / 3.0) ** 2, rel=1e-14)


class TestRhsPartial:
    def test_diagonal_pair_at_origin(self):
        got = bounds.rhs_partial((1, 1), np.zeros(2), 0.0)
        assert got.scalar == pytest.approx(2.0, rel=0)
        assert got.squared == pytest.approx(4.0, rel=0)

    def test_single_axis_reduces_to_disk_bound(self):
        for k in (1, 2, 3):
            got = bounds.rhs_partial((k,), np.array([0.4]), 0.3)
            assert got.squared == pytest.approx(bounds.rhs_disk(k, 0.4, 0.3), rel=1e-14)

    def test_scalar_bound_never_exceeds_benchmark(self):
        for n in (1, 2, 3):
            for t in (0.0, 0.3, 0.6, 0.9):
                z = np.zeros(n)
                z[0] = t
                for kv in range(1, 6):
                    for v in mi.enumerate_indices(n, kv):
                        got = bounds.rhs_partial(v, z, 0.2)
                        assert got.scalar <= got.benchmark_scalar + 1e-12


class TestRhsRadial:
    def test_full_first_component_matches_partial_bound(self):
        z = np.array([0.5, 0.0])
        for k in (1, 2, 3):
            v = (k, 0)
            assert bounds.rhs_radial(v, z, 0.2) == pytest.approx(
                bounds.rhs_partial(v, z, 0.2).squared, rel=1e-14)

    def test_truncated_binomial(self):
        assert bounds.mu_factor((1, 2), 0.5) == pytest.approx(2.0, rel=0)
        for v in ((1, 2), (2, 1), (3, 2)):
            assert bounds.mu_factor(v, 0.0) == 1.0

    def test_off_axis_rejected(self):
        with pytest.raises(MapDomainError):
            bounds.rhs_radial((1, 1), np.array([0.2, 0.1]), 0.0)


class TestRhsOrigin:
    def test_center_free_values(self):
        got = bounds.rhs_origin((1, 1), 0.0)
        assert got.slice_bound == 1.0
        assert got.coefficient_bound == 4.0

    def test_slice_bound_at_radius(self):
        assert bounds.rhs_origin((1,), 0.6).slice_bound == pytest.approx(0.4096, rel=1e-14)


class TestAjCoefficients:
    def test_disk_values_at_half(self):
        got = bounds.aj_coefficients(2, 0.5)
        assert got.term_sum == pytest.approx(16.0 / 3.0, rel=1e-14)
        assert got.term_sum == pytest.approx(got.closed_form, rel=1e-14)

    def test_first_order_sum(self):
        for t in (0.0, 0.3, 0.8):
            got = bounds.aj_coefficients(1, t)
            assert got.term_sum == pytest.approx(1.0 / (1.0 - t * t), rel=1e-14)

    def test_center_keeps_only_top_term(self):
        for k in (1, 2, 3, 4):
            got = bounds.aj_coefficients(k, 0.0)
            assert got.magnitudes[:-1] == tuple([0.0] * (k - 1))
            assert got.term_sum == pytest.approx(float(math.factorial(k)), rel=0)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_sum_identity(self, k):
        for t in np.arange(0.0, 0.91, 0.1):
            got = bounds.aj_coefficients(k, float(t))
            assert got.term_sum == pytest.approx(got.closed_form, rel=1e-12)

    def test_radial_variant_identity_and_value(self):
        got = bounds.aj_coefficients(3, 0.5, variant="radial", v=(1, 2))
        assert got.orders == (0, 1)
        assert got.term_sum == pytest.approx(64.0 / 9.0, rel=1e-14)
        assert got.term_sum == pytest.approx(got.closed_form, rel=1e-12)

    def test_radial_variant_single_axis_matches_disk(self):
        disk = bounds.aj_coefficients(3, 0.4)
        radial = bounds.aj_coefficients(3, 0.4, variant="radial", v=(3,))
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

    @pytest.mark.parametrize("f", [random_polymap(2, 1, 3, seed=13), geometry.AutomorphismMap(np.array([0.3, 0.1j]))],
                             ids=["poly", "automorphism"])
    def test_nan_point_raises_instead_of_reporting_nan(self, f):
        # nan >= 1 is False, so a NaN point once passed every inside-the-ball check
        z = np.array([np.nan, 0.0])
        with pytest.raises(MapDomainError):
            bounds.check_inequality(f, "5.1", z=z, v=(1, 0))
        bundle = cauchy.partial_bundle(f, np.zeros(2), 1)
        with pytest.raises(MapDomainError):
            bounds.check_inequality(f, "5.1", z=z, v=(1, 0), bundle=bundle)

    def test_nan_point_rejected_by_every_rhs(self):
        z = np.array([np.nan, 0.0])
        for rhs in (lambda: bounds.rhs_disk(1, np.nan, 0.0), lambda: bounds.rhs_partial((1, 0), z, 0.0),
                    lambda: bounds.rhs_radial((1, 0), z, 0.0), lambda: bounds.rhs_main(1, z, [1.0, 0.0])):
            with pytest.raises(MapDomainError):
                rhs()

    def test_ratio_convention_when_both_sides_vanish(self):
        rep = bounds.BoundReport.build("1.4", 0.0, 0.0, {})
        assert rep.ratio == 0.0

    def test_constant_map_gives_zero_ratio(self):
        from schwarzpick.holomap import PolyMap
        f = PolyMap(2, 2, {(0, 0): [0.2, 0.1j]})
        rep = bounds.check_inequality(f, "1.4", z=np.array([0.3, 0.0]), beta=np.array([1.0, 0.0]), k=2)
        assert rep.lhs == 0.0 and rep.ratio == 0.0


def _requests(ineq, n, rng):
    """Several contexts of one id, some sharing a direction or an order."""
    def unit_direction():
        return unit(rng, n)

    orders = mi.enumerate_up_to(n, 3, include_zero=False)
    if ineq in ("1.3", "1.4"):
        betas = [unit_direction(), 2.0 * unit_direction(), np.eye(n)[0]]
        return [(ineq, {"beta": b, "k": k}) for b in betas + betas[:1] for k in (1, 2, 3)]
    if ineq == "3.1":
        return [(ineq, {"beta": b, "k": k}) for b in (unit_direction(), np.eye(n)[-1]) for k in (1, 3, 2, 3)]
    if ineq in ("1.1", "4.1"):
        return [(ineq, {"k": k}) for k in (1, 2, 3, 2)]
    return [(ineq, {"v": v}) for v in orders + orders[:2]]


def _same_report(a, b):
    assert (a.inequality, a.lhs, a.rhs, a.slack, a.ratio) == (b.inequality, b.lhs, b.rhs, b.slack, b.ratio)
    assert a.context.keys() == b.context.keys()
    for key, value in a.context.items():
        assert np.array_equal(value, b.context[key]) if key in ("z", "beta") else value == b.context[key]


def _reference(f, ineq, z, bundle, beta=None, k=None, v=None):
    """(lhs, rhs) of one request from the public single-context formulas."""
    zero = (0,) * f.n
    k = 1 if ineq == "1.3" else k
    if ineq in ("3.1", "3.2"):
        indices = mi.enumerate_indices(f.n, k) if ineq == "3.1" else [v]
        coeffs = cauchy.taylor_coefficients(f, [zero] + indices)
        a0 = coeffs[zero]
        if ineq == "3.1":
            d = sum(coeffs[a] * np.prod(np.asarray(beta, dtype=complex) ** np.array(a)) for a in indices)
            return bounds.lhs_quadratic(d, a0), bounds.rhs_origin((k,), float(np.linalg.norm(a0))).slice_bound
        return bounds.lhs_quadratic(coeffs[v], a0), bounds.rhs_origin(v, float(np.linalg.norm(a0))).coefficient_bound
    fz = bundle[zero]
    a = float(np.linalg.norm(fz))
    if ineq in ("1.3", "1.4"):
        d = cauchy.frechet_from_bundle(bundle, beta, k, f.n)
        return geometry.bergman_metric(fz, d), bounds.rhs_main(k, z, beta)
    d = bundle[(k,)] if ineq in ("1.1", "4.1") else bundle[v]
    norm = float(np.linalg.norm(d))
    return {
        "1.1": lambda: (norm / (1.0 - a ** 2), bounds.rhs_disk_classical(k, z[0], a)),
        "1.2": lambda: (norm, bounds.rhs_partial(v, z, a).benchmark_scalar),
        "4.1": lambda: (bounds.lhs_quadratic(d, fz), bounds.rhs_disk(k, z[0], a)),
        "5.1": lambda: (bounds.lhs_quadratic(d, fz), bounds.rhs_partial(v, z, a).squared),
        "5.2": lambda: (norm, bounds.rhs_partial(v, z, a).scalar),
        "5.3": lambda: (bounds.lhs_quadratic(d, fz), bounds.rhs_radial(v, z, a)),
    }[ineq]()


class TestCheckRequests:
    @pytest.mark.parametrize("opaque", [False, True], ids=["poly", "slices"])
    @pytest.mark.parametrize("ineq", bounds.INEQUALITY_IDS)
    def test_batch_equals_single_requests(self, ineq, opaque):
        row = bounds._BOUNDS[ineq]
        n = 1 if row.n1 else 2
        f = random_polymap(n, 1 if row.m1 else 2, 4, seed=21)
        f = OpaqueMap(f) if opaque else f
        rng = np.random.default_rng(22)
        z = np.zeros(n, dtype=complex)
        z[0] = 0.6 * cmath.exp(0.7j)
        if ineq != "5.3" and n > 1:
            z[1] = 0.2 - 0.3j
        requests = _requests(ineq, n, rng)
        for bundle in (None, cauchy.partial_bundle(f, z, 3)):
            if bundle is not None and row.derivative in ("slice", "a_v"):
                continue
            batch = bounds.check_requests(f, requests, z=z, bundle=bundle)
            assert len(batch) == len(requests)
            for (name, kwargs), report in zip(requests, batch):
                _same_report(report, bounds.check_inequality(f, name, z=z, bundle=bundle, **kwargs))
                own = bundle if bundle is not None else cauchy.partial_bundle(f, z, report.context.get(
                    "k", sum(report.context.get("v", ()))))
                assert (report.lhs, report.rhs) == _reference(f, ineq, z, own, **kwargs)

    def test_context_checked_before_any_derivative_work(self, monkeypatch):
        def no_derivative(*args):
            raise AssertionError("derivative work started before every context was checked")

        monkeypatch.setattr(bounds, "_derivative", no_derivative)
        f = random_polymap(2, 2, 3, seed=12)
        requests = [("1.4", {"beta": np.array([1.0, 0.0]), "k": 2}), ("5.1", {"v": (1, 1)}),
                    ("5.1", {"v": (1, 0, 0)})]
        with pytest.raises(ValueError, match="does not have dimension 2"):
            bounds.check_requests(f, requests, z=np.array([0.3, 0.1j]))

    @pytest.mark.parametrize("ineq, context", [("4.1", {"k": 0}), ("1.4", {"beta": [1.0], "k": 0}),
                                               ("5.1", {"v": (0,)})])
    def test_zero_order_rejected(self, ineq, context):
        f = random_polymap(1, 2, 3, seed=14)
        with pytest.raises(ValueError, match="order must be at least 1|non-zero multi-index"):
            bounds.check_inequality(f, ineq, z=np.array([0.2]), **context)


class TestUniversalSoundness:
    def test_mixed_map_families_satisfy_all_applicable_bounds(self):
        rng = np.random.default_rng(77)
        maps = [
            random_polymap(2, 2, 4, seed=1),
            random_polymap(2, 1, 4, seed=2),
            geometry.AutomorphismMap(0.5 * unit(rng, 2)),
            compose_ball_automorphism(0.4 * unit(rng, 2), random_polymap(2, 2, 3, seed=3)),
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
                ratio = bounds.lhs_quadratic(dk, w_abs * w_dir) / bounds.rhs_disk(k, xi, w_abs)
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
            display = geometry.remark3_derivative(xi1, w, v)
            assert abs(dv[0] - display) <= 1e-8 * abs(display)
            ratio = bounds.lhs_quadratic(dv, f.eval(z[None, :])[0]) / bounds.rhs_radial(v, z, abs(w))
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
                ratio = abs(dk[0]) / math.sqrt(bounds.rhs_radial(v, z, w_abs))
                predicted = ((w_abs + abs(xi1)) / (1.0 + abs(xi1))) ** (k - 1)
                assert ratio == pytest.approx(predicted, abs=1e-8)
