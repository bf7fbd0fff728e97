import cmath
import math

import numpy as np
import pytest

from schwarzpick import cauchy, geometry, holomap
from schwarzpick import multiindex as mi
from schwarzpick.holomap import MapDomainError, random_polymap
from support import Composition, jacobian, remark2_derivative, remark3_derivative, remark4_derivative


def unit(rng, dim):
    g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return g / np.linalg.norm(g)


class TestBergmanMetric:
    def test_origin_is_euclidean(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            beta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            got = geometry.bergman_metric(np.zeros(3), beta)
            assert got == pytest.approx(float(np.linalg.norm(beta) ** 2), rel=1e-14)

    def test_radial_direction_value(self):
        got = geometry.bergman_metric(np.array([0.5, 0.0]), np.array([1.0, 0.0]))
        assert got == pytest.approx(16.0 / 9.0, rel=1e-14)

    def test_orthogonal_direction_value(self):
        got = geometry.bergman_metric(np.array([0.5, 0.0]), np.array([0.0, 1.0]))
        assert got == pytest.approx(4.0 / 3.0, rel=1e-14)


class TestMoebius:
    def test_zero_maps_to_parameter(self):
        a = np.array([0.4 + 0.1j, -0.2j])
        assert np.allclose(geometry.AutomorphismMap(a).eval(np.zeros(2)), a, atol=1e-15)

    def test_parameter_maps_to_zero(self):
        a = np.array([0.4 + 0.1j, -0.2j])
        assert np.linalg.norm(geometry.AutomorphismMap(a).eval(a)) < 1e-15

    def test_zero_parameter_negates(self):
        w = np.array([0.3, 0.2 - 0.4j])
        assert np.allclose(geometry.AutomorphismMap(np.zeros(2)).eval(w), -w, atol=0)

    def test_involution(self):
        rng = np.random.default_rng(7)
        phi = geometry.AutomorphismMap(0.6 * unit(rng, 3))
        for _ in range(20):
            w = 0.9 * unit(rng, 3) * rng.uniform()
            back = phi.eval(phi.eval(w))
            assert np.max(np.abs(back - w)) < 1e-12

    def test_image_stays_inside_ball(self):
        rng = np.random.default_rng(8)
        phi = geometry.AutomorphismMap(0.7 * unit(rng, 2))
        for _ in range(50):
            w = 0.99 * unit(rng, 2) * rng.uniform()
            assert np.linalg.norm(phi.eval(w)) < 1.0


class TestMoebiusJacobian:
    def test_zero_parameter_gives_negative_identity(self):
        for at in ("origin", "a"):
            got = geometry.moebius_jacobian(np.zeros(2), at)
            assert np.array_equal(got, -np.eye(2))

    def test_product_of_endpoint_jacobians_is_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = 0.7 * unit(rng, 3) * rng.uniform()
            j0 = geometry.moebius_jacobian(a, "origin")
            ja = geometry.moebius_jacobian(a, "a")
            assert np.max(np.abs(j0 @ ja - np.eye(3))) < 1e-12

    def test_unknown_point_name_rejected(self):
        with pytest.raises(ValueError, match="^at must be 'origin' or 'a'$"):
            geometry.moebius_jacobian(np.array([0.3, 0.1j]), at="b")

    def test_matches_finite_differences_at_origin(self):
        a = np.array([0.35 + 0.1j, -0.25])
        j0 = geometry.moebius_jacobian(a, "origin")
        phi = geometry.AutomorphismMap(a)
        step = 1e-5
        for col in range(2):
            e = np.zeros(2, dtype=complex)
            e[col] = step
            diff = (phi.eval(e) - phi.eval(-e)) / (2 * step)
            assert np.max(np.abs(diff - j0[:, col])) < 1e-8

    def test_matches_quadrature_jacobian_at_interior_point(self):
        a = np.array([0.3, 0.2j])
        aut = geometry.AutomorphismMap(a)
        j_quad = jacobian(aut, np.zeros(2))
        assert np.max(np.abs(j_quad - geometry.moebius_jacobian(a, "origin"))) < 1e-12

    def test_metric_invariance_under_automorphisms(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            for _ in range(5):
                a = 0.5 * unit(rng, n) * rng.uniform()
                z = 0.6 * unit(rng, n) * rng.uniform()
                aut = geometry.AutomorphismMap(a)
                jac = jacobian(aut, z)
                fz = aut.eval(z[None, :])[0]
                for _ in range(5):
                    beta = unit(rng, n)
                    lhs = geometry.bergman_metric(fz, jac @ beta)
                    rhs = geometry.bergman_metric(z, beta)
                    assert abs(lhs - rhs) < 1e-9


class TestExtremalOrigin:
    def test_zero_center_is_single_monomial(self):
        v = (2, 1)
        av = np.array([math.sqrt(mi.sharpness_factor(v)) * 0.6,
                       math.sqrt(mi.sharpness_factor(v)) * 0.8j])
        f = geometry.ExtremalOriginMap(np.zeros(2), av, v)
        z = np.array([[0.3, 0.4j], [0.5, -0.2]])
        expected = av * (z[:, 0] ** 2 * z[:, 1])[:, None]
        assert np.max(np.abs(f.eval(z) - expected)) < 1e-15

    def test_taylor_coefficients_match_parameters(self):
        a0 = np.array([0.25, 0.15j])
        f = geometry.extremal_origin_from_direction(a0, np.array([0.7, -0.3]), (1, 1))
        got = cauchy.taylor_coefficients(f, [(0, 0), (1, 1)])
        assert np.linalg.norm(got[(0, 0)] - a0) < 1e-10
        assert np.linalg.norm(got[(1, 1)] - f.av) < 1e-10 * np.linalg.norm(f.av)

    def test_equality_condition_attained_at_origin(self):
        for a0_abs in (0.0, 0.3, 0.7):
            rng = np.random.default_rng(int(a0_abs * 10))
            a0 = a0_abs * unit(rng, 2) if a0_abs else np.zeros(2)
            f = geometry.extremal_origin_from_direction(a0, unit(rng, 2), (2, 1))
            gap = geometry.origin_equality_gap(f.a0, f.av, (2, 1))
            assert abs(gap) < 1e-10

    def test_values_stay_inside_ball(self):
        rng = np.random.default_rng(5)
        f = geometry.extremal_origin_from_direction(0.7 * unit(rng, 2), unit(rng, 2), (2, 2))
        for _ in range(200):
            z = 0.95 * unit(rng, 2) * rng.uniform() ** 0.25
            assert np.linalg.norm(f.eval(z[None, :])[0]) < 1.0

    def test_monomial_is_the_one_a_polymap_evaluates(self):
        # z^v by successive multiplication, bitwise a PolyMap's monomial, not numpy's complex power
        rng = np.random.default_rng(8)
        for v in [(1, 0), (2, 1), (3, 3, 2), (1, 2, 1, 1), (0, 4, 0)]:
            f = geometry.extremal_origin_from_direction(0.3 * unit(rng, 2), unit(rng, 2), v)
            z = np.array([0.9 * unit(rng, len(v)) * rng.uniform() for _ in range(50)])
            zv = holomap._monomials(holomap._power_table(z, max(v)), np.array([v]))[:, 0]
            assert f.eval(z).tobytes() == (f.a0 + f.av * (zv / (1.0 + f._c * zv))[:, None]).tobytes(), v

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_columns_are_bitwise_the_broadcast_formula(self, n):
        # one output column per codomain coordinate, on a slice grid and on scattered points
        rng = np.random.default_rng(30 + n)
        grid = cauchy._origin_grid(n, 4)
        scattered = np.array([0.95 * unit(rng, n) * rng.uniform() for _ in range(300)])
        for m in (1, 2, 3, 4):
            for v in mi.enumerate_up_to(n, 4, include_zero=False)[::3]:
                for a0_abs in (0.0, 0.3, 0.7):
                    a0 = a0_abs * unit(rng, m) if a0_abs else np.zeros(m)
                    f = geometry.extremal_origin_from_direction(a0, unit(rng, m), v)
                    for z in (grid, scattered):
                        zv = holomap._monomial(z, f.v)
                        want = f.a0 + f.av * (zv / (1.0 + f._c * zv))[..., None]
                        got = f.eval(z)
                        assert got.shape == want.shape == z.shape[:-1] + (m,)
                        assert got.tobytes() == want.tobytes(), (m, v, a0_abs)

    def test_violated_equality_condition_rejected(self):
        with pytest.raises(MapDomainError):
            geometry.ExtremalOriginMap(np.zeros(2), np.array([0.5, 0.0]), (1, 1))

    def test_center_on_the_sphere_rejected(self):
        with pytest.raises(MapDomainError, match="must lie strictly inside the unit ball"):
            geometry.ExtremalOriginMap([1, 0], [0.5, 0], (1, 1))


class TestExtremalK1:
    def test_zero_data_reduces_to_linear_isometry(self):
        rng = np.random.default_rng(2)
        frame, _ = np.linalg.qr(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
        frame = frame[:, :2]
        # at xi = 0, w0 = 0 the construction is f(z) = J z with J = frame
        jac = geometry.jacobian_from_frame(np.zeros(2), np.zeros(3), frame)
        z = 0.4 * (rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))) / 2
        f = geometry.ExtremalK1Map(np.zeros(2), np.zeros(3), frame)
        assert np.max(np.abs(f.eval(z) - z @ frame.T)) < 1e-14
        assert np.max(np.abs(jac - frame)) < 1e-12

    def test_formula_matches_composition_route(self):
        # same map written as outer-automorphism o linear-isometry o inner-automorphism
        rng = np.random.default_rng(9)
        xi = 0.45 * unit(rng, 2)
        w0 = 0.35 * unit(rng, 3)
        frame, _ = np.linalg.qr(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
        frame = frame[:, :2]
        f = geometry.ExtremalK1Map(xi, w0, geometry.jacobian_from_frame(xi, w0, frame))
        for _ in range(30):
            z = 0.8 * unit(rng, 2) * rng.uniform()
            via_composition = geometry.AutomorphismMap(w0).eval(frame @ geometry.AutomorphismMap(xi).eval(z))
            assert np.max(np.abs(f.eval(z[None, :])[0] - via_composition)) < 1e-12

    def test_automorphism_data_reproduces_automorphism(self):
        rng = np.random.default_rng(4)
        a = 0.4 * unit(rng, 2)
        aut = geometry.AutomorphismMap(a)
        xi = 0.5 * unit(rng, 2)
        w0 = aut.eval(xi[None, :])[0]
        jac = jacobian(aut, xi)
        f = geometry.ExtremalK1Map(xi, w0, jac, tol=1e-8)
        for _ in range(20):
            z = 0.7 * unit(rng, 2) * rng.uniform()
            assert np.max(np.abs(f.eval(z[None, :])[0] - aut.eval(z[None, :])[0])) < 1e-10

    def test_metric_equality_in_every_direction(self):
        rng = np.random.default_rng(6)
        xi = 0.5 * unit(rng, 2)
        w0 = 0.4 * unit(rng, 3)
        frame, _ = np.linalg.qr(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
        f = geometry.ExtremalK1Map(xi, w0, geometry.jacobian_from_frame(xi, w0, frame[:, :2]))
        jac = jacobian(f, xi)
        fz = f.eval(xi[None, :])[0]
        for _ in range(100):
            beta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            lhs = geometry.bergman_metric(fz, jac @ beta)
            rhs = geometry.bergman_metric(xi, beta)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)

    def test_non_isometry_rejected(self):
        rng = np.random.default_rng(13)
        xi = 0.3 * unit(rng, 2)
        w0 = 0.3 * unit(rng, 2)
        frame = 0.5 * np.eye(2)
        with pytest.raises(MapDomainError):
            geometry.ExtremalK1Map(xi, w0, geometry.jacobian_from_frame(xi, w0, frame))

    def test_wide_maps_rejected(self):
        with pytest.raises(MapDomainError):
            geometry.ExtremalK1Map(np.array([0.1, 0.1, 0.1]), np.array([0.1, 0.1]), np.zeros((2, 3)))


class TestRemarkFamilies:
    def test_pinned_values(self):
        xi = 0.5 * cmath.exp(0.7j)
        w2 = 0.8 * np.array([0.6, 0.8j])
        f2 = geometry.Remark2Map(xi, w2)
        assert np.linalg.norm(f2.eval(np.array([[xi]]))[0] - w2) < 1e-12

        f3 = geometry.Remark3Map(xi, 0.4, (1, 2))
        z = np.zeros(2, dtype=complex)
        z[0] = xi
        assert abs(f3.eval(z[None, :])[0, 0] - 0.4) < 1e-12

        f4 = geometry.Remark4Map(xi, 0.3 * cmath.exp(0.2j), n=2)
        z = np.zeros(2, dtype=complex)
        z[0] = xi
        assert abs(f4.eval(z[None, :])[0, 0] - 0.3 * cmath.exp(0.2j)) < 1e-12

    def test_domain_validation(self):
        with pytest.raises(MapDomainError):
            geometry.Remark2Map(0.0, np.array([0.5]))
        with pytest.raises(MapDomainError):
            geometry.Remark2Map(0.5, np.array([1.0]))
        with pytest.raises(MapDomainError):
            geometry.Remark4Map(0.5, 0.0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_remark2_derivative_closed_form(self, k):
        xi = 0.5 * cmath.exp(0.8j)
        w = 0.9 * np.array([0.6, 0.8j])
        f = geometry.Remark2Map(xi, w)
        quad = cauchy.partial_bundle(f, np.array([xi]), k)[(k,)]
        closed = remark2_derivative(xi, w, k)
        assert np.linalg.norm(quad - closed) <= 1e-8 * np.linalg.norm(closed)

    @pytest.mark.parametrize("v", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_remark3_derivative_closed_form(self, v):
        xi1 = 0.4 * cmath.exp(0.5j)
        w = 0.45 * cmath.exp(-1.1j)
        f = geometry.Remark3Map(xi1, w, v)
        z = np.zeros(2, dtype=complex)
        z[0] = xi1
        quad = cauchy.partial_bundle(f, z, sum(v))[v][0]
        closed = remark3_derivative(xi1, w, v)
        assert abs(quad - closed) <= 1e-8 * abs(closed)

    @pytest.mark.parametrize("v", [(1, 1), (2, 1), (1, 2, 3)])
    def test_remark3_at_the_origin_is_the_closed_form_of_minus_z(self, v):
        # phi_0 = -identity, so xi = 0 gives g(-z) with g(y) = (w - s y^v)/(1 - conj(w) s y^v)
        w = 0.45 * cmath.exp(-1.1j)
        rng = np.random.default_rng(len(v))
        z = 0.4 * (rng.standard_normal((20, len(v))) + 1j * rng.standard_normal((20, len(v)))) / len(v)
        u = math.sqrt(mi.sharpness_factor(v)) * np.prod((-z) ** np.array(v), axis=-1)
        want = ((w - u) / (1.0 - np.conj(w) * u))[..., None]
        assert geometry.Remark3Map(0.0, w, v).eval(z).tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_remark4_derivative_modulus(self, k):
        xi1 = 0.5 * cmath.exp(1.1j)
        w = 0.95 * cmath.exp(0.3j)
        f = geometry.Remark4Map(xi1, w, n=2)
        z = np.zeros(2, dtype=complex)
        z[0] = xi1
        quad = cauchy.partial_bundle(f, z, k)[(k, 0)][0]
        closed = remark4_derivative(xi1, w, k)
        assert abs(abs(quad) - abs(closed)) <= 1e-8 * abs(closed)
        assert abs(quad - closed) <= 1e-8 * abs(closed)


@pytest.mark.parametrize("build", [
    lambda: geometry.Remark2Map(np.nan, [0.5]),
    lambda: geometry.Remark2Map(0.5, [np.nan, 0.0]),
    lambda: geometry.Remark3Map(np.nan, 0.5, (1, 1)),
    lambda: geometry.Remark3Map(0.5, np.nan, (1, 1)),
    lambda: geometry.Remark4Map(complex(np.nan, 0.0), 0.5),
    lambda: geometry.Remark4Map(0.5, np.nan),
    lambda: Composition(geometry.AutomorphismMap([np.nan, 0.0]), random_polymap(2, 2, 2, seed=1)),
    lambda: geometry.ExtremalOriginMap([np.nan, 0.0], [0.5, 0.0], (1, 1)),
    lambda: geometry.ExtremalK1Map([np.nan, 0.0], [0.0, 0.0], np.eye(2)),
], ids=["remark2-xi", "remark2-w", "remark3-xi", "remark3-w", "remark4-xi", "remark4-w", "composed-a",
        "extremal-origin-a0", "extremal-k1-xi"])
def test_nan_parameter_raises(build):
    # nan >= 1 is False, so a NaN parameter once built a map whose describe() read nan
    with pytest.raises(MapDomainError):
        build()



@pytest.mark.parametrize("build, message", [
    (lambda: geometry.ExtremalOriginMap([0.0, 0.0], [0.5, 0.0], (0, 0)), "v must be a non-zero multi-index"),
    (lambda: geometry.ExtremalOriginMap([0.0, 0.0], [1.0, 0.0, 0.0], (1, 0)),
     "expected a direction in C\\^2, got dimension 3"),
    (lambda: geometry.Remark3Map(0.5, 0.5, (0, 0, 0)), "v must be a non-zero multi-index"),
    (lambda: geometry.Remark4Map(0.0, 0.5, n=2), "the pinned point must be non-zero"),
    (lambda: geometry.ExtremalK1Map([0.1, 0.0], [0.0, 0.2, 0.0], np.eye(2)), "Jacobian must have shape \\(3, 2\\)"),
    (lambda: geometry.Remark4Map(0.5, 0.5, n=0), "n must be an int >= 1, got 0"),
    (lambda: geometry.Remark4Map(0.5, 0.5, n=-1), "n must be an int >= 1, got -1"),
    (lambda: geometry.Remark4Map(0.5, 0.5, n=True), "n must be an int >= 1, got True"),
    (lambda: geometry.Remark4Map(0.5, 0.5, n=2.7), "n must be an int >= 1, got 2.7"),
    (lambda: geometry.ExtremalOriginMap([0, 0], [np.nan, 0], (1, 1)), "^direction entries must be finite$"),
    (lambda: geometry.ExtremalOriginMap(np.zeros((1, 2)), [2.0, 0.0], (1, 1)),
     r"^a point must be a vector, got shape \(1, 2\)$"),
    # numpy's divide warning is an error in this suite, so this also fails if the zero is divided
    (lambda: geometry.extremal_origin_from_direction([0.3], [0.0], (1,)), "^direction must be non-zero$"),
    (lambda: geometry.extremal_origin_from_direction([0.3], [[1.0]], (1,)),
     r"^a direction must be a vector, got shape \(1, 1\)$"),
    (lambda: geometry.Remark2Map(0.5, np.full((1, 2), 0.3)), r"^a point must be a vector, got shape \(1, 2\)$"),
    (lambda: geometry.Remark2Map(1.5, [0.5]), "^the pinned point must lie inside the unit disk$"),
    (lambda: geometry.Remark3Map(1.5, 0.5, (1, 1)), "^the pinned point must lie inside the unit disk$"),
    (lambda: geometry.Remark4Map(1.5, 0.5), "^the pinned point must lie inside the unit disk$"),
    (lambda: geometry.Remark2Map(0.0, [0.5]), r"^the pinned point must be non-zero \(its argument sets the phase\)$"),
    (lambda: geometry.Remark2Map(0.5, [0.0, 0.0]), "^w must lie in the punctured unit ball$"),
], ids=["extremal-origin-zero-v", "extremal-origin-codomains", "remark3-zero-v", "remark4-pinned-at-0",
        "extremal-k1-jacobian-shape", "remark4-n-0", "remark4-n-negative", "remark4-n-bool", "remark4-n-float",
        "extremal-origin-nan-a_v", "extremal-origin-a0-two-axes", "from-direction-zero", "from-direction-two-axes",
        "remark2-w-two-axes", "remark2-xi-outside", "remark3-xi-outside", "remark4-xi-outside", "remark2-pinned-at-0",
        "remark2-w-zero"])
def test_malformed_parameter_rejected(build, message):
    with pytest.raises(MapDomainError, match=message):
        build()


def test_describe_names_each_parameter():
    assert geometry.AutomorphismMap(np.array([0.3, 0.4j])).describe() == "automorphism(|a|=0.500, n=2)"
    assert geometry.Remark3Map(0.5j, 0.25, (1, 2)).describe() == "remark3(v=(1, 2), |xi|=0.500, |w|=0.250)"


def test_frame_and_jacobian_are_inverse_constructions():
    rng = np.random.default_rng(42)
    xi = 0.4 * unit(rng, 2)
    w0 = 0.5 * unit(rng, 2)
    frame = unit(rng, 1)[0] * np.linalg.qr(rng.standard_normal((2, 2))
                                           + 1j * rng.standard_normal((2, 2)))[0]
    jac = geometry.jacobian_from_frame(xi, w0, frame)
    assert np.max(np.abs(geometry.normalized_frame(xi, w0, jac) - frame)) < 1e-12
