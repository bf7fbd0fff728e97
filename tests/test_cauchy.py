import math

import numpy as np
import pytest

from schwarzpick import cauchy, geometry
from schwarzpick import multiindex as mi
from schwarzpick.holomap import PolyMap, identity_polymap, random_polymap


def sample_ball(rng, n, radius):
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return g / np.linalg.norm(g) * radius * rng.uniform() ** (1.0 / (2 * n))


class TestPartialDerivative:
    def test_cubic_on_disk(self):
        f = PolyMap(1, 1, {(3,): [1.0]})
        got = cauchy.partial_derivative(f, np.array([0.5]), (1,)).value[0]
        assert got == pytest.approx(0.75, abs=1e-12)

    def test_product_map(self):
        f = PolyMap(2, 1, {(1, 1): [1.0]})
        got = cauchy.partial_derivative(f, np.array([0.2 + 0.1j, -0.3]), (1, 1)).value[0]
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_linear_plus_square(self):
        f = geometry.linear_plus_square_map()
        got = cauchy.partial_derivative(f, np.zeros(2), (0, 2)).value[0]
        assert got == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_matches_exact_route(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            n = 1 + seed % 3
            f = random_polymap(n, 2, 4, seed=seed)
            z = sample_ball(rng, n, 0.6)
            for v in mi.enumerate_up_to(n, 4, include_zero=False):
                quad = cauchy.partial_derivative(f, z, v).value
                exact = f.partial_value(z, v)
                assert np.linalg.norm(quad - exact) <= 1e-10 * np.linalg.norm(exact)

    def test_node_count_must_resolve_order(self):
        # order 64 needs 130 nodes; a one-variable torus has 128
        f = PolyMap(1, 1, {(4,): [0.5]})
        with pytest.raises(cauchy.TorusError):
            cauchy.partial_derivative(f, np.zeros(1), (64,))


class TestTaylorCoefficient:
    def test_extremal_map_with_zero_center(self):
        v = (2, 1)
        av = np.array([math.sqrt(mi.sharpness_factor(v)), 0.0])
        f = geometry.extremal_origin_map(np.zeros(2), av, v)
        got = cauchy.taylor_coefficient(f, v)
        assert np.linalg.norm(got - av) <= 1e-10 * np.linalg.norm(av)

    def test_off_lattice_coefficients_vanish(self):
        f = geometry.extremal_origin_from_direction(
            np.array([0.3]), np.array([1.0]), (2, 1))
        table = cauchy.coefficient_table(f, 6)
        lattice = {(0, 0), (2, 1), (4, 2), (6, 3)}
        for alpha, c in table.items():
            if alpha not in lattice:
                assert np.linalg.norm(c) <= 1e-9

    def test_constant_map_has_no_higher_coefficients(self):
        f = PolyMap(2, 1, {(0, 0): [0.4 + 0.2j]})
        assert np.linalg.norm(cauchy.taylor_coefficient(f, (1, 1))) < 1e-14

    def test_batch_extraction_matches_single(self):
        f = geometry.extremal_origin_from_direction(np.array([0.3, 0.1j]), np.array([1.0, 0.4]), (1, 1))
        batch = cauchy.taylor_coefficients(f, [(0, 0), (1, 1), (2, 2)])
        for alpha, value in batch.items():
            assert np.allclose(value, cauchy.taylor_coefficient(f, alpha), atol=1e-13)


class TestFrechetDerivative:
    def test_identity_first_order(self):
        f = identity_polymap(2)
        beta = np.array([0.3, -0.5j])
        got = cauchy.frechet_derivative(f, np.zeros(2), beta, 1)
        assert np.allclose(got.value, beta, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_power_of_first_coordinate(self, k):
        f = PolyMap(2, 1, {(k, 0): [0.8]})
        z = np.array([0.2, 0.1j])
        beta = np.array([0.6 + 0.1j, 0.3])
        got = cauchy.frechet_derivative(f, z, beta, k).value[0]
        assert got == pytest.approx(0.8 * math.factorial(k) * beta[0] ** k, rel=1e-11)

    def test_one_variable_reduces_to_plain_derivative(self):
        f = random_polymap(1, 1, 5, seed=17)
        z = np.array([0.3 - 0.2j])
        for k in range(1, 5):
            dk = cauchy.frechet_derivative(f, z, np.array([1.0]), k).value
            exact = f.partial_value(z, (k,))
            assert np.linalg.norm(dk - exact) <= 1e-11 * max(1.0, np.linalg.norm(exact))

    def test_homogeneity_in_direction(self):
        f = random_polymap(2, 2, 4, seed=19)
        z = np.array([0.1, 0.2j])
        beta = np.array([0.4, -0.3 + 0.2j])
        c = 0.7 - 0.4j
        for k in (1, 2, 3):
            d1 = cauchy.frechet_derivative(f, z, c * beta, k).value
            d2 = c ** k * cauchy.frechet_derivative(f, z, beta, k).value
            assert np.linalg.norm(d1 - d2) <= 1e-10 * np.linalg.norm(d2)

    def test_routes_agree_and_gap_recorded(self):
        rng = np.random.default_rng(23)
        for seed in range(6):
            n = 1 + seed % 3
            f = random_polymap(n, 2, 4, seed=100 + seed)
            z = sample_ball(rng, n, 0.6)
            g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            res = cauchy.frechet_derivative(f, z, g / np.linalg.norm(g), 3)
            assert res.route_gap is not None and res.route_gap <= 1e-9

    def test_route_tolerance_can_be_disabled(self):
        f = random_polymap(2, 1, 3, seed=31)
        res = cauchy.frechet_derivative(f, np.zeros(2), np.array([1.0, 1.0]), 2, route_tol=None)
        assert res.method == "frechet-sum"
        assert res.route_gap is not None


class TestSpectralConvergence:
    def canonical_maps(self):
        yield geometry.AutomorphismMap(np.array([0.4, 0.1j])), np.array([0.2, 0.3]), (2, 1)
        yield geometry.extremal_origin_from_direction(
            np.array([0.3, 0.0]), np.array([0.6, 0.8]), (2, 1)), np.array([0.25, -0.1j]), (1, 1)
        yield geometry.Remark2Map(0.5, np.array([0.8])), np.array([0.5]), (3,)

    def test_doubling_nodes_is_converged(self):
        for f, z, v in self.canonical_maps():
            radii, nodes = cauchy.resolve_spec(z, max(v))
            base = cauchy.partial_derivative(f, z, v).value
            values = cauchy._torus_values(f, z, radii, 2 * nodes)
            coeff = cauchy._coefficient_dft(values, [[e] for e in v], radii, 2 * nodes)
            fine = coeff.reshape(-1) * mi.multiindex_factorial(v)
            assert np.linalg.norm(base - fine) <= 1e-12 * max(1.0, np.linalg.norm(fine))


def test_jacobian_of_identity():
    f = identity_polymap(3)
    jac = cauchy.jacobian(f, np.array([0.1, 0.0, 0.2j]))
    assert np.allclose(jac, np.eye(3), atol=1e-12)


def test_default_radii_match_reference_rule():
    # at the origin the default torus radius is RADIUS_FRACTION / sqrt(n)
    for n in (1, 2, 3):
        radii, _ = cauchy.resolve_spec(np.zeros(n), 2)
        assert radii[0] == pytest.approx(cauchy.RADIUS_FRACTION / math.sqrt(n), rel=1e-12)
