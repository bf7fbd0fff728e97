import math
from functools import lru_cache

import numpy as np
import pytest

from schwarzpick import cauchy, geometry
from schwarzpick import multiindex as mi
from schwarzpick.holomap import (HoloMap, MapDomainError, PolyMap, hermitian_inner, random_polymap,
                                 sq_norm)
from support import (Composition, OpaqueMap, frechet_sum, identity_polymap, jacobian, slice_points,
                     unplanned_slices)


def sample_ball(rng, n, radius):
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return g / np.linalg.norm(g) * radius * rng.uniform() ** (1.0 / (2 * n))


def summed(f, z, beta, k):
    """D_k(f, z, beta) by the multi-index sum over the partial bundle."""
    return frechet_sum(cauchy.partial_bundle(f, z, k), beta, k, f.n)


class TestPartialDerivative:
    def test_cubic_on_disk(self):
        f = PolyMap(1, 1, {(3,): [1.0]})
        got = cauchy.partial_bundle(OpaqueMap(f), np.array([0.5]), 1)[(1,)][0]
        assert got == pytest.approx(0.75, abs=1e-12)

    def test_product_map(self):
        f = PolyMap(2, 1, {(1, 1): [1.0]})
        got = cauchy.partial_bundle(OpaqueMap(f), np.array([0.2 + 0.1j, -0.3]), 2)[(1, 1)][0]
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_linear_plus_square(self):
        f = geometry.linear_plus_square_map()
        got = cauchy.partial_bundle(OpaqueMap(f), np.zeros(2), 2)[(0, 2)][0]
        assert got == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_matches_exact_route(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            n = 1 + seed % 3
            f = random_polymap(n, 2, 4, seed=seed)
            z = sample_ball(rng, n, 0.6)
            for v in mi.enumerate_up_to(n, 4, include_zero=False):
                quad = cauchy.partial_bundle(OpaqueMap(f), z, sum(v))[v]
                exact = f.partial_values(z, [v])[0]
                assert np.linalg.norm(quad - exact) <= 1e-10 * np.linalg.norm(exact)

    def test_node_count_must_resolve_order(self):
        # order 64 needs 130 nodes; a slice circle has 128
        f = PolyMap(1, 1, {(4,): [0.5]})
        with pytest.raises(mi.CapacityError):
            cauchy.partial_bundle(OpaqueMap(f), np.zeros(1), 64)
        with pytest.raises(mi.CapacityError):
            cauchy.line_derivative(f, np.zeros(1), np.ones(1), 64)


class TestTaylorCoefficient:
    def test_extremal_map_with_zero_center(self):
        v = (2, 1)
        av = np.array([math.sqrt(mi.sharpness_factor(v)), 0.0])
        f = geometry.ExtremalOriginMap(np.zeros(2), av, v)
        got = cauchy.taylor_coefficients(f, [v])[v]
        assert np.linalg.norm(got - av) <= 1e-10 * np.linalg.norm(av)

    def test_off_lattice_coefficients_vanish(self):
        f = geometry.extremal_origin_from_direction(
            np.array([0.3]), np.array([1.0]), (2, 1))
        table = cauchy.taylor_coefficients(f, mi.enumerate_up_to(2, 6))
        lattice = {(0, 0), (2, 1), (4, 2), (6, 3)}
        for alpha, c in table.items():
            if alpha not in lattice:
                assert np.linalg.norm(c) <= 1e-9

    def test_constant_map_has_no_higher_coefficients(self):
        f = PolyMap(2, 1, {(0, 0): [0.4 + 0.2j]})
        assert np.linalg.norm(cauchy.taylor_coefficients(OpaqueMap(f), [(1, 1)])[(1, 1)]) < 1e-14

    @pytest.mark.parametrize("f", [random_polymap(2, 2, 3, seed=7),
                                   Composition(geometry.AutomorphismMap(np.array([0.3, 0.1j])),
                                               random_polymap(2, 2, 3, seed=7))],
                             ids=["poly", "composed"])
    @pytest.mark.parametrize("index", [(1,), (1, 0, 0)], ids=["short", "long"])
    def test_index_of_wrong_length_rejected_on_both_routes(self, f, index):
        with pytest.raises(ValueError, match="dimension 2"):
            cauchy.taylor_coefficients(f, [(1, 0), index])

    def test_batch_extraction_matches_single(self):
        f = geometry.extremal_origin_from_direction(np.array([0.3, 0.1j]), np.array([1.0, 0.4]), (1, 1))
        batch = cauchy.taylor_coefficients(f, [(0, 0), (1, 1), (2, 2)])
        for alpha, value in batch.items():
            assert np.allclose(value, cauchy.taylor_coefficients(f, [alpha])[alpha], atol=1e-13)


class TestFrechetDerivative:
    def test_identity_first_order(self):
        f = identity_polymap(2)
        beta = np.array([0.3, -0.5j])
        for got in (summed(f, np.zeros(2), beta, 1), cauchy.line_derivative(f, np.zeros(2), beta, 1)):
            assert np.allclose(got, beta, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_power_of_first_coordinate(self, k):
        f = PolyMap(2, 1, {(k, 0): [0.8]})
        z = np.array([0.2, 0.1j])
        beta = np.array([0.6 + 0.1j, 0.3])
        for got in (summed(f, z, beta, k), cauchy.line_derivative(f, z, beta, k)):
            assert got[0] == pytest.approx(0.8 * math.factorial(k) * beta[0] ** k, rel=1e-11)

    def test_one_variable_reduces_to_plain_derivative(self):
        f = random_polymap(1, 1, 5, seed=17)
        z = np.array([0.3 - 0.2j])
        for k in range(1, 5):
            exact = f.partial_values(z, [(k,)])[0]
            for dk in (summed(f, z, np.array([1.0]), k), cauchy.line_derivative(f, z, np.array([1.0]), k)):
                assert np.linalg.norm(dk - exact) <= 1e-11 * max(1.0, np.linalg.norm(exact))

    def test_homogeneity_in_direction(self):
        f = random_polymap(2, 2, 4, seed=19)
        z = np.array([0.1, 0.2j])
        beta = np.array([0.4, -0.3 + 0.2j])
        c = 0.7 - 0.4j
        for route in (summed, cauchy.line_derivative):
            for k in (1, 2, 3):
                d1 = route(f, z, c * beta, k)
                d2 = c ** k * route(f, z, beta, k)
                assert np.linalg.norm(d1 - d2) <= 1e-10 * np.linalg.norm(d2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_assembly_is_bitwise_the_term_loop(self, n):
        # one power product per alpha, summed term by term in enumeration order
        rng = np.random.default_rng(40 + n)
        for k in range(6):
            alphas = mi.enumerate_indices(n, k)
            bundle = {a: (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 10.0 ** rng.uniform(-4, 4)
                      for a in alphas}
            for beta in (sample_ball(rng, n, 2.0), np.eye(n)[0], np.eye(n)[-1] * (0.3 - 0.8j)):
                acc = None
                for alpha in alphas:
                    term = bundle[alpha] * (mi.multinomial_weight(alpha) * np.prod(beta ** np.array(alpha)))
                    acc = term if acc is None else acc + term
                assert frechet_sum(bundle, beta, k, n).tobytes() == acc.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stacked_directions_are_bitwise_one_at_a_time(self, n):
        # each row of a (D, n) stack, with its own values, sums as that row's direction does alone
        rng = np.random.default_rng(50 + n)
        for k in range(1, 6):
            alphas = mi.enumerate_indices(n, k)
            betas = np.array([sample_ball(rng, n, 2.0) for _ in range(5)] + [np.eye(n)[0]])
            values = rng.standard_normal((len(betas), len(alphas), 3)) + 1j * rng.standard_normal(
                (len(betas), len(alphas), 3))
            for weighted in (False, True):
                stacked = cauchy.degree_sum(values, betas, k, n, weighted=weighted)
                for row, beta in enumerate(betas):
                    alone = cauchy.degree_sum(values[row], beta, k, n, weighted=weighted)
                    assert stacked[row].tobytes() == alone.tobytes()
                    if weighted:
                        bundle = dict(zip(alphas, values[row]))
                        assert alone.tobytes() == frechet_sum(bundle, beta, k, n).tobytes()

    def test_routes_agree_and_gap_recorded(self):
        rng = np.random.default_rng(23)
        for seed in range(6):
            n = 1 + seed % 3
            f = random_polymap(n, 2, 4, seed=100 + seed)
            z = sample_ball(rng, n, 0.6)
            g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            beta = g / np.linalg.norm(g)
            assert cauchy.route_gap(summed(f, z, beta, 3), cauchy.line_derivative(f, z, beta, 3)) <= 1e-9

    def test_line_route_is_bitwise_the_two_restriction_construction(self):
        # the oracle: the restriction of radius R with |lambda| < R as its domain, then a second
        # restriction along R beta for the unit disk, whose degree-k coefficient gives D_k
        class Restriction(HoloMap):
            def __init__(self, f, z0, beta):
                self.f, self.z0, self.beta, self.n, self.m = f, z0, beta, 1, f.m

            def _eval(self, lam):
                return self.f._eval(self.z0 + lam * self.beta)

        def two_restrictions(f, z, beta, k):
            z, beta = np.asarray(z, dtype=complex), np.asarray(beta, dtype=complex)
            b2, p, z2 = float(sq_norm(beta)), abs(complex(hermitian_inner(beta, z))), float(sq_norm(z))
            radius = (-p + math.sqrt(p * p + b2 * (1.0 - z2))) / b2
            disk = Restriction(f, z, radius * beta)
            return math.factorial(k) / radius ** k * cauchy.taylor_coefficients(disk, [(k,)])[(k,)]

        rng = np.random.default_rng(31)
        maps = [random_polymap(3, 2, 4, seed=s) for s in range(4)]
        maps += [geometry.AutomorphismMap(np.array([0.3, 0.1j, -0.2])),
                 geometry.extremal_origin_from_direction(np.array([0.3, 0.1j, 0.0]), np.array([1.0, 0.4, 0.2j]),
                                                         (1, 1, 1)),
                 geometry.Remark3Map(0.45, 0.5, (1, 2, 0))]
        for f in maps:
            for scale in (0.3, 0.9, 0.999):
                g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                z = scale * g / np.linalg.norm(g)
                beta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                for k in (1, 2, 3, 4):
                    assert cauchy.line_derivative(f, z, beta, k).tobytes() == two_restrictions(f, z, beta, k).tobytes()


class TestSpectralConvergence:
    def canonical_maps(self):
        yield geometry.AutomorphismMap(np.array([0.4, 0.1j])), np.array([0.2, 0.3]), (2, 1)
        yield geometry.extremal_origin_from_direction(
            np.array([0.3, 0.0]), np.array([0.6, 0.8]), (2, 1)), np.array([0.25, -0.1j]), (1, 1)
        yield geometry.Remark2Map(0.5, np.array([0.8])), np.array([0.5]), (3,)

    def test_doubling_nodes_is_converged(self, monkeypatch):
        for f, z, v in self.canonical_maps():
            base = cauchy.partial_bundle(f, z, sum(v))[v]
            with monkeypatch.context() as patch:
                patch.setattr(cauchy, "NODES", 2 * cauchy.NODES)
                # plans are built from NODES, so the finer nodes need a cache of their own
                patch.setattr(cauchy, "_plan", lru_cache(cauchy._plan.__wrapped__))
                fine = cauchy.partial_bundle(f, z, sum(v))[v]
                assert cauchy._plan(f.n, sum(v)).unit.shape[0] == cauchy.NODES
            assert np.linalg.norm(base - fine) <= 1e-12 * max(1.0, np.linalg.norm(fine))


class CountingMap(OpaqueMap):
    """Wraps a map and keeps every point it is evaluated at."""

    def __init__(self, inner):
        super().__init__(inner)
        self.points = []

    def _eval(self, z):
        self.points.append(z.reshape(-1, self.n))
        return self.inner._eval(z)


#: Per n, at |z| = 0, 0.6, 0.9, 0.99: the worst relative error the former N^n
#: polytorus quadrature reached on the grid of test_slices_match_exact_partials
#: (N = 128 at n = 1; 64 at n = 2-3, 128 beyond |z| = 0.95; 32 at n = 4),
#: rounded up in the fourth digit.
POLYTORUS_WORST = {
    1: (1.962e-15, 9.306e-14, 1.479e-11, 1.648e-7),
    2: (7.904e-15, 3.136e-13, 8.972e-11, 6.141e-7),
    3: (3.056e-14, 8.787e-13, 2.336e-10, 1.280e-6),
    4: (8.866e-14, 8.194e-13, 3.959e-10, 5.003e-6),
}


class TestSlices:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_slices_match_exact_partials(self, n):
        rng = np.random.default_rng(n)
        maps = [random_polymap(n, 2, 5, seed=rng) for _ in range(8)]
        dirs = [g / np.linalg.norm(g) for g in rng.standard_normal((8, n)) + 1j * rng.standard_normal((8, n))]
        for radius, bound in zip((0.0, 0.6, 0.9, 0.99), POLYTORUS_WORST[n]):
            worst = 0.0
            for f, u in zip(maps, dirs):
                z = radius * u
                quad = cauchy.partial_bundle(OpaqueMap(f), z, 4)
                for alpha in mi.enumerate_up_to(n, 4):
                    exact = f.partial_values(z, [alpha])[0]
                    worst = max(worst, np.linalg.norm(quad[alpha] - exact) / np.linalg.norm(exact))
            assert worst <= bound, f"|z| = {radius}: {worst:.3e} > {bound:.3e}"

    @pytest.mark.parametrize("n, order", [(1, 4), (2, 3), (3, 4), (4, 2)])
    def test_one_extraction_evaluates_the_phase_grid(self, n, order):
        f = CountingMap(geometry.AutomorphismMap(np.full(n, 0.3 / math.sqrt(n))))
        z = np.full(n, 0.99 / math.sqrt(n)) * np.exp(1j * np.arange(n))
        cauchy.partial_bundle(f, z, order)
        [points] = f.points
        assert len(points) == cauchy.NODES * (order + 1) ** (n - 1)
        assert np.all(sq_norm(points) < 1.0)
        # every slice point lies on the uniform polytorus of the slice radius
        assert np.allclose(np.abs(points - z), cauchy.slice_radius(z), rtol=1e-12, atol=0)


class TestSliceRadius:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_is_bitwise_its_formula(self, n):
        # RADIUS_FRACTION times the root r of sum_j (|z_j| + r)^2 = 1, rounded in this order: every
        # slice point and every power r^-k read these bits (at n = 3 the order F * (x / n) matters
        # on the axis, at the generic point and at |z| = 0.99)
        rng = np.random.default_rng(52 + n)
        g = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        for z in (np.zeros(n), 0.25 * np.eye(n)[0], 0.6 * g[0], 0.99 * g[1]):
            a = np.abs(z)
            s, z2 = float(a.sum()), float((a ** 2).sum())
            want = cauchy.RADIUS_FRACTION * ((-s + math.sqrt(s * s + n * (1.0 - z2))) / n)
            assert cauchy.slice_radius(z) == want, z


class TestPlan:
    @pytest.mark.parametrize("n, orders", [(1, range(9)), (2, range(9)), (3, range(9)), (4, range(5))])
    def test_slices_are_bitwise_the_unplanned_table(self, n, orders):
        f = geometry.AutomorphismMap(np.full(n, 0.3 / math.sqrt(n)) * np.exp(1j * np.arange(n)))
        u = np.exp(-0.7j * np.arange(n)) / math.sqrt(n)
        for order in orders:
            for radius in (0.0, 0.5, 0.9, 0.99):
                z = radius * u
                [planned], unplanned = cauchy._slices([f], z, order), unplanned_slices(f, z, order)
                assert planned.shape == unplanned.shape == (order + 1,) * n + (n,)
                assert planned.tobytes() == unplanned.tobytes(), f"order {order}, |z| = {radius}"

    @pytest.mark.parametrize("n, orders", [(1, range(9)), (2, range(9)), (3, range(9)), (4, range(5))])
    def test_origin_tables_are_bitwise_the_unplanned_table(self, n, orders):
        # an origin table is the table about z = 0, which taylor_coefficients reads out
        f = geometry.AutomorphismMap(np.full(n, 0.3 / math.sqrt(n)) * np.exp(1j * np.arange(n)))
        for order in orders:
            unplanned = unplanned_slices(f, np.zeros(n), order)
            assert cauchy._slices([f], np.zeros(n), order)[0].tobytes() == unplanned.tobytes(), f"order {order}"
            alphas = mi.enumerate_up_to(n, order)
            coeffs = cauchy.taylor_coefficients(f, alphas)
            for alpha in alphas:
                assert coeffs[alpha].tobytes() == unplanned[(sum(alpha),) + alpha[1:]].tobytes(), alpha

    def test_plan_arrays_are_read_only(self):
        plan = cauchy._plan(3, 2)
        arrays = [getattr(plan, name) for name in ("beta", "unit", "node_dft", "phase_dft", "powers", "factorials")]
        for array in arrays + list(plan.index):
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0
        with pytest.raises(TypeError):
            plan.rows[(0, 0, 0)] = 1

    def test_unresolvable_order_raises_before_a_plan_is_built(self):
        # order 64 is within MAX_DEGREE but needs 130 nodes
        before = cauchy._plan.cache_info()
        with pytest.raises(mi.CapacityError, match="node count"):
            cauchy.partial_bundle(OpaqueMap(PolyMap(1, 1, {(4,): [0.5]})), np.zeros(1), 64)
        with pytest.raises(mi.CapacityError, match="node count"):
            cauchy.taylor_coefficients(OpaqueMap(PolyMap(1, 1, {(4,): [0.5]})), [(64,)])
        assert cauchy._plan.cache_info() == before


def family_maps(n: int, m: int) -> list:
    """One map of every closed-form family of shape (n, m), then a composed,
    a wrapped and a plain polynomial map of that shape."""
    rng = np.random.default_rng(10 * n + m)
    poly = random_polymap(n, m, 4, seed=rng)
    a0, u = sample_ball(rng, m, 0.5), sample_ball(rng, m, 1.0)
    maps = [geometry.extremal_origin_from_direction(a0, u, (1,) * n)]
    if n == m:
        maps.append(geometry.AutomorphismMap(sample_ball(rng, n, 0.5)))
    if n <= m:
        xi, w0 = sample_ball(rng, n, 0.5), sample_ball(rng, m, 0.5)
        frame = np.linalg.qr(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))[0][:, :n]
        maps.append(geometry.ExtremalK1Map(xi, w0, geometry.jacobian_from_frame(xi, w0, frame)))
    if n == 1:
        maps.append(geometry.Remark2Map(0.4j, sample_ball(rng, m, 0.99)))
    if m == 1:
        maps += [geometry.Remark3Map(0.3, 0.2j, (1,) * n), geometry.Remark4Map(-0.5, 0.999j, n=n)]
    return maps + [Composition(geometry.AutomorphismMap(sample_ball(rng, m, 0.6)), poly), OpaqueMap(poly), poly]


def read_out(f, z, order: int) -> dict:
    """The bundle of f at z read alpha by alpha: exact for a `PolyMap`, else
    from the unplanned slice table, each partial one index and one factorial."""
    alphas = mi.enumerate_up_to(f.n, order)
    if isinstance(f, PolyMap):
        return dict(zip(alphas, f.partial_values(z, alphas)))
    table = unplanned_slices(f, z, order)
    return {alpha: table[(sum(alpha),) + alpha[1:]] * mi.multiindex_factorial(alpha) for alpha in alphas}


def assert_same_bundles(got: list, want: list) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert list(g) == list(w)
        for alpha in w:
            assert g[alpha].tobytes() == w[alpha].tobytes(), alpha


class EvalCounter:
    """Counts `HoloMap.eval` calls per map while patched in."""

    def __init__(self, monkeypatch):
        self.calls: dict[int, int] = {}
        original = HoloMap.eval

        def counted(f, z):
            self.calls[id(f)] = self.calls.get(id(f), 0) + 1
            return original(f, z)

        monkeypatch.setattr(HoloMap, "eval", counted)


class TestBundles:
    @pytest.mark.parametrize("n, m", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (4, 1)])
    def test_bundles_are_bitwise_the_one_map_bundles(self, n, m):
        maps = family_maps(n, m)
        u = np.exp(0.9j * np.arange(n)) / math.sqrt(n)
        for order in (1, 2, 3, 4):
            for radius in (0.0, 0.5, 0.9, 0.99):
                z = radius * u
                bundles = cauchy.partial_bundles(maps, z, order)
                assert_same_bundles(bundles, [cauchy.partial_bundle(f, z, order) for f in maps])
                assert_same_bundles(bundles, [read_out(f, z, order) for f in maps])
                for f, bundle in zip(maps, bundles):
                    assert_same_bundles(cauchy.partial_bundles([f], z, order), [bundle])

    def test_every_family_of_a_shape_is_covered(self):
        kinds = {f.kind for n, m in [(1, 2), (2, 1), (3, 3)] for f in family_maps(n, m)}
        assert kinds == {"extremal-origin", "automorphism", "extremal-k1", "remark2", "remark3", "remark4",
                         "composed", "holomap", "poly"}

    def test_each_map_is_evaluated_once_on_one_grid(self, monkeypatch):
        counter = EvalCounter(monkeypatch)
        maps = [CountingMap(f) for f in family_maps(2, 1)]
        cauchy.partial_bundles(maps + [random_polymap(2, 1, 3, seed=1)], np.array([0.5, 0.3j]), 3)
        assert counter.calls == {id(f): 1 for f in maps}
        grids = [f.points[0] for f in maps]
        assert all(np.array_equal(grid, grids[0]) for grid in grids)

    @pytest.mark.parametrize("shapes", [[(2, 1), (2, 2)], [(2, 1), (3, 1)], [(1, 2), (2, 2), (1, 2)]])
    def test_maps_of_different_shapes_rejected_before_any_evaluation(self, shapes, monkeypatch):
        counter = EvalCounter(monkeypatch)
        maps = [OpaqueMap(random_polymap(n, m, 2, seed=1)) for n, m in shapes]
        with pytest.raises(ValueError, match="maps of one"):
            cauchy.partial_bundles(maps, np.zeros(shapes[0][0]), 2)
        assert counter.calls == {}

    def test_no_maps_rejected(self):
        with pytest.raises(ValueError, match="maps of one"):
            cauchy.partial_bundles([], np.zeros(2), 2)

    @pytest.mark.parametrize("z", [[0.8, 0.6], [1.5, 0.0], [np.nan, 0.0], [0.1, 0.2, 0.0]],
                             ids=["on-sphere", "outside", "nan", "too-long"])
    def test_bad_point_raises_map_domain_error_before_any_evaluation(self, z, monkeypatch):
        counter = EvalCounter(monkeypatch)
        with pytest.raises(MapDomainError):
            cauchy.partial_bundles(family_maps(2, 1), z, 2)
        assert counter.calls == {}


class TestOriginCoefficients:
    @pytest.mark.parametrize("n, orders, ms", [(1, range(9), (1, 2, 3, 4)), (2, range(9), (1, 2, 3, 4)),
                                               (3, range(9), (1, 2, 3, 4)), (4, (0, 1, 2, 4, 8), (1, 4))])
    def test_tables_are_bitwise_the_one_map_tables(self, n, orders, ms):
        # every family of each (n, m), polynomial maps mixed in, at orders up to 8 (at n = 4, m = 1 and 4
        # hold every family of m = 2 and 3); each map's coefficients are bitwise its one-map
        # taylor_coefficients and its read-out of the unplanned table
        for m in ms:
            maps = family_maps(n, m)
            for order in orders:
                alphas = mi.enumerate_up_to(n, order)
                batch = cauchy.origin_coefficients(maps, alphas)
                assert len(batch) == len(maps)
                for f, got in zip(maps, batch):
                    alone = cauchy.taylor_coefficients(f, alphas)
                    table = None if isinstance(f, PolyMap) else unplanned_slices(f, np.zeros(n), order)
                    assert list(got) == list(alone) == alphas
                    for alpha in alphas:
                        want = f.coefficient(alpha) if table is None else table[(sum(alpha),) + alpha[1:]]
                        assert got[alpha].tobytes() == alone[alpha].tobytes() == want.tobytes(), (m, order, alpha)

    def test_each_map_is_evaluated_once_on_one_grid(self, monkeypatch):
        counter = EvalCounter(monkeypatch)
        maps = [CountingMap(f) for f in family_maps(2, 1)]
        cauchy.origin_coefficients(maps + [random_polymap(2, 1, 3, seed=1)], [(0, 0), (2, 1), (0, 3)])
        assert counter.calls == {id(f): 1 for f in maps}
        grid = slice_points(np.zeros(2), 3).reshape(-1, 2)
        for f in maps:
            [points] = f.points
            assert points.tobytes() == grid.tobytes()

    @pytest.mark.parametrize("shapes", [[(2, 1), (2, 2)], [(2, 1), (3, 1)], []])
    def test_maps_of_different_shapes_rejected_before_any_evaluation(self, shapes, monkeypatch):
        counter = EvalCounter(monkeypatch)
        maps = [OpaqueMap(random_polymap(n, m, 2, seed=1)) for n, m in shapes]
        with pytest.raises(ValueError, match="origin_coefficients needs maps of one"):
            cauchy.origin_coefficients(maps, [(1, 0)])
        assert counter.calls == {}

    def test_no_indices_give_an_empty_table_per_map(self, monkeypatch):
        counter = EvalCounter(monkeypatch)
        assert cauchy.origin_coefficients(family_maps(2, 1), []) == [{}] * len(family_maps(2, 1))
        assert counter.calls == {}


ROUTES = [random_polymap(2, 2, 3, seed=7), OpaqueMap(random_polymap(2, 2, 3, seed=7))]


@pytest.mark.parametrize("f", ROUTES, ids=["exact", "slices"])
class TestOrderChecks:
    """Orders and index lists are checked alike on both routes."""

    @pytest.mark.parametrize("order", [-1, True, False, 2.0, "2"])
    def test_order_that_is_not_a_non_negative_int_rejected(self, f, order):
        with pytest.raises(ValueError, match="derivative order must be a non-negative int"):
            cauchy.partial_bundle(f, np.zeros(2), order)
        with pytest.raises(ValueError, match="derivative order must be a non-negative int"):
            cauchy.line_derivative(f, np.zeros(2), np.array([1.0, 0.0]), order)

    @pytest.mark.parametrize("index", [(True, 1), (1.0, 1)], ids=["bool", "integral-float"])
    def test_index_that_is_not_ints_rejected_after_its_valid_twin(self, f, index):
        cauchy.taylor_coefficients(f, [(1, 1)])
        with pytest.raises(ValueError, match="multi-index entries must be non-negative integers"):
            cauchy.taylor_coefficients(f, [index])

    def test_order_above_max_degree_rejected(self, f):
        with pytest.raises(mi.CapacityError, match="exceeds the supported maximum"):
            cauchy.partial_bundle(f, np.zeros(2), mi.MAX_DEGREE + 6)
        with pytest.raises(mi.CapacityError, match="exceeds the supported maximum"):
            cauchy.taylor_coefficients(f, [(1, 0), (mi.MAX_DEGREE, 6)])

    def test_empty_index_list_gives_no_coefficients(self, f):
        assert cauchy.taylor_coefficients(f, []) == {}

    def test_numpy_order_is_an_order(self, f):
        z = np.array([0.1, 0.2j])
        bundle = cauchy.partial_bundle(f, z, np.int64(2))
        assert list(bundle) == mi.enumerate_up_to(2, 2)
        assert all(np.array_equal(bundle[a], value) for a, value in cauchy.partial_bundle(f, z, 2).items())


def test_jacobian_of_identity():
    f = identity_polymap(3)
    jac = jacobian(f, np.array([0.1, 0.0, 0.2j]))
    assert np.allclose(jac, np.eye(3), atol=1e-12)


def test_default_radii_match_reference_rule():
    # at the origin the slice radius is RADIUS_FRACTION / sqrt(n)
    for n in (1, 2, 3):
        radius = cauchy.slice_radius(np.zeros(n))
        assert radius == pytest.approx(cauchy.RADIUS_FRACTION / math.sqrt(n), rel=1e-12)


class TestRoutes:
    def test_polymap_never_reaches_the_slices(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a PolyMap must be differentiated exactly")

        monkeypatch.setattr(cauchy, "_slices", refuse)
        f = random_polymap(2, 2, 4, seed=5)
        z = np.array([0.3 - 0.1j, 0.2j])
        bundle = cauchy.partial_bundle(f, z, 4)
        for alpha in mi.enumerate_up_to(2, 4):
            assert np.array_equal(bundle[alpha], f.partial_values(z, [alpha])[0])
        indices = mi.enumerate_up_to(2, 5)
        coeffs = cauchy.taylor_coefficients(f, indices)
        for alpha in indices:
            assert np.array_equal(coeffs[alpha], f.coefficient(alpha))

    def test_wrapped_polymap_takes_the_slices(self, monkeypatch):
        orders = []
        slices = cauchy._slices

        def counted(f, z, order):
            orders.append(order)
            return slices(f, z, order)

        monkeypatch.setattr(cauchy, "_slices", counted)
        f = OpaqueMap(random_polymap(2, 2, 4, seed=5))
        cauchy.partial_bundle(f, np.array([0.3 - 0.1j, 0.2j]), 3)
        cauchy.taylor_coefficients(f, [(0, 0), (2, 1)])
        assert orders == [3, 3]


@pytest.mark.parametrize("f", [random_polymap(2, 1, 3, seed=7), geometry.AutomorphismMap(np.array([0.3, 0.1j]))],
                         ids=["poly", "automorphism"])
@pytest.mark.parametrize("z", [[0.8, 0.6], [1.5, 0.0], [np.nan, 0.0], [0.0, complex(0.0, np.inf)],
                               [0.1, 0.2, 0.0], [0.1]],
                         ids=["on-sphere", "outside", "nan", "inf", "too-long", "too-short"])
def test_bad_point_raises_map_domain_error_on_both_routes(f, z):
    with pytest.raises(MapDomainError):
        cauchy.partial_bundle(f, z, 2)
    with pytest.raises(MapDomainError):
        cauchy.line_derivative(f, z, np.array([1.0, 0.0]), 2)


@pytest.mark.parametrize("beta, message", [([1.0, 0.0, 0.0], "expected a direction in C\\^2, got dimension 3"),
                                           ([np.nan, 1.0], "direction entries must be finite"),
                                           ([0.0, 0.0], "direction must be non-zero")],
                         ids=["wrong-length", "nan", "zero"])
def test_bad_direction_raises_the_direction_error_on_the_line_route(beta, message):
    # before the check, a wrong length raised numpy's reshape error and a NaN a radius error
    f = random_polymap(2, 2, 3, seed=1)
    with pytest.raises(MapDomainError, match=f"^{message}$"):
        cauchy.line_derivative(f, np.array([0.1, 0.2]), beta, 2)
    with pytest.raises(MapDomainError, match=f"^{message}$"):
        geometry.as_direction(beta, 2)


@pytest.mark.parametrize("beta", [np.ones(3), np.ones((2, 2, 2)), np.ones(())], ids=["length-3", "3-d", "0-d"])
def test_degree_sum_rejects_directions_of_the_wrong_shape(beta):
    with pytest.raises(ValueError, match="^expected directions in C\\^2, got shape"):
        cauchy.degree_sum(np.ones((3, 1)), beta, 2, 2)
