"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All tolerances are fixed here; none are calibrated at run time.
"""
import cmath
import math

import numpy as np

from schwarzpick import bounds, cauchy, geometry
from schwarzpick import multiindex as mi
from schwarzpick.harness import (
    DEFAULT_SWEEP_RADII,
    SuiteConfig,
    random_ball_point,
    random_isometry,
    random_unit_vector,
    run_suite,
    sharpness_sweep,
)
from schwarzpick.holomap import coefficient_checks, random_polymap
from support import OpaqueMap, aj_coefficients, quadratic_form, remark3_derivative


def _report(num: int, description: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {description}: {status} ({detail})")


# ---------------------------------------------------------------------------

def test_criterion_01_soundness_sweep():
    """Main suite, n,m in {1,2,3}, k <= 4: no order-k metric-bound violation
    below -1e-8 across at least 2000 sampled (map, z, beta) contexts."""
    contexts = 0
    min_slack = math.inf
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            cfg = SuiteConfig(suite="main", n=n, m=m, samples=20, degree=4,
                              k_max=4, seed=4200 + 10 * n + m)
            report = run_suite(cfg)
            recs = [r for r in report.records if r["inequality"] == "1.4"]
            contexts += len(recs) // cfg.k_max
            min_slack = min(min_slack, min(r["slack"] for r in recs))
    ok = contexts >= 2000 and min_slack >= -1e-8
    _report(1, "soundness sweep for the order-k metric bound", ok,
            f"contexts={contexts}, min slack={min_slack:.3e}")
    assert ok


def test_criterion_02_reductions():
    """k = 1 reduces to the first-order contraction (1e-12); n = 1, beta = 1
    reduces to the disk quadratic-form bound after rescaling (1e-10)."""
    rng = np.random.default_rng(520)
    worst_k1 = 0.0
    checked = 0
    for i in range(25):
        n = 1 + i % 3
        f = random_polymap(n, 1 + i % 2, 4, seed=1000 + i)
        for _ in range(4):
            z = random_ball_point(rng, n, 0.8)
            bundle = cauchy.partial_bundle(f, z, 1)
            for _ in range(5):
                beta = random_unit_vector(rng, n)
                r14 = bounds.check_inequality(f, "1.4", z=z, beta=beta, k=1, bundle=bundle)
                r13 = bounds.check_inequality(f, "1.3", z=z, beta=beta, bundle=bundle)
                worst_k1 = max(worst_k1,
                               abs(r14.lhs - r13.lhs) / max(1.0, r13.lhs),
                               abs(r14.rhs - r13.rhs) / max(1.0, r13.rhs))
                checked += 1
    ok_a = checked >= 500 and worst_k1 <= 1e-12

    worst_disk = 0.0
    checked_d = 0
    for i in range(25):
        f = random_polymap(1, 1 + i % 3, 5, seed=2000 + i)
        for _ in range(5):
            z = random_ball_point(rng, 1, 0.8)
            bundle = cauchy.partial_bundle(f, z, 4)
            fz = bundle[(0,)]
            scale = (1.0 - float(np.linalg.norm(fz)) ** 2) ** 2
            for k in range(1, 5):
                r14 = bounds.check_inequality(f, "1.4", z=z, beta=np.array([1.0]), k=k, bundle=bundle)
                r41 = bounds.check_inequality(f, "4.1", z=z, k=k, bundle=bundle)
                worst_disk = max(worst_disk,
                                 abs(r14.lhs * scale - r41.lhs) / max(1.0, r41.lhs),
                                 abs(r14.rhs * scale - r41.rhs) / max(1.0, r41.rhs))
                checked_d += 1
    ok_b = checked_d >= 500 and worst_disk <= 1e-10
    ok = ok_a and ok_b
    _report(2, "order-1 and disk reductions of the metric bound", ok,
            f"k=1 gap={worst_k1:.2e} over {checked}, disk gap={worst_disk:.2e} over {checked_d}")
    assert ok


def test_criterion_03_equality_certification():
    """Automorphisms attain the first-order bound (1e-9, 500+ contexts);
    origin-extremal maps attain the coefficient bound (1e-10) on a
    |v| <= 4 x |a0| grid; first-order extremal maps attain the metric
    equality (1e-9, 50 directions each)."""
    rng = np.random.default_rng(530)
    worst_aut = 0.0
    contexts = 0
    for n in (1, 2, 3):
        for i in range(12):
            aut = geometry.AutomorphismMap(random_ball_point(rng, n, 0.5))
            for _ in range(4):
                z = random_ball_point(rng, n, 0.6)
                bundle = cauchy.partial_bundle(aut, z, 1)
                for _ in range(4):
                    beta = random_unit_vector(rng, n)
                    rep = bounds.check_inequality(aut, "1.3", z=z, beta=beta, bundle=bundle)
                    worst_aut = max(worst_aut, abs(rep.slack))
                    contexts += 1
    ok_a = contexts >= 500 and worst_aut <= 1e-9

    worst_ext = 0.0
    zero = (0, 0)
    for v in mi.enumerate_up_to(2, 4, include_zero=False):
        for a0_abs in (0.0, 0.3, 0.7):
            a0 = a0_abs * random_unit_vector(rng, 2) if a0_abs else np.zeros(2, dtype=complex)
            f = geometry.extremal_origin_from_direction(a0, random_unit_vector(rng, 2), v)
            coeffs = cauchy.taylor_coefficients(f, [zero, v])
            lhs = quadratic_form(coeffs[v], coeffs[zero])
            rhs = mi.sharpness_factor(v) * bounds.rhs_origin(float(np.linalg.norm(coeffs[zero])))
            worst_ext = max(worst_ext, abs(rhs - lhs))
    ok_b = worst_ext <= 1e-10

    worst_k1 = 0.0
    for i in range(3):
        xi = random_ball_point(rng, 2, 0.5)
        w0 = random_ball_point(rng, 2, 0.5)
        jac = geometry.jacobian_from_frame(xi, w0, random_isometry(rng, 2, 2))
        f = geometry.ExtremalK1Map(xi, w0, jac)
        bundle = cauchy.partial_bundle(f, xi, 1)
        for _ in range(50):
            beta = random_unit_vector(rng, 2)
            rep = bounds.check_inequality(f, "1.3", z=xi, beta=beta, bundle=bundle)
            worst_k1 = max(worst_k1, abs(rep.slack))
    ok_c = worst_k1 <= 1e-9
    ok = ok_a and ok_b and ok_c
    _report(3, "equality cases attained", ok,
            f"automorphism |slack|={worst_aut:.2e} over {contexts}, "
            f"origin-extremal |slack|={worst_ext:.2e}, first-order |slack|={worst_k1:.2e}")
    assert ok


def test_criterion_04_oracle_agreement():
    """Quadrature vs exact differentiation: relative error <= 1e-10 over 200
    maps x all |v| <= 5; the two directional-derivative routes agree to 1e-9
    on 500 contexts."""
    rng = np.random.default_rng(540)
    worst = 0.0
    maps_checked = 0
    for i in range(200):
        n = 1 if i < 80 else (2 if i < 150 else 3)
        m = 1 + i % 3
        f = random_polymap(n, m, 5, seed=3000 + i)
        z = random_ball_point(rng, n, 0.6)
        quad = cauchy.partial_bundle(OpaqueMap(f), z, 5)
        for v in mi.enumerate_up_to(n, 5, include_zero=False):
            exact = f.partial_values(z, [v])[0]
            err = float(np.linalg.norm(quad[v] - exact)) / float(np.linalg.norm(exact))
            worst = max(worst, err)
        maps_checked += 1
    ok_a = maps_checked == 200 and worst <= 1e-10

    worst_gap = 0.0
    contexts = 0
    for i in range(100):
        n = 1 + i % 3
        g = OpaqueMap(random_polymap(n, 1 + i % 2, 4, seed=4000 + i))
        z = random_ball_point(rng, n, 0.7)
        for k in (1, 2, 3, 4, 5):
            beta = random_unit_vector(rng, n)
            gap = cauchy.route_gap(cauchy.frechet_from_bundle(cauchy.partial_bundle(g, z, k), beta, k, n),
                                   cauchy.line_derivative(g, z, beta, k))
            worst_gap = max(worst_gap, gap)
            contexts += 1
    ok_b = contexts >= 500 and worst_gap <= 1e-9
    ok = ok_a and ok_b
    _report(4, "derivative oracle agreement", ok,
            f"exact-vs-quadrature rel={worst:.2e} over {maps_checked} maps, "
            f"route gap={worst_gap:.2e} over {contexts} contexts")
    assert ok


def test_criterion_05_identity_checks():
    """Moebius-power coefficient sums match their closed form to 1e-12 for
    k <= 10; the quadratic form equals the rescaled metric to 1e-12."""
    worst_sum = 0.0
    for k in range(1, 11):
        for t in np.arange(0.0, 0.91, 0.1):
            got = aj_coefficients(k, float(t))
            worst_sum = max(worst_sum, abs(got.term_sum - got.closed_form) / got.closed_form)
    ok_a = worst_sum <= 1e-12

    rng = np.random.default_rng(550)
    worst_id = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 5))
        fz = random_ball_point(rng, m, 0.95)
        d = 3.0 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        lhs = quadratic_form(d, fz)
        scaled = (1.0 - float(np.linalg.norm(fz)) ** 2) ** 2 * geometry.bergman_metric(fz, d)
        worst_id = max(worst_id, abs(lhs - scaled) / max(lhs, 1e-30))
    ok_b = worst_id <= 1e-12
    ok = ok_a and ok_b
    _report(5, "coefficient-sum and quadratic-form identities", ok,
            f"sum identity rel={worst_sum:.2e}, form identity rel={worst_id:.2e}")
    assert ok


def _sweep_criterion(family: str, n: int, m: int) -> tuple[float, float]:
    cfg = SuiteConfig(suite="sharpness", n=n, m=m, k_max=4, seed=560)
    report = sharpness_sweep(cfg, family, radii=DEFAULT_SWEEP_RADII)
    worst_law = 0.0
    worst_final = 0.0
    for rec in report.records:
        if rec["kind"] == "bound":
            worst_law = max(worst_law, abs(rec["ratio"] - rec["predicted"]))
            if rec["w_abs"] == DEFAULT_SWEEP_RADII[-1]:
                worst_final = max(worst_final, abs(rec["ratio"] - 1.0))
    assert report.summary["failure_count"] == 0
    return worst_law, worst_final


def test_criterion_06_sharpness_asymptotics():
    """Sweep ratios equal ((|w|+|xi|)/(1+|xi|))^(2(k-1)) to 1e-8 and reach
    within 1e-3 of 1 at |w| = 1 - 1e-4, for k <= 4, |xi| in {0.25, 0.5, 0.75}."""
    law2, final2 = _sweep_criterion("remark2", 1, 2)
    law4, final4 = _sweep_criterion("remark4", 2, 1)
    ok = law2 <= 1e-8 and law4 <= 1e-8 and final2 <= 1e-3 and final4 <= 1e-3
    _report(6, "asymptotic sharpness of the disk and radial bounds", ok,
            f"ratio-law gaps {law2:.2e}/{law4:.2e}, final distance to 1: {final2:.2e}/{final4:.2e}")
    assert ok


def test_criterion_07_radial_family_tightness():
    """The radial family attains its displayed derivative to 1e-8 and its
    bound ratio stays above 2^(-2(|v|-1)) - 1e-8 for |v| <= 4."""
    worst_display = 0.0
    worst_margin = math.inf
    w = 0.55 * cmath.exp(0.4j)
    for n in (2, 3):
        xi1 = 0.5 * cmath.exp(1.0j)
        for v in mi.enumerate_up_to(n, 4, include_zero=False):
            f = geometry.Remark3Map(xi1, w, v)
            z = np.zeros(n, dtype=complex)
            z[0] = xi1
            dv = cauchy.partial_bundle(f, z, sum(v))[v]
            display = remark3_derivative(xi1, w, v)
            worst_display = max(worst_display, abs(dv[0] - display) / abs(display))
            ratio = quadratic_form(dv, f.eval(z[None, :])[0]) / bounds.rhs_radial(v, abs(xi1), 1.0 - abs(w) ** 2)
            worst_margin = min(worst_margin, ratio - 2.0 ** (-2 * (sum(v) - 1)))
    ok = worst_display <= 1e-8 and worst_margin >= -1e-8
    _report(7, "radial family attains its displayed derivative", ok,
            f"display rel={worst_display:.2e}, ratio margin={worst_margin:.2e}")
    assert ok


def test_criterion_08_benchmark_dominance():
    """The sharp scalar partial bound never exceeds the classical benchmark
    on the grid |z| in {0, 0.3, 0.6, 0.9}, n <= 3, |v| <= 5."""
    worst = -math.inf
    points = 0
    for n in (1, 2, 3):
        for t in (0.0, 0.3, 0.6, 0.9):
            for fz_norm in (0.0, 0.5):
                for kv in range(1, 6):
                    for v in mi.enumerate_indices(n, kv):
                        got = bounds.rhs_partial(v, t, 1.0 - fz_norm ** 2)
                        worst = max(worst, got.scalar - got.benchmark_scalar)
                        points += 1
    ok = worst <= 0.0
    _report(8, "sharp partial bound dominated by the classical benchmark", ok,
            f"max excess={worst:.3e} over {points} grid points")
    assert ok


def test_criterion_09_coefficient_inequalities():
    """Power-series coefficient inequalities hold with slack >= -1e-10 over
    500 certified maps x 100 boundary directions; the linear-plus-square
    example attains the coefficient bound exactly with off-shape term 1/3."""
    rng = np.random.default_rng(590)
    worst = math.inf
    v_orders = mi.enumerate_up_to(2, 4, include_zero=False)
    for i in range(500):
        f = random_polymap(2, 1 + i % 3, 4, seed=5000 + i)
        for _ in range(100):
            beta = random_unit_vector(rng, 2)
            checks = coefficient_checks(f, (1, 0), beta)
            worst = min(worst, checks.boundary_slack, checks.slice_slack)
        e1 = np.array([1.0, 0.0])
        for v in v_orders:
            worst = min(worst, coefficient_checks(f, v, e1).weighted_slack)
    ok_a = worst >= -1e-10

    example = geometry.linear_plus_square_map()
    checks = coefficient_checks(example, (1, 0), np.array([1.0, 0.0]))
    rep = bounds.check_inequality(example, "3.2", v=(1, 0))
    off = example.coefficient((0, 2))[0]
    ok_b = checks.single_slack == 0.0 and rep.slack == 0.0 and abs(off - 1.0 / 3.0) < 1e-15
    ok = ok_a and ok_b
    _report(9, "power-series coefficient inequalities", ok,
            f"min slack={worst:.2e}, example off-shape coefficient={off.real:.6f}")
    assert ok


def test_criterion_10_rigidity_of_extremal_shape():
    """Origin-extremal maps carry no Taylor coefficients off the lattice of
    multiples of v, to 1e-9, for v in {(1,1), (2,1), (2,2)} up to |alpha| <= 8."""
    rng = np.random.default_rng(600)
    worst = 0.0
    for v in ((1, 1), (2, 1), (2, 2)):
        for a0_abs in (0.0, 0.3, 0.7):
            a0 = a0_abs * random_unit_vector(rng, 1) if a0_abs else np.zeros(1, dtype=complex)
            f = geometry.extremal_origin_from_direction(a0, random_unit_vector(rng, 1), v)
            table = cauchy.taylor_coefficients(f, mi.enumerate_up_to(2, 8))
            lattice = {tuple(j * x for x in v) for j in range(9)}
            for alpha, c in table.items():
                if sum(alpha) <= 8 and alpha not in lattice:
                    worst = max(worst, float(np.linalg.norm(c)))
    ok = worst <= 1e-9
    _report(10, "off-lattice Taylor coefficients of extremal maps vanish", ok,
            f"max off-lattice coefficient={worst:.3e}")
    assert ok
