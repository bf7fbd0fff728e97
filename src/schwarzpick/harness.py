"""Suite orchestration: sampling campaigns, equality certification, sharpness
sweeps, and deterministic JSON/CSV reporting.

Every suite is seed-deterministic: map generation, context sampling and
record ordering are all derived from the configured seed, so identical
configurations produce byte-identical reports.
"""
from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import asdict, dataclass, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from . import bounds, cauchy, geometry
from . import multiindex as mi
from .holomap import PolyMap, random_polymap, sq_norm

SCHEMA = "spv-report/2"

SUITE_IDS = ("main", "disk", "partials", "radial", "origin", "equality", "sharpness")

#: Default |w| ladder for the asymptotic-sharpness sweeps.
DEFAULT_SWEEP_RADII = (0.9, 0.99, 0.999, 0.9999)

#: Certification threshold for equality-suite slacks.
EQUALITY_TOL = 1e-9


class ConfigError(ValueError):
    """Invalid suite configuration; reported before any computation."""


@dataclass(frozen=True)
class SuiteConfig:
    suite: str = "main"
    n: int = 2
    m: int = 2
    samples: int = 20
    degree: int = 4
    k_max: int = 4
    seed: int = 42
    tol: float = 1e-8
    out: str | None = None
    fmt: str = "json"


def validate_config(config: SuiteConfig) -> None:
    if config.suite not in SUITE_IDS:
        raise ConfigError(f"unknown suite {config.suite!r}; expected one of {SUITE_IDS}")
    for name in ("n", "m", "samples", "degree", "k_max", "seed"):
        if type(getattr(config, name)) is not int:  # bool and numpy ints too
            raise ConfigError(f"{name} must be an int, got {getattr(config, name)!r}")
    if not 1 <= config.n <= 4 or not 1 <= config.m <= 4:
        raise ConfigError("dimensions n, m must lie in 1..4 at desk scale")
    if config.samples < 1:
        raise ConfigError("samples must be at least 1")
    if config.seed < 0:
        raise ConfigError("seed must be non-negative")
    if not 1 <= config.k_max <= 8:
        raise ConfigError("k_max must lie in 1..8")
    if not 1 <= config.degree <= 8:
        raise ConfigError("degree must lie in 1..8")
    if isinstance(config.tol, bool) or not isinstance(config.tol, (int, float)):
        raise ConfigError(f"tol must be a number, got {config.tol!r}")
    if not (math.isfinite(config.tol) and config.tol > 0):
        raise ConfigError("tol must be positive and finite")
    if config.fmt not in ("json", "csv"):
        raise ConfigError(f"unknown output format {config.fmt!r}")
    if config.suite == "disk" and config.n != 1:
        raise ConfigError("the disk suite requires n = 1")
    if config.suite == "equality" and config.n > config.m:
        raise ConfigError("the equality suite requires n <= m")


def expected_ids(suite: str, m: int) -> tuple[str, ...]:
    """Manifest of inequality ids each suite must exercise."""
    table = {
        "main": ("1.3", "1.4"),
        "disk": ("1.1", "4.1") if m == 1 else ("4.1",),
        "partials": ("1.2", "5.1", "5.2") if m == 1 else ("5.1",),
        "radial": ("5.3",),
        "origin": ("3.1", "3.2"),
        "equality": ("1.3", "3.2"),
        "sharpness": ("4.1", "5.3"),
    }
    return table[suite]


# --------------------------------------------------------------------------
# seeded sampling helpers

def random_unit_vector(rng, dim: int) -> np.ndarray:
    g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return g / np.linalg.norm(g)


def random_ball_point(rng, n: int, radius: float) -> np.ndarray:
    """Uniform draw from the ball of the given radius (radius-rescaled Gaussian)."""
    return random_unit_vector(rng, n) * (radius * rng.uniform() ** (1.0 / (2 * n)))


def random_isometry(rng, m: int, n: int) -> np.ndarray:
    """Random m x n matrix with orthonormal columns."""
    q, _ = np.linalg.qr(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    return q[:, :n]


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def _beta_set(rng, z: np.ndarray) -> list[np.ndarray]:
    """Two random unit directions plus e1 and the radial direction z/|z|."""
    n = z.shape[0]
    betas = [random_unit_vector(rng, n) for _ in range(2)]
    e1 = np.zeros(n, dtype=complex)
    e1[0] = 1.0
    betas.append(e1)
    zn = math.sqrt(float(sq_norm(z)))
    if zn > 0:
        betas.append(z / zn)
    return betas


# --------------------------------------------------------------------------
# records and reports

#: One report record as a compact, key-sorted JSON line (the C encoder).
_encode_record = json.JSONEncoder(sort_keys=True).encode


def _cvec(value, vectors: dict) -> list | None:
    """The [[re, im], ...] list of a complex vector, built once per array in
    `vectors`, which keys it by identity (the caller keeps every array alive),
    so records that share a point or a direction share one list."""
    if value is None:
        return None
    if id(value) not in vectors:
        vectors[id(value)] = [[c.real, c.imag] for c in np.asarray(value, dtype=complex).reshape(-1).tolist()]
    return vectors[id(value)]


def _k_or_v(k, v) -> str:
    return f"k={k}" if v is None else "v=" + ",".join(str(x) for x in v)


def certificate_record(suite: str, sample: str, name: str, measured: float, slack: float, **extra) -> dict:
    """A pass/fail certification row; pass iff slack >= 0."""
    rec = {
        "suite": suite,
        "sample": sample,
        "kind": "certificate",
        "inequality": name,
        "k_or_v": extra.pop("k_or_v", ""),
        "z": None,
        "beta": None,
        "lhs": float(measured),
        "rhs": float(measured) + float(slack),
        "slack": float(slack),
        "ratio": 0.0,
    }
    rec.update(extra)
    return rec


def _is_failure(record: dict, tol: float) -> bool:
    """A record fails when its slack is below -tol (0 for certificates) or
    is not finite."""
    floor = 0.0 if record["kind"] == "certificate" else -tol
    return not (math.isfinite(record["slack"]) and record["slack"] >= floor)


def _reduce(fn, values: list) -> float:
    """fn (min or max) of the values: NaN when any of them is NaN, whatever
    its position, and 0.0 when there are none."""
    if not values:
        return 0.0
    return math.nan if any(map(math.isnan, values)) else fn(values)


@dataclass
class Report:
    schema: str
    config: dict
    records: list
    failures: list
    summary: dict

    def to_json(self) -> str:
        """`json.dumps(indent=2, sort_keys=True)` of the report, except that
        each record is one line of `_encode_record`, so a diff of two
        reports names the records that changed."""
        text = json.dumps({**vars(self), "records": []}, indent=2, sort_keys=True)
        if self.records:
            # only a top-level member starts a line with two spaces and a key
            lines = ",\n    ".join(map(_encode_record, self.records))
            text = text.replace('\n  "records": []', '\n  "records": [\n    ' + lines + "\n  ]", 1)
        return text + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["suite", "sample", "inequality", "k_or_v", "z", "beta",
                         "lhs", "rhs", "slack", "ratio"])
        for rec in self.records:
            writer.writerow([
                rec["suite"], rec["sample"], rec["inequality"], rec["k_or_v"],
                _csv_vec(rec["z"]), _csv_vec(rec["beta"]),
                repr(rec["lhs"]), repr(rec["rhs"]), repr(rec["slack"]), repr(rec["ratio"]),
            ])
        return buf.getvalue()


def _csv_vec(pairs) -> str:
    if not pairs:
        return ""
    return ";".join(f"{re!r}{im:+}j" for re, im in pairs)


def _finalize(config: SuiteConfig, records: list[dict], maps: dict,
              expected: tuple[str, ...] | None = None) -> Report:
    """Sort the records, then in one pass flag them, collect the failing
    samples and summarize; check the manifest and list each failing sample
    with its most negative failing slack and its map (`maps[sample]`, for
    replay)."""
    records.sort(key=lambda r: (r["sample"], r["inequality"]))
    tol = config.tol
    seen: set[str] = set()
    slacks, ratios = [], []
    failing: dict[str, list[dict]] = {}
    for rec in records:
        seen.add(rec["inequality"])
        slack = rec["slack"]
        slacks.append(slack)
        if rec["kind"] == "bound":
            ratios.append(rec["ratio"])
            # negative slack within tolerance is discretization noise, not a violation
            rec["tight"] = -tol <= slack < 0.0
        if _is_failure(rec, tol):
            failing.setdefault(rec["sample"], []).append(rec)
    for ineq in (expected if expected is not None else expected_ids(config.suite, config.m)):
        if ineq not in seen:
            raise AssertionError(f"suite {config.suite} produced no records for inequality {ineq}")
    failures = []
    for sample, recs in failing.items():
        f = maps[sample]
        described = f.to_json_dict() if isinstance(f, PolyMap) else f.describe()
        failures.append({"sample": sample, "suite": recs[0]["suite"],
                         "worst_slack": _reduce(min, [r["slack"] for r in recs]), "map": described})
    echo = asdict(config)
    echo.pop("out")  # destination path is environment metadata, not canonical body
    return Report(schema=SCHEMA, config=echo, records=records, failures=failures,
                  summary={"record_count": len(records), "failure_count": sum(map(len, failing.values())),
                           "min_slack": _reduce(min, slacks), "min_ratio": _reduce(min, ratios),
                           "max_ratio": _reduce(max, ratios)})


def emit(report: Report, fmt: str, path) -> None:
    """Write a report (json or csv); failing samples are additionally written
    as standalone replay files next to the report."""
    if fmt not in ("json", "csv"):
        raise ConfigError(f"unknown output format {fmt!r}")
    path = Path(path)
    text = report.to_json() if fmt == "json" else report.to_csv()
    try:
        path.write_text(text)
        for failure in report.failures:
            if isinstance(failure.get("map"), dict):
                side = path.with_name(f"{path.stem}-failure-{failure['sample']}.json")
                side.write_text(json.dumps(failure["map"], sort_keys=True) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


# --------------------------------------------------------------------------
# sampling suites

def run_suite(config: SuiteConfig) -> Report:
    """Run one verification suite and return its deterministic report.

    Suites `main`, `disk`, `partials`, `radial` and `origin` sample certified
    polynomial maps (plus ball automorphisms when n = m in `main`) and check
    the inequality ids assigned by the manifest.  `equality` and `sharpness`
    raise ConfigError: `equality_suite` and `sharpness_sweep` run them.
    """
    validate_config(config)
    if config.suite not in _SAMPLE_POINTS:
        driver = "equality_suite" if config.suite == "equality" else "sharpness_sweep"
        raise ConfigError(f"suite {config.suite!r} has its own driver; call {driver}")
    # each sample draws from its own generator, so checking the whole suite's bounds
    # in one batch moves no draw; a sample's points all hold its map
    points, samples, maps = [], [], {}
    suite_code = SUITE_IDS.index(config.suite)
    for s in range(config.samples):
        rng = _rng(config.seed, suite_code, s)
        f = random_polymap(config.n, config.m, config.degree, rng)
        drawn = [(f"poly-{s:04d}", _SAMPLE_POINTS[config.suite](config, rng, f))]
        if config.suite == "main" and config.n == config.m:
            aut = geometry.AutomorphismMap(random_ball_point(rng, config.m, 0.5))
            drawn.append((f"aut-{s:04d}", _main_points(config, rng, aut)))
        elif config.suite == "origin":
            drawn.append((f"ext-{s:04d}", _origin_extremal_points(config, rng)))
        for sample, pts in drawn:
            maps[sample] = pts[0].f
            points += pts
            samples += [sample] * sum(len(p.requests) for p in pts)
    return _finalize(config, _records(config, samples, points), maps)


def _records(config, samples, points) -> list[dict]:
    """The bound record of every request of the `bounds.Point`s, from one
    `bounds.check_columns` batch: labelled with config.suite and, request by
    request, the next name of `samples`, with one [[re, im], ...] list per
    point and per direction and one k_or_v string per order."""
    vectors: dict[int, list] = {}  # the rows hold every array
    labels: dict = {}
    out = []
    rows = bounds.check_columns(points)
    for sample, row in zip(samples, rows):
        order = row.k if row.v is None else row.v
        if order not in labels:
            labels[order] = _k_or_v(row.k, row.v)
        out.append({"suite": config.suite, "sample": sample, "kind": "bound", "inequality": row.inequality,
                    "k_or_v": labels[order], "z": _cvec(row.z, vectors), "beta": _cvec(row.beta, vectors),
                    "lhs": row.lhs, "rhs": row.rhs, "slack": row.slack, "ratio": row.ratio})
    return out


def _main_points(config, rng, f):
    points = []
    zs = [random_ball_point(rng, config.n, 0.9) for _ in range(2)]
    zs.append(random_unit_vector(rng, config.n) * rng.uniform(0.955, 0.99))
    for z in zs:
        requests = []
        for beta in _beta_set(rng, z):
            requests.append(("1.3", {"beta": beta}))
            requests.extend(("1.4", {"beta": beta, "k": k}) for k in range(1, config.k_max + 1))
        points.append(bounds.Point(f, z, cauchy.partial_bundle(f, z, config.k_max), requests))
    return points


def _disk_points(config, rng, f):
    requests = [(ineq, {"k": k}) for k in range(1, config.k_max + 1)
                for ineq in expected_ids(config.suite, config.m)]
    zs = [random_ball_point(rng, 1, 0.9) for _ in range(3)]
    return [bounds.Point(f, z, cauchy.partial_bundle(f, z, config.k_max), requests) for z in zs]


def _partial_points(config, f, ids, zs):
    """Points requesting each id for every non-zero v with |v| <= min(k_max, 4), at each z."""
    order = min(config.k_max, 4)
    orders = mi.enumerate_up_to(config.n, order, include_zero=False)
    requests = [(ineq, {"v": v}) for v in orders for ineq in ids]
    return [bounds.Point(f, z, cauchy.partial_bundle(f, z, order), requests) for z in zs]


def _partials_points(config, rng, f):
    zs = [random_ball_point(rng, config.n, 0.9) for _ in range(2)]
    return _partial_points(config, f, expected_ids(config.suite, config.m), zs)


def _radial_points(config, rng, f):
    zs = [np.zeros(config.n, dtype=complex) for _ in range(2)]
    for z in zs:
        z[0] = rng.uniform(0.0, 0.9) * np.exp(2j * np.pi * rng.uniform())
    return _partial_points(config, f, ("5.3",), zs)


def _origin_points(config, rng, f):
    betas = _beta_set(rng, np.zeros(config.n, dtype=complex))
    orders = mi.enumerate_up_to(config.n, min(config.k_max, 4), include_zero=False)
    requests = [("3.1", {"beta": beta, "k": k}) for beta in betas for k in range(1, config.k_max + 1)]
    requests += [("3.2", {"v": v}) for v in orders]
    return [bounds.Point(f, None, None, requests)]


def _extremal_origin(rng, m, a0_abs, v):
    """An origin-extremal map for v with |a0| = a0_abs and random directions."""
    a0 = a0_abs * random_unit_vector(rng, m) if a0_abs > 0 else np.zeros(m, dtype=complex)
    return geometry.extremal_origin_from_direction(a0, random_unit_vector(rng, m), v)


def _origin_extremal_points(config, rng):
    """One origin-extremal construction, to be checked through the quadrature route."""
    orders = mi.enumerate_up_to(config.n, min(config.k_max, 4), include_zero=False)
    v = orders[int(rng.integers(len(orders)))]
    f = _extremal_origin(rng, config.m, float(rng.choice([0.0, 0.3, 0.7])), v)
    return [bounds.Point(f, None, None, [("3.2", {"v": v})])]


#: Per-sample point builders of the polynomial sampling suites.
_SAMPLE_POINTS = {"main": _main_points, "disk": _disk_points, "partials": _partials_points,
                  "radial": _radial_points, "origin": _origin_points}


# --------------------------------------------------------------------------
# equality certification

def equality_suite(config: SuiteConfig) -> Report:
    """Certify the equality cases: origin-extremal maps across a parameter
    grid, the first-order extremal construction, the linear-plus-square
    example (equality with an off-shape coefficient), and the off-lattice
    Taylor-coefficient vanishing for extremal maps."""
    config = replace(config, suite="equality")
    validate_config(config)
    records: list[dict] = []
    maps: dict[str, object] = {}

    # origin-extremal grid: all v with |v| <= 4, |a0| in {0, 0.3, 0.7}, checked as one batch
    rng = _rng(config.seed, 100)
    grid = [(v, _extremal_origin(rng, config.m, a0_abs, v))
            for v in mi.enumerate_up_to(config.n, 4, include_zero=False) for a0_abs in (0.0, 0.3, 0.7)]
    samples = [f"ext-{idx:04d}" for idx in range(len(grid))]
    maps.update(zip(samples, (f for _, f in grid)))
    for rec in _records(config, samples, [bounds.Point(f, None, None, [("3.2", {"v": v})]) for v, f in grid]):
        records.append(rec)
        records.append(certificate_record(
            config.suite, rec["sample"], "3.2-equality",
            measured=abs(rec["slack"]), slack=EQUALITY_TOL - abs(rec["slack"]), k_or_v=rec["k_or_v"]))

    # linear-plus-square example: equality at v = (1,0) with an off-shape coefficient
    if config.n == 2:
        f = geometry.linear_plus_square_map()
        maps["remark-example"] = f
        [rec] = _records(config, repeat("remark-example"), [bounds.Point(f, None, None, [("3.2", {"v": (1, 0)})])])
        records.append(rec)
        records.append(certificate_record(
            config.suite, "remark-example", "3.2-equality",
            measured=abs(rec["slack"]), slack=1e-12 - abs(rec["slack"]), k_or_v=rec["k_or_v"]))
        off_form = float(np.linalg.norm(f.coefficient((0, 2))))
        records.append(certificate_record(
            config.suite, "remark-example", "off-shape-coefficient",
            measured=off_form, slack=off_form - 1e-6, k_or_v=_k_or_v(None, (0, 2))))

    # off-lattice Taylor-coefficient vanishing (rigidity of the extremal shape)
    rng = _rng(config.seed, 101)
    for i, v in enumerate(((1, 1), (2, 1), (2, 2))):
        for a0_abs in (0.3, 0.7):
            sample = f"rigid-{i}{int(a0_abs * 10):02d}"
            maps[sample] = f = _extremal_origin(rng, 1, a0_abs, v)
            table = cauchy.taylor_coefficients(f, mi.enumerate_up_to(f.n, 8))
            lattice = {tuple(j * x for x in v) for j in range(0, 9)}
            worst = max(float(np.linalg.norm(c)) for alpha, c in table.items() if alpha not in lattice)
            records.append(certificate_record(
                config.suite, sample, "off-lattice-vanishing",
                measured=worst, slack=1e-9 - worst, k_or_v=_k_or_v(None, v)))

    # first-order extremal constructions: metric equality in every direction
    rng = _rng(config.seed, 102)
    for i in range(3):
        sample = f"k1-{i:04d}"
        xi = random_ball_point(rng, config.n, 0.5)
        w0 = random_ball_point(rng, config.m, 0.5)
        frame = random_isometry(rng, config.m, config.n)
        jac = geometry.jacobian_from_frame(xi, w0, frame)
        maps[sample] = f = geometry.ExtremalK1Map(xi, w0, jac)
        requests = [("1.3", {"beta": random_unit_vector(rng, config.n)}) for _ in range(50)]
        recs = _records(config, repeat(sample), [bounds.Point(f, xi, cauchy.partial_bundle(f, xi, 1), requests)])
        worst = max(abs(r["slack"]) for r in recs)
        records.append(recs[-1])
        records.append(certificate_record(
            config.suite, sample, "first-order-equality",
            measured=worst, slack=EQUALITY_TOL - worst))

    return _finalize(config, records, maps)


# --------------------------------------------------------------------------
# sharpness sweeps

def sweep_prediction(k: int, xi_abs: float, w_abs: float) -> float:
    """Closed-form squared-ratio prediction ((|w|+|xi|)/(1+|xi|))^(2(k-1)),
    the same for both sweep families."""
    return ((w_abs + xi_abs) / (1.0 + xi_abs)) ** (2 * (k - 1))


def _sweep_records(config: SuiteConfig, family: str, radii, maps: dict):
    if family not in ("remark2", "remark4"):
        raise ConfigError(f"unknown sweep family {family!r}")
    radii = list(radii)
    if not radii or radii != sorted(set(radii)) or not all(0.0 < r < 1.0 for r in radii):
        raise ConfigError("sweep radii must be a non-empty, strictly increasing ladder inside (0, 1)")
    rng = _rng(config.seed, 200 if family == "remark2" else 201)
    xi_phase = np.exp(2j * np.pi * rng.uniform())
    w_dir = random_unit_vector(rng, config.m) if family == "remark2" else np.exp(2j * np.pi * rng.uniform())
    order = min(config.k_max, 4)
    # one point per (xi, |w|): one partial bundle serves every k.  The bounds take the
    # pinned |f(xi)| = |w|, not norm(f(xi)): they differ in the last bit at a quarter of
    # the points, which (1-|w|^2)^2 scales to 2e-11 relative in `ratio` at |w| = 0.99999,
    # flipping `tight` flags
    points, samples, params = [], [], []
    for xi_abs in (0.25, 0.5, 0.75):
        z = np.zeros(1 if family == "remark2" else config.n, dtype=complex)
        z[0] = xi_abs * xi_phase
        for w_abs in radii:
            w = w_abs * w_dir
            if family == "remark2":
                f = geometry.Remark2Map(z[0], w)
                requests = [("4.1", {"k": k}) for k in range(1, order + 1)]
            else:
                f = geometry.Remark4Map(z[0], w, n=config.n)
                requests = [("5.3", {"v": (k,) + (0,) * (config.n - 1)}) for k in range(1, order + 1)]
            points.append(bounds.Point(f, z, cauchy.partial_bundle(f, z, order), requests,
                                       (np.atleast_1d(w), w_abs)))
            for k in range(1, order + 1):
                sample = f"{family}-k{k}-x{xi_abs:.2f}"
                maps[sample] = f  # left at the final |w|, which sweep-final-ratio certifies
                samples.append(sample)
                params.append((xi_abs, w_abs, sweep_prediction(k, xi_abs, w_abs)))
    records = _records(config, samples, points)
    series: dict[str, list[dict]] = {}
    for rec, (xi_abs, w_abs, predicted) in zip(records, params):
        rec.update(family=family, w_abs=w_abs, xi_abs=xi_abs, ratio_modulus=math.sqrt(rec["ratio"]),
                   predicted=predicted, predicted_modulus=math.sqrt(predicted))
        series.setdefault(rec["sample"], []).append(rec)
    for sample, recs in series.items():
        ratios = [rec["ratio"] for rec in recs]
        mono_gap = min(b - a for a, b in zip(ratios, ratios[1:])) if len(ratios) > 1 else 0.0
        # nondecreasing up to quadrature noise (k = 1 series are constant)
        records.append(certificate_record(
            config.suite, sample, "sweep-monotone", measured=mono_gap, slack=mono_gap + 1e-9,
            family=family, xi_abs=recs[-1]["xi_abs"]))
        final_gap = ratios[-1] - (recs[-1]["predicted"] - 1e-6)
        records.append(certificate_record(
            config.suite, sample, "sweep-final-ratio", measured=ratios[-1], slack=final_gap,
            family=family, xi_abs=recs[-1]["xi_abs"]))
    return records


def sharpness_sweep(config: SuiteConfig, family: str, radii=DEFAULT_SWEEP_RADII) -> Report:
    """Sweep |w| toward the boundary for one sharpness family and record the
    attained ratios against their closed-form predictions."""
    config = replace(config, suite="sharpness")
    validate_config(config)
    maps: dict[str, object] = {}
    records = _sweep_records(config, family, radii, maps)
    # the report echoes the dimensions checked: remark2 maps have n = 1, remark4 maps m = 1
    checked = {"n": 1} if family == "remark2" else {"m": 1}
    return _finalize(replace(config, **checked), records, maps,
                     expected=("4.1",) if family == "remark2" else ("5.3",))


def replay_sample(path, config: SuiteConfig) -> Report:
    """Re-run a persisted failing polynomial map through the contexts of its
    sampling suite at the sample the file name ends with (`...-failure-poly-0001`
    is sample 1), or at sample 0 when the name carries no sample.  A file that
    does not hold PolyMap JSON raises ConfigError."""
    path = Path(path)
    try:
        f = PolyMap.from_json_dict(json.loads(path.read_text()))
    except (TypeError, KeyError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"{path} does not hold a PolyMap in JSON: {exc!r}") from exc
    cfg = SuiteConfig(**{**asdict(config), "n": f.n, "m": f.m, "samples": 1})
    validate_config(cfg)
    if cfg.suite not in _SAMPLE_POINTS:
        raise ConfigError(f"suite {cfg.suite!r} does not sample polynomial maps; nothing to replay")
    match = re.search(r"-failure-poly-(\d+)$", path.stem)
    rng = _rng(cfg.seed, SUITE_IDS.index(cfg.suite), int(match.group(1)) if match else 0)
    random_polymap(cfg.n, cfg.m, cfg.degree, rng)  # the sample's own map, drawn as run_suite draws it
    sample = f"replay-{path.stem}"
    return _finalize(cfg, _records(cfg, repeat(sample), _SAMPLE_POINTS[cfg.suite](cfg, rng, f)), {sample: f})
