"""Suite orchestration: sampling campaigns, equality certification, sharpness
sweeps, and deterministic JSON/CSV reporting, all run by `run_suite`.

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
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import bounds, cauchy, geometry
from . import multiindex as mi
from .holomap import PolyMap, random_polymap, sq_norm

SCHEMA = "spv-report/2"

#: The sharpness-sweep families and the inequality id each checks.
SWEEP_FAMILIES = {"remark2": "4.1", "remark4": "5.3"}

#: Default |w| ladder for the asymptotic-sharpness sweeps.
DEFAULT_SWEEP_RADII = (0.9, 0.99, 0.999, 0.9999)

#: The report formats `emit` writes.
FORMATS = ("json", "csv")


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
    tol: float = 1e-9
    family: str = "remark2"
    radii: tuple = DEFAULT_SWEEP_RADII


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
    if type(config.family) is not str or config.family not in SWEEP_FAMILIES:
        raise ConfigError(f"unknown sweep family {config.family!r}; expected one of {tuple(SWEEP_FAMILIES)}")
    radii = config.radii
    if not isinstance(radii, (tuple, list)) or any(isinstance(r, bool) or not isinstance(r, (int, float))
                                                   for r in radii):
        raise ConfigError(f"sweep radii must be a tuple or list of numbers, got {radii!r}")
    if not radii or list(radii) != sorted(set(radii)) or not all(0.0 < r < 1.0 for r in radii):
        raise ConfigError("sweep radii must be a non-empty, strictly increasing ladder inside (0, 1)")
    if config.suite == "disk" and config.n != 1:
        raise ConfigError("the disk suite requires n = 1")
    if config.suite == "equality" and config.n > config.m:
        raise ConfigError("the equality suite requires n <= m")


def expected_ids(suite: str, m: int) -> tuple[str, ...]:
    """The inequality ids a report of the suite at codomain dimension m must
    hold; for `sharpness`, those of both families (a report holds its own
    family's)."""
    return tuple(dict.fromkeys(ineq for family in SWEEP_FAMILIES for ineq in SUITES[suite].manifest(m, family)))


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


def _shared_vector_encoder():
    """`_encode_record` for the records of one report that encodes each `z`
    and `beta` value once per object, keyed by identity (the records keep
    every value alive): the records of one point share those lists.  A
    record whose keys are `str`s from "beta" to "z", both included, as in
    every record of the package, is `_encode_record` of it with `null` for
    both, `beta` and `z` spliced in; any other record is `_encode_record` of
    it.  The key check is made once per tuple of keys."""
    encoded: dict[int, str] = {}
    spliced: dict[tuple, bool] = {}

    def shared(value) -> str:
        if id(value) not in encoded:
            encoded[id(value)] = _encode_record(value)
        return encoded[id(value)]

    def encode(record) -> str:
        if type(record) is not dict:
            return _encode_record(record)
        keys = tuple(record)
        if keys not in spliced:
            spliced[keys] = ("beta" in keys and "z" in keys
                             and all(type(key) is str and "beta" <= key <= "z" for key in keys))
        if not spliced[keys]:
            return _encode_record(record)
        # '{"beta": null' + ', ..., ' + '"z": null}'
        middle = _encode_record({**record, "beta": None, "z": None})[13:-10]
        return '{"beta": ' + shared(record["beta"]) + middle + '"z": ' + shared(record["z"]) + "}"

    return encode


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


def certificate_record(suite: str, sample: str, name: str, measured: float, slack: float, k_or_v: str = "") -> dict:
    """A pass/fail certification row; pass iff slack >= 0."""
    return {
        "suite": suite,
        "sample": sample,
        "kind": "certificate",
        "inequality": name,
        "k_or_v": k_or_v,
        "z": None,
        "beta": None,
        "lhs": float(measured),
        "rhs": float(measured) + float(slack),
        "slack": float(slack),
        "ratio": 0.0,
    }


def _is_failure(record: dict, tol: float) -> bool:
    """The one verdict on a record.  Any record fails when its slack is not
    finite; a certificate when its slack is below 0; a bound record when its
    ratio passes 1 + tol or, if it carries a `predicted` ratio, misses it by
    more than tol relative.  A NaN ratio fails."""
    if not math.isfinite(record["slack"]):
        return True
    if record["kind"] == "certificate":
        return not record["slack"] >= 0.0
    ratio, predicted = record["ratio"], record.get("predicted")
    return not (ratio <= 1.0 + tol and (predicted is None or abs(ratio - predicted) <= tol * predicted))


def _ratio_error(record: dict) -> float:
    """max(ratio - 1, |ratio - predicted|/predicted) of a bound record; ratio - 1 without a prediction."""
    ratio, predicted = record["ratio"], record.get("predicted")
    return max(ratio - 1.0, -math.inf if predicted is None else abs(ratio - predicted) / predicted)


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
            lines = ",\n    ".join(map(_shared_vector_encoder(), self.records))
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


def _finalize(config: SuiteConfig, records: list[dict], maps: dict) -> Report:
    """Sort the records, then in one pass flag them, collect the failing
    samples and summarize; check the suite's manifest, list each failing
    sample with its most negative failing slack, the largest `_ratio_error`
    of its failing bound records and its map (`maps[sample]`, for replay),
    and echo the settings the suite reads."""
    records.sort(key=lambda r: (r["sample"], r["inequality"]))
    tol = config.tol
    seen: set[str] = set()
    slacks, ratios = [], []
    failing: dict[str, list[dict]] = {}
    for rec in records:
        seen.add(rec["inequality"])
        slacks.append(rec["slack"])
        if rec["kind"] == "bound":
            ratios.append(rec["ratio"])
            # a ratio past 1 within tolerance is discretization noise, not a violation
            rec["tight"] = 1.0 < rec["ratio"] <= 1.0 + tol
        if _is_failure(rec, tol):
            failing.setdefault(rec["sample"], []).append(rec)
    suite = SUITES[config.suite]
    for ineq in suite.manifest(config.m, config.family):
        if ineq not in seen:
            raise AssertionError(f"suite {config.suite} produced no records for inequality {ineq}")
    failures = []
    for sample, recs in failing.items():
        f = maps[sample]
        described = f.to_json_dict() if isinstance(f, PolyMap) else f.describe()
        failures.append({"sample": sample, "suite": recs[0]["suite"],
                         "worst_slack": _reduce(min, [r["slack"] for r in recs]),
                         "worst_ratio_error": _reduce(max, [_ratio_error(r) for r in recs if r["kind"] == "bound"]),
                         "map": described})
    echo = {name: value for name, value in asdict(config).items() if name in suite.reads}
    return Report(schema=SCHEMA, config=echo, records=records, failures=failures,
                  summary={"record_count": len(records), "failure_count": sum(map(len, failing.values())),
                           "min_slack": _reduce(min, slacks), "min_ratio": _reduce(min, ratios),
                           "max_ratio": _reduce(max, ratios)})


def emit(report: Report, fmt: str, path) -> None:
    """Write a report (json or csv); failing samples are additionally written
    as standalone replay files next to the report."""
    if fmt not in FORMATS:
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


def run_suite(config: SuiteConfig) -> Report:
    """Run the suite `config.suite` names, drawing the families of its row of
    `SUITES`, and return its deterministic report.  A `remark2` sweep checks
    disk maps and a `remark4` sweep scalar ones, so they echo n = 1 and m = 1."""
    validate_config(config)
    if config.suite == "sharpness":
        config = replace(config, **{"n" if config.family == "remark2" else "m": 1})
    suite, draws = SUITES[config.suite], []
    if suite.points is not None:
        for s in range(config.samples):
            rng = _rng(config.seed, SUITE_IDS.index(config.suite), s)
            f = random_polymap(config.n, config.m, config.degree, rng)
            draws += _polynomial(config, rng, f, f"poly-{s:04d}")
            for family in suite.each:
                draws += family(config, rng, s)
    for key, family in suite.fixed:
        draws += family(config, _rng(config.seed, key))
    return _finalize(config, *_records(config, draws))


#: The fields of a request's label: none, or an equality case's prediction.
_PLAIN, _EQUAL = {}, {"predicted": 1.0}


def _records(config, draws) -> tuple[list[dict], dict]:
    """The records of the draws, (map, `bounds.Point`, one (sample, fields)
    label per request) or (map, certificate record, ()), and each sample's
    last map.  The points of one (n, m) are one `bounds.check_columns` batch;
    a bound record carries config.suite, its label (with `ratio_modulus`
    beside a `predicted_modulus`), one [[re, im], ...] list per point and
    per direction and one k_or_v string per order."""
    vectors: dict[int, list] = {}  # the rows hold every array
    orders: dict = {}
    batches: dict[tuple, list] = {}
    out, maps = [], {}
    for f, item, labels in draws:
        if isinstance(item, dict):
            out.append(item)
            maps[item["sample"]] = f
        else:
            batches.setdefault((f.n, f.m), []).append((f, item, labels))
    for batch in batches.values():
        rows = iter(bounds.check_columns([point for _, point, _ in batch]))
        for f, _, labels in batch:
            for (sample, fields), row in zip(labels, rows):  # labels first: zip leaves the next point's rows
                maps[sample] = f
                order = row.k if row.v is None else row.v
                if order not in orders:
                    orders[order] = _k_or_v(row.k, row.v)
                out.append({"suite": config.suite, "sample": sample, "kind": "bound", "inequality": row.inequality,
                            "k_or_v": orders[order], "z": _cvec(row.z, vectors), "beta": _cvec(row.beta, vectors),
                            "lhs": row.lhs, "rhs": row.rhs, "slack": row.slack, "ratio": row.ratio, **fields})
                if "predicted_modulus" in fields:
                    out[-1]["ratio_modulus"] = math.sqrt(row.ratio)
    return out, maps


def _labelled(sample, f, points, equal=()) -> list[tuple]:
    """The draws of one sample's points; the requests of the ids in `equal`, equality cases, predict ratio 1."""
    return [(f, p, [(sample, _EQUAL if ineq in equal else _PLAIN) for ineq, _ in p.requests]) for p in points]


def _polynomial(config, rng, f, sample) -> list[tuple]:
    """The draws of a polynomial sample: its suite's points at orders up to f's degree; higher ones read 0."""
    capped = replace(config, k_max=min(config.k_max, max(f.max_degree, 1)))
    return _labelled(sample, f, SUITES[config.suite].points(capped, rng, f))


# --------------------------------------------------------------------------
# sampling suites

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


def _partial_points(config, rng, f):
    """Points requesting each id of the suite for every non-zero v with |v| <= min(k_max, 4),
    at two random z, on the z1-axis for `radial`."""
    if config.suite == "partials":
        zs = [random_ball_point(rng, config.n, 0.9) for _ in range(2)]
    else:
        zs = [np.zeros(config.n, dtype=complex) for _ in range(2)]
        for z in zs:
            z[0] = rng.uniform(0.0, 0.9) * np.exp(2j * np.pi * rng.uniform())
    order = min(config.k_max, 4)
    orders = mi.enumerate_up_to(config.n, order, include_zero=False)
    requests = [(ineq, {"v": v}) for v in orders for ineq in expected_ids(config.suite, config.m)]
    return [bounds.Point(f, z, cauchy.partial_bundle(f, z, order), requests) for z in zs]


#: The Parseval sums, complete at a polynomial's degree.
_PARSEVAL = ("parseval-slice", "parseval-torus")


def _origin_points(config, rng, f):
    betas = _beta_set(rng, np.zeros(config.n, dtype=complex))
    orders = mi.enumerate_up_to(config.n, min(config.k_max, 4), include_zero=False)
    requests = [("3.1", {"beta": beta, "k": k}) for beta in betas for k in range(1, config.k_max + 1)]
    requests += [("3.2", {"v": v}) for v in orders]
    requests += [(ineq, {"beta": beta, "k": config.degree}) for beta in betas for ineq in _PARSEVAL]
    return [bounds.Point(f, None, None, requests)]


def _automorphism(config, rng, s):
    """When n = m, a ball automorphism at the `main` contexts; its 1.3 records are equality cases."""
    if config.n != config.m:
        return []
    f = geometry.AutomorphismMap(random_ball_point(rng, config.m, 0.5))
    return _labelled(f"aut-{s:04d}", f, _main_points(config, rng, f), {"1.3"})


def _extremal_origin(rng, m, a0_abs, v):
    """An origin-extremal map for v with |a0| = a0_abs and random directions."""
    a0 = a0_abs * random_unit_vector(rng, m) if a0_abs > 0 else np.zeros(m, dtype=complex)
    return geometry.extremal_origin_from_direction(a0, random_unit_vector(rng, m), v)


def _origin_extremal(config, rng, s):
    """One origin-extremal map, checked through the quadrature route; its 3.2 record is an equality case."""
    orders = mi.enumerate_up_to(config.n, min(config.k_max, 4), include_zero=False)
    v = orders[int(rng.integers(len(orders)))]
    f = _extremal_origin(rng, config.m, float(rng.choice([0.0, 0.3, 0.7])), v)
    return _coefficient_case(f"ext-{s:04d}", f, v)


def _coefficient_case(sample, f, v):
    """The draw of f's 3.2 record at v, an equality case."""
    return _labelled(sample, f, [bounds.Point(f, None, None, [("3.2", {"v": v})])], {"3.2"})


def _tensor_power(config, rng):
    """When n <= m, U z^(x)d, U random, at the largest d <= min(degree, k_max) with C(n+d-1, d) <= m:
    its 3.1 and Parseval records at k = d are equality cases."""
    if config.n > config.m:
        return []
    d = max(j for j in range(1, min(config.degree, config.k_max) + 1) if math.comb(config.n + j - 1, j) <= config.m)
    f = geometry.tensor_power(config.n, config.m, d, random_isometry(rng, config.m, config.m))
    betas = _beta_set(rng, np.zeros(config.n, dtype=complex))
    ids = ("3.1",) + _PARSEVAL
    return _labelled("prop-0000", f, [bounds.Point(f, None, None, [(ineq, {"beta": beta, "k": d})
                                                                  for beta in betas for ineq in ids])], ids)


# --------------------------------------------------------------------------
# equality certification

def _origin_extremals(config, rng):
    """Origin-extremal maps for every v with |v| <= 4 and |a0| in {0, 0.3, 0.7}, and for n = 2 the example
    z1 + z2^2/3, equality at v = (1, 0) with an off-shape coefficient: 3.2 equality cases."""
    draws = []
    grid = [(v, a0_abs) for v in mi.enumerate_up_to(config.n, 4, include_zero=False) for a0_abs in (0.0, 0.3, 0.7)]
    for idx, (v, a0_abs) in enumerate(grid):
        f = _extremal_origin(rng, config.m, a0_abs, v)
        draws += _coefficient_case(f"ext-{idx:04d}", f, v)
    if config.n == 2:
        f = geometry.linear_plus_square_map()
        draws += _coefficient_case("remark-example", f, (1, 0))
        off_form = float(np.linalg.norm(f.coefficient((0, 2))))
        draws.append((f, certificate_record(config.suite, "remark-example", "off-shape-coefficient", measured=off_form,
                                            slack=off_form - config.tol, k_or_v=_k_or_v(None, (0, 2))), ()))
    return draws


def _rigid(config, rng):
    """Off-lattice Taylor-coefficient vanishing (rigidity of the extremal shape) of scalar origin-extremal
    maps, on the scale of the coefficient bound, as ExtremalOriginMap checks its equality condition."""
    grid = [(i, v, a0_abs) for i, v in enumerate(((1, 1), (2, 1), (2, 2))) for a0_abs in (0.3, 0.7)]
    fs = [_extremal_origin(rng, 1, a0_abs, v) for _, v, a0_abs in grid]
    draws = []
    for (i, v, a0_abs), f, table in zip(grid, fs, cauchy.origin_coefficients(fs, mi.enumerate_up_to(2, 8))):
        lattice = {tuple(j * x for x in v) for j in range(0, 9)}
        worst = max(float(np.linalg.norm(c)) for alpha, c in table.items() if alpha not in lattice)
        worst /= mi.sharpness_factor(v) * bounds.rhs_origin(a0_abs)
        sample = f"rigid-{i}{int(a0_abs * 10):02d}"
        draws.append((f, certificate_record(config.suite, sample, "off-lattice-vanishing", measured=worst,
                                            slack=config.tol - worst, k_or_v=_k_or_v(None, v)), ()))
    return draws


def _first_order(config, rng):
    """First-order extremal constructions: metric equality, 1.3, in 50 random directions each."""
    draws = []
    for i in range(3):
        xi = random_ball_point(rng, config.n, 0.5)
        w0 = random_ball_point(rng, config.m, 0.5)
        jac = geometry.jacobian_from_frame(xi, w0, random_isometry(rng, config.m, config.n))
        f = geometry.ExtremalK1Map(xi, w0, jac)
        requests = [("1.3", {"beta": random_unit_vector(rng, config.n)}) for _ in range(50)]
        draws += _labelled(f"k1-{i:04d}", f, [bounds.Point(f, xi, cauchy.partial_bundle(f, xi, 1), requests)], {"1.3"})
    return draws


# --------------------------------------------------------------------------
# sharpness sweeps

def sweep_prediction(k: int, xi_abs: float, w_abs: float) -> float:
    """Closed-form squared-ratio prediction ((|w|+|xi|)/(1+|xi|))^(2(k-1)),
    the same for both sweep families."""
    return ((w_abs + xi_abs) / (1.0 + xi_abs)) ** (2 * (k - 1))


def _sweep(family, config, rng):
    """When config.family is `family`, sweep |w| toward the boundary against closed-form predictions."""
    if config.family != family:
        return []
    xi_phase = np.exp(2j * np.pi * rng.uniform())
    w_dir = random_unit_vector(rng, config.m) if family == "remark2" else np.exp(2j * np.pi * rng.uniform())
    order = min(config.k_max, 4)
    requests = [(SWEEP_FAMILIES[family], {"k": k} if family == "remark2" else {"v": (k,) + (0,) * (config.n - 1)})
                for k in range(1, order + 1)]
    # one point per (xi, |w|): one partial bundle serves every k; the maps of one xi share one slice grid
    draws = []
    for xi_abs in (0.25, 0.5, 0.75):
        z = np.zeros(config.n, dtype=complex)  # n = 1 for remark2
        z[0] = xi_abs * xi_phase
        ws = [w_abs * w_dir for w_abs in config.radii]
        fs = [geometry.Remark2Map(z[0], w) if family == "remark2" else geometry.Remark4Map(z[0], w, n=config.n)
              for w in ws]
        for f, w_abs, bundle in zip(fs, config.radii, cauchy.partial_bundles(fs, z, order)):
            predicted = [sweep_prediction(k, xi_abs, w_abs) for k in range(1, order + 1)]
            # a sample's map is left at the final |w|, the map a failing sample names
            labels = [(f"{family}-k{k}-x{xi_abs:.2f}", {"family": family, "w_abs": w_abs, "xi_abs": xi_abs,
                                                        "predicted": p, "predicted_modulus": math.sqrt(p)})
                      for k, p in enumerate(predicted, 1)]
            draws.append((f, bounds.Point(f, z, bundle, requests), labels))
    return draws


class Suite(NamedTuple):
    """One row of `SUITES`: the families a suite draws for `_records`, its manifest and the settings it reads."""
    points: Callable | None  # (config, rng, f) -> a polynomial sample's bounds.Points; None: no samples
    each: tuple  # families (config, rng, s), drawn after sample s's points from its generator
    fixed: tuple  # (key, family (config, rng)) pairs, each drawn from the generator of its key
    manifest: Callable  # (m, family) -> the inequality ids a report must hold
    reads: tuple[str, ...]  # the SuiteConfig fields the suite reads, which its reports echo


_SAMPLED = ("suite", "n", "m", "samples", "degree", "k_max", "seed", "tol")

#: Every suite, in the order whose index seeds each sampling suite's generators.
SUITES = {
    "main": Suite(_main_points, (_automorphism,), (), lambda m, family: ("1.3", "1.4"), _SAMPLED),
    "disk": Suite(_disk_points, (), (), lambda m, family: ("1.1", "4.1") if m == 1 else ("4.1",), _SAMPLED),
    "partials": Suite(_partial_points, (), (), lambda m, family: ("1.2", "5.1", "5.2") if m == 1 else ("5.1",),
                      _SAMPLED),
    "radial": Suite(_partial_points, (), (), lambda m, family: ("5.3",), _SAMPLED),
    "origin": Suite(_origin_points, (_origin_extremal,), ((300, _tensor_power),),
                    lambda m, family: ("3.1", "3.2") + _PARSEVAL, _SAMPLED),
    "equality": Suite(None, (), ((100, _origin_extremals), (101, _rigid), (102, _first_order)),
                      lambda m, family: ("1.3", "3.2"), ("suite", "n", "m", "seed", "tol")),
    "sharpness": Suite(None, (), ((200, partial(_sweep, "remark2")), (201, partial(_sweep, "remark4"))),
                       lambda m, family: (SWEEP_FAMILIES[family],),
                       ("suite", "n", "m", "k_max", "seed", "tol", "family", "radii")),
}
SUITE_IDS = tuple(SUITES)

#: The suites that sample polynomial maps.
SAMPLING_SUITES = tuple(name for name, suite in SUITES.items() if suite.points is not None)


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
    cfg = replace(config, n=f.n, m=f.m, samples=1)
    validate_config(cfg)
    if cfg.suite not in SAMPLING_SUITES:
        raise ConfigError(f"suite {cfg.suite!r} does not sample polynomial maps; nothing to replay")
    match = re.search(r"-failure-poly-(\d+)$", path.stem)
    rng = _rng(cfg.seed, SUITE_IDS.index(cfg.suite), int(match.group(1)) if match else 0)
    random_polymap(cfg.n, cfg.m, cfg.degree, rng)  # the sample's own map, drawn as run_suite draws it
    return _finalize(cfg, *_records(cfg, _polynomial(cfg, rng, f, f"replay-{path.stem}")))
