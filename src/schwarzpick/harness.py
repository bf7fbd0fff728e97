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
import operator
import re
from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import bounds, cauchy, geometry
from . import multiindex as mi
from .holomap import PolyMap, random_polymap, sq_norm

SCHEMA = "spv-report/1"

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

def _cvec(value, vectors: dict) -> list | None:
    """The [[re, im], ...] list of a complex vector, built once per distinct
    array in `vectors` (keyed by its bytes), so records that share a point or
    a direction share one list."""
    if value is None:
        return None
    value = np.asarray(value, dtype=complex)
    key = value.tobytes()
    if key not in vectors:
        vectors[key] = [[c.real, c.imag] for c in value.reshape(-1).tolist()]
    return vectors[key]


def _k_or_v(context: dict) -> str:
    if context.get("v") is not None:
        return "v=" + ",".join(str(x) for x in context["v"])
    if context.get("k") is not None:
        return f"k={context['k']}"
    return ""


def record_from_report(suite: str, sample: str, report: bounds.BoundReport, vectors: dict, **extra) -> dict:
    """The report's record; `vectors` is the _cvec cache its batch shares."""
    rec = {
        "suite": suite,
        "sample": sample,
        "kind": "bound",
        "inequality": report.inequality,
        "k_or_v": _k_or_v(report.context),
        "z": _cvec(report.context.get("z"), vectors),
        "beta": _cvec(report.context.get("beta"), vectors),
        "lhs": report.lhs,
        "rhs": report.rhs,
        "slack": report.slack,
        "ratio": report.ratio,
    }
    rec.update(extra)
    return rec


def certificate_record(suite: str, sample: str, name: str, measured: float, slack: float, **extra) -> dict:
    """A pass/fail certification row; pass iff slack >= 0."""
    rec = {
        "suite": suite,
        "sample": sample,
        "kind": "certificate",
        "inequality": name,
        "k_or_v": extra.pop("k_or_v", ""),
        "z": extra.pop("z", None),
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


def _summary(count: int, failure_count: int, slacks: list, ratios: list) -> dict:
    return {"record_count": count, "failure_count": failure_count, "min_slack": _reduce(min, slacks),
            "min_ratio": _reduce(min, ratios), "max_ratio": _reduce(max, ratios)}


def summarize(records: list[dict], tol: float) -> dict:
    """Record and failure counts, the least slack over all records and the
    ratio range over the bound records; a NaN makes its reduction NaN."""
    return _summary(len(records), sum(_is_failure(r, tol) for r in records), [r["slack"] for r in records],
                    [r["ratio"] for r in records if r["kind"] == "bound"])


# --------------------------------------------------------------------------
# report JSON: json.dumps(indent=2, sort_keys=True) bytes from record templates

_json_string = json.encoder.encode_basestring_ascii

#: json's text of the non-finite floats, keyed by float.__repr__.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_float(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


def _json_nested(value, depth: int) -> str:
    """json.dumps(value, indent=2, sort_keys=True) as it reads nested `depth`
    levels deep; a raw newline is always indentation, never inside a string."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


def _records_json(records) -> str:
    """The report's records list at depth 1.  Each record is written from the
    %-template of its key set; a float is float.__repr__ (or NaN/Infinity),
    a string is ASCII-escaped, and a [[re, im], ...] list of floats fills the
    template of its length.  Any other record or value takes _json_nested."""
    if type(records) is not list or not records:
        return _json_nested(records, 1)
    pad = "      "  # record members sit at depth 3
    templates: dict[tuple, tuple | None] = {}
    vector_templates: dict[int, str] = {}
    # the records hold every list for the whole call, so no two share an id
    vectors: dict[int, str] = {}

    def vector(vec) -> str:
        if not (vec and all(type(p) is list and len(p) == 2 for p in vec)
                and all(type(x) is float for x in chain.from_iterable(vec))):
            return _json_nested(vec, 3)
        length = len(vec)
        if length not in vector_templates:
            pair = f"{pad}  [\n{pad}    %s,\n{pad}    %s\n{pad}  ]"
            vector_templates[length] = "[\n" + ",\n".join([pair] * length) + f"\n{pad}]"
        return vector_templates[length] % tuple(map(_json_float, chain.from_iterable(vec)))

    def value(v) -> str:
        kind = type(v)
        if kind is float:
            return _json_float(v)
        if kind is str:
            return _json_string(v)
        if kind is list:
            key = id(v)
            if key not in vectors:
                vectors[key] = vector(v)
            return vectors[key]
        if v is None or kind is bool:
            return _JSON_CONSTANTS[v]
        return _json_nested(v, 3)

    def template(keys: tuple) -> tuple | None:
        if not keys or not all(type(k) is str for k in keys):
            return None
        ordered = sorted(keys)
        lines = ",\n".join(f"{pad}{_json_string(k).replace('%', '%%')}: %s" for k in ordered)
        getter = operator.itemgetter(*ordered) if len(ordered) > 1 else lambda rec: (rec[ordered[0]],)
        return "{\n" + lines + "\n    }", getter

    out = []
    for rec in records:
        if type(rec) is dict:
            keys = tuple(rec)
            if keys not in templates:
                templates[keys] = template(keys)
            entry = templates[keys]
        else:
            entry = None
        if entry is None:
            out.append(_json_nested(rec, 2))
        else:
            text, getter = entry
            out.append(text % tuple(map(value, getter(rec))))
    return "[\n    " + ",\n    ".join(out) + "\n  ]"


@dataclass
class Report:
    schema: str
    config: dict
    records: list
    failures: list
    summary: dict

    def to_json(self) -> str:
        """The bytes of `json.dumps(vars(self), indent=2, sort_keys=True) + "\\n"`,
        with the records written from templates rather than by json's
        pure-Python indenting encoder."""
        body = vars(self)
        members = [f"  {_json_string(key)}: "
                   + (_records_json(value) if key == "records" else _json_nested(value, 1))
                   for key, value in sorted(body.items())]
        return "{\n" + ",\n".join(members) + "\n}\n"

    @classmethod
    def from_json(cls, text: str) -> "Report":
        body = json.loads(text)
        return cls(schema=body["schema"], config=body["config"], records=body["records"],
                   failures=body["failures"], summary=body["summary"])

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
                  summary=_summary(len(records), sum(map(len, failing.values())), slacks, ratios))


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
    delegate to their dedicated drivers.
    """
    validate_config(config)
    if config.suite == "equality":
        return equality_suite(config)
    records: list[dict] = []
    maps: dict[str, object] = {}
    if config.suite == "sharpness":
        for family in ("remark2", "remark4"):
            records.extend(_sweep_records(config, family, DEFAULT_SWEEP_RADII, maps))
        return _finalize(config, records, maps)

    suite_code = SUITE_IDS.index(config.suite)
    for s in range(config.samples):
        rng = _rng(config.seed, suite_code, s)
        sample = f"poly-{s:04d}"
        maps[sample] = f = random_polymap(config.n, config.m, config.degree, rng)
        records.extend(_SAMPLE_RECORDS[config.suite](config, rng, sample, f))
        if config.suite == "main" and config.n == config.m:
            aut_sample = f"aut-{s:04d}"
            maps[aut_sample] = geometry.AutomorphismMap(random_ball_point(rng, config.m, 0.5))
            records.extend(_main_records(config, rng, aut_sample, maps[aut_sample]))
        elif config.suite == "origin":
            ext_sample = f"ext-{s:04d}"
            maps[ext_sample], ext_records = _origin_extremal_records(config, rng, ext_sample)
            records.extend(ext_records)

    return _finalize(config, records, maps)


def _records(config, sample, f, requests, z=None, bundle=None):
    """One record per (inequality, kwargs) request, all at z and checked in one
    batch that shares the partial `bundle` of f at z when given, and one
    [[re, im], ...] list per point and per direction."""
    vectors: dict[bytes, list] = {}
    return [record_from_report(config.suite, sample, report, vectors)
            for report in bounds.check_requests(f, requests, z=z, bundle=bundle)]


def _main_records(config, rng, sample, f):
    out = []
    zs = [random_ball_point(rng, config.n, 0.9) for _ in range(2)]
    zs.append(random_unit_vector(rng, config.n) * rng.uniform(0.955, 0.99))
    for z in zs:
        requests = []
        for beta in _beta_set(rng, z):
            requests.append(("1.3", {"beta": beta}))
            requests.extend(("1.4", {"beta": beta, "k": k}) for k in range(1, config.k_max + 1))
        out.extend(_records(config, sample, f, requests, z, cauchy.partial_bundle(f, z, config.k_max)))
    return out


def _disk_records(config, rng, sample, f):
    requests = [(ineq, {"k": k}) for k in range(1, config.k_max + 1)
                for ineq in expected_ids(config.suite, config.m)]
    out = []
    for _ in range(3):
        z = random_ball_point(rng, 1, 0.9)
        out.extend(_records(config, sample, f, requests, z, cauchy.partial_bundle(f, z, config.k_max)))
    return out


def _partial_records(config, sample, f, ids, zs):
    """Records of each id for every non-zero v with |v| <= min(k_max, 4), at each z."""
    order = min(config.k_max, 4)
    orders = mi.enumerate_up_to(config.n, order, include_zero=False)
    requests = [(ineq, {"v": v}) for v in orders for ineq in ids]
    return [rec for z in zs
            for rec in _records(config, sample, f, requests, z, cauchy.partial_bundle(f, z, order))]


def _partials_records(config, rng, sample, f):
    zs = [random_ball_point(rng, config.n, 0.9) for _ in range(2)]
    return _partial_records(config, sample, f, expected_ids(config.suite, config.m), zs)


def _radial_records(config, rng, sample, f):
    zs = [np.zeros(config.n, dtype=complex) for _ in range(2)]
    for z in zs:
        z[0] = rng.uniform(0.0, 0.9) * np.exp(2j * np.pi * rng.uniform())
    return _partial_records(config, sample, f, ("5.3",), zs)


def _origin_records(config, rng, sample, f):
    betas = _beta_set(rng, np.zeros(config.n, dtype=complex))
    orders = mi.enumerate_up_to(config.n, min(config.k_max, 4), include_zero=False)
    requests = [("3.1", {"beta": beta, "k": k}) for beta in betas for k in range(1, config.k_max + 1)]
    requests += [("3.2", {"v": v}) for v in orders]
    return _records(config, sample, f, requests)


def _extremal_origin(rng, m, a0_abs, v):
    """An origin-extremal map for v with |a0| = a0_abs and random directions."""
    a0 = a0_abs * random_unit_vector(rng, m) if a0_abs > 0 else np.zeros(m, dtype=complex)
    return geometry.extremal_origin_from_direction(a0, random_unit_vector(rng, m), v)


def _origin_extremal_records(config, rng, sample):
    """One origin-extremal construction checked through the quadrature route."""
    orders = mi.enumerate_up_to(config.n, min(config.k_max, 4), include_zero=False)
    v = orders[int(rng.integers(len(orders)))]
    f = _extremal_origin(rng, config.m, float(rng.choice([0.0, 0.3, 0.7])), v)
    return f, _records(config, sample, f, [("3.2", {"v": v})])


#: Per-sample record builders of the polynomial sampling suites.
_SAMPLE_RECORDS = {"main": _main_records, "disk": _disk_records, "partials": _partials_records,
                   "radial": _radial_records, "origin": _origin_records}


# --------------------------------------------------------------------------
# equality certification

def equality_suite(config: SuiteConfig) -> Report:
    """Certify the equality cases: origin-extremal maps across a parameter
    grid, the first-order extremal construction, the linear-plus-square
    example (equality with an off-shape coefficient), and the off-lattice
    Taylor-coefficient vanishing for extremal maps."""
    validate_config(config)
    records: list[dict] = []
    maps: dict[str, object] = {}

    # origin-extremal grid: all v with |v| <= 4, |a0| in {0, 0.3, 0.7}
    rng = _rng(config.seed, 100)
    idx = 0
    for v in mi.enumerate_up_to(config.n, 4, include_zero=False):
        for a0_abs in (0.0, 0.3, 0.7):
            sample = f"ext-{idx:04d}"
            idx += 1
            maps[sample] = f = _extremal_origin(rng, config.m, a0_abs, v)
            [rec] = _records(config, sample, f, [("3.2", {"v": v})])
            records.append(rec)
            records.append(certificate_record(
                "equality", sample, "3.2-equality",
                measured=abs(rec["slack"]), slack=EQUALITY_TOL - abs(rec["slack"]),
                k_or_v=rec["k_or_v"]))

    # linear-plus-square example: equality at v = (1,0) with an off-shape coefficient
    if config.n == 2:
        f = geometry.linear_plus_square_map()
        maps["remark-example"] = f
        [rec] = _records(config, "remark-example", f, [("3.2", {"v": (1, 0)})])
        records.append(rec)
        records.append(certificate_record(
            "equality", "remark-example", "3.2-equality",
            measured=abs(rec["slack"]), slack=1e-12 - abs(rec["slack"]), k_or_v="v=1,0"))
        off_form = float(np.linalg.norm(f.coefficient((0, 2))))
        records.append(certificate_record(
            "equality", "remark-example", "off-shape-coefficient",
            measured=off_form, slack=off_form - 1e-6, k_or_v="v=0,2"))

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
                "equality", sample, "off-lattice-vanishing",
                measured=worst, slack=1e-9 - worst, k_or_v="v=" + ",".join(map(str, v))))

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
        recs = _records(config, sample, f, requests, xi, cauchy.partial_bundle(f, xi, 1))
        worst = max(abs(r["slack"]) for r in recs)
        records.append(recs[-1])
        records.append(certificate_record(
            "equality", sample, "first-order-equality",
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
    if list(radii) != sorted(set(radii)) or not all(0.0 < r < 1.0 for r in radii):
        raise ConfigError("sweep radii must be strictly increasing inside (0, 1)")
    rng = _rng(config.seed, 200 if family == "remark2" else 201)
    xi_phase = np.exp(2j * np.pi * rng.uniform())
    w_dir = random_unit_vector(rng, config.m) if family == "remark2" else np.exp(2j * np.pi * rng.uniform())
    order = min(config.k_max, 4)
    # one partial bundle per (xi, |w|) serves every k
    bundles = {}
    for xi_abs in (0.25, 0.5, 0.75):
        z = np.zeros(1 if family == "remark2" else config.n, dtype=complex)
        z[0] = xi_abs * xi_phase
        for w_abs in radii:
            if family == "remark2":
                f = geometry.Remark2Map(z[0], w_abs * w_dir)
            else:
                f = geometry.Remark4Map(z[0], w_abs * w_dir, n=config.n)
            bundles[xi_abs, w_abs] = f, z, cauchy.partial_bundle(f, z, order)
    records = []
    vectors: dict[bytes, list] = {}  # three points serve every record
    for k in range(1, order + 1):
        for xi_abs in (0.25, 0.5, 0.75):
            series = []
            sample = f"{family}-k{k}-x{xi_abs:.2f}"
            for w_abs in radii:
                f, z, bundle = bundles[xi_abs, w_abs]
                # the bound takes the pinned |f(xi)| = w_abs, not check_inequality's norm(f(xi)):
                # they differ in the last bit at a quarter of the points, which (1-|w|^2)^2 scales
                # to 2e-11 relative in `ratio` at |w| = 0.99999, flipping `tight` flags
                t, q = abs(complex(z[0])), 1.0 - w_abs ** 2
                if family == "remark2":
                    lhs = bounds.lhs_quadratic(bundle[(k,)], w_abs * w_dir)
                    rhs = bounds.rhs_disk(k, t, q)
                    rep = bounds.BoundReport.build("4.1", lhs, rhs, {"z": z, "k": k})
                else:
                    v = (k,) + (0,) * (config.n - 1)
                    lhs = bounds.lhs_quadratic(bundle[v], np.array([w_abs * w_dir]))
                    rhs = bounds.rhs_radial(v, t, q)
                    rep = bounds.BoundReport.build("5.3", lhs, rhs, {"z": z, "v": v})
                predicted = sweep_prediction(k, xi_abs, w_abs)
                series.append((w_abs, rep.ratio, predicted))
                records.append(record_from_report(
                    "sharpness", sample, rep, vectors,
                    family=family, w_abs=w_abs, xi_abs=xi_abs,
                    ratio_modulus=math.sqrt(rep.ratio), predicted=predicted,
                    predicted_modulus=math.sqrt(predicted)))
            ratios = [r for _, r, _ in series]
            mono_gap = min(b - a for a, b in zip(ratios, ratios[1:])) if len(ratios) > 1 else 0.0
            # nondecreasing up to quadrature noise (k = 1 series are constant)
            records.append(certificate_record(
                "sharpness", sample, "sweep-monotone", measured=mono_gap, slack=mono_gap + 1e-9,
                family=family, xi_abs=xi_abs))
            maps[sample] = f  # the map at the final |w|, the one sweep-final-ratio certifies
            final_gap = ratios[-1] - (series[-1][2] - 1e-6)
            records.append(certificate_record(
                "sharpness", sample, "sweep-final-ratio", measured=ratios[-1], slack=final_gap,
                family=family, xi_abs=xi_abs))
    return records


def sharpness_sweep(config: SuiteConfig, family: str, radii=DEFAULT_SWEEP_RADII) -> Report:
    """Sweep |w| toward the boundary for one sharpness family and record the
    attained ratios against their closed-form predictions."""
    validate_config(config)
    maps: dict[str, object] = {}
    records = _sweep_records(config, family, radii, maps)
    cfg = SuiteConfig(**{**asdict(config), "suite": "sharpness"})
    return _finalize(cfg, records, maps, expected=("4.1",) if family == "remark2" else ("5.3",))


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
    if cfg.suite not in _SAMPLE_RECORDS:
        raise ConfigError(f"suite {cfg.suite!r} does not sample polynomial maps; nothing to replay")
    match = re.search(r"-failure-poly-(\d+)$", path.stem)
    rng = _rng(cfg.seed, SUITE_IDS.index(cfg.suite), int(match.group(1)) if match else 0)
    random_polymap(cfg.n, cfg.m, cfg.degree, rng)  # the sample's own map, drawn as run_suite draws it
    sample = f"replay-{path.stem}"
    return _finalize(cfg, _SAMPLE_RECORDS[cfg.suite](cfg, rng, sample, f), {sample: f})
