"""Test-only helpers shared by the test modules, and the closed-form oracles
the tests compare the package against; no oracle goes through `cauchy`."""
import cmath
import json
import math
from typing import NamedTuple

import numpy as np

from schwarzpick import bounds, cauchy, harness
from schwarzpick import multiindex as mi
from schwarzpick.holomap import HoloMap, PolyMap, sq_norm


class OpaqueMap(HoloMap):
    """Wraps a map and hides its type, so the derivative layer takes the
    slice route even for a `PolyMap`; values are the wrapped map's, bitwise."""

    def __init__(self, inner):
        self.inner, self.n, self.m = inner, inner.n, inner.m

    def _eval(self, z):
        return self.inner._eval(z)


class Composition(HoloMap):
    """outer after inner: a map of no closed-form class that the derivative
    layer takes through the slices; values are outer's of inner's, bitwise."""

    kind = "composed"

    def __init__(self, outer, inner):
        self.outer, self.inner, self.n, self.m = outer, inner, inner.n, outer.m

    def _eval(self, z):
        return self.outer._eval(self.inner._eval(z))


def frechet_sum(bundle: dict, beta, k: int, n: int) -> np.ndarray:
    """The first route to D_k(f, z, beta) = sum over |alpha| = k of
    (k!/alpha!) d^alpha f(z) beta^alpha: `cauchy.degree_sum`, weighted, over
    the order-k partials of a bundle."""
    return cauchy.degree_sum(np.array([bundle[alpha] for alpha in mi.enumerate_indices(n, k)]), beta, k, n,
                             weighted=True)


def slice_points(z, order: int) -> np.ndarray:
    """The points of the slice table of order `order` about z, of shape
    (NODES,) + (order+1,)*(n-1) + (n,), built without a plan: the circle of
    `cauchy.slice_radius(z)` times each phase-grid direction, about z."""
    n = len(z)
    grid = order + 1
    phases = np.exp(2j * np.pi * np.arange(grid) / grid)
    beta = np.stack([np.ones((grid,) * (n - 1))]
                    + list(np.meshgrid(*[phases] * (n - 1), indexing="ij")), axis=-1)
    circle = cauchy.slice_radius(z) * np.exp(2j * np.pi * np.arange(cauchy.NODES) / cauchy.NODES)
    return z + circle.reshape((cauchy.NODES,) + (1,) * n) * beta


def unplanned_slices(f, z, order: int) -> np.ndarray:
    """The slice table of `cauchy._slices` computed without a plan: the
    points and both DFT matrices are built in the call.  The planned table
    must equal it bitwise."""
    r, grid = cauchy.slice_radius(z), order + 1
    values = f.eval(slice_points(z, order))
    ks = np.arange(grid)
    center = values.mean(axis=0)
    table = np.tensordot(np.exp(-2j * np.pi * np.outer(ks, np.arange(cauchy.NODES)) / cauchy.NODES) / cauchy.NODES,
                         values - center, axes=(1, 0))
    table[0] += center
    phase_dft = np.exp(-2j * np.pi * np.outer(ks, ks) / grid) / grid
    for axis in range(1, f.n):
        table = np.tensordot(phase_dft, table, axes=(1, axis))
    table = np.transpose(table, tuple(range(f.n))[::-1] + (f.n,))
    return table * (r ** -ks.astype(float)).reshape((grid,) + (1,) * f.n)


def summarize(records: list[dict], tol: float) -> dict:
    """A report summary computed record by record: the record count, the
    failing records (those whose slack is not finite, the certificates whose
    slack lies below 0, and the bound records whose ratio is not at most
    1 + tol or, when they carry a `predicted` ratio, not within tol * predicted
    of it), the least slack over all records and the ratio range over the bound
    records, each NaN when a NaN enters it and 0.0 when nothing does."""

    def reduce(fn, values):
        return 0.0 if not values else math.nan if any(map(math.isnan, values)) else fn(values)

    def passes(r):
        if r["kind"] == "certificate":
            return r["slack"] >= 0.0
        on_prediction = "predicted" not in r or abs(r["ratio"] - r["predicted"]) <= tol * r["predicted"]
        return r["ratio"] <= 1.0 + tol and on_prediction

    failures = sum(not (math.isfinite(r["slack"]) and passes(r)) for r in records)
    slacks = [r["slack"] for r in records]
    ratios = [r["ratio"] for r in records if r["kind"] == "bound"]
    return {"record_count": len(records), "failure_count": failures, "min_slack": reduce(min, slacks),
            "min_ratio": reduce(min, ratios), "max_ratio": reduce(max, ratios)}


def report_from_json(text: str) -> harness.Report:
    """The `Report` whose JSON `text` is."""
    body = json.loads(text)
    return harness.Report(schema=body["schema"], config=body["config"], records=body["records"],
                          failures=body["failures"], summary=body["summary"])


def report_json(report: harness.Report) -> str:
    """The schema-2 JSON bytes of a report, built line by line: the lines of
    `json.dumps(indent=2, sort_keys=True)` of the report with its records
    emptied, where a non-empty `"records": []` member opens instead on its
    own line, then holds one four-space-indented `json.dumps(record,
    sort_keys=True)` line per record, each but the last ending in a comma,
    and closes on `  ],`."""
    header = json.dumps({**vars(report), "records": []}, indent=2, sort_keys=True).split("\n")
    if report.records:
        lines = ["    " + json.dumps(rec, sort_keys=True) + "," for rec in report.records]
        lines[-1] = lines[-1][:-1]
        at = header.index('  "records": [],')
        header[at:at + 1] = ['  "records": ['] + lines + ["  ],"]
    return "\n".join(header) + "\n"


def record_lines(text: str) -> list[str]:
    """The lines between `"records": [` and its `]` in a schema-2 report."""
    lines = text.split("\n")
    if '  "records": [],' in lines:
        return []
    start = lines.index('  "records": [') + 1
    return lines[start:lines.index("  ],", start)]


def jacobian(f, z) -> np.ndarray:
    """Holomorphic Jacobian of f at z (m x n), column j = df/dz_j, stacked
    from the order-1 partial bundle."""
    bundle = cauchy.partial_bundle(f, z, 1)
    return np.stack([bundle[e] for e in mi.enumerate_indices(f.n, 1)[::-1]], axis=1)


def quadratic_form(d, fz) -> float:
    """|<D, f(z)>|^2 + (1-|f(z)|^2)|D|^2 for D = d, the form every quadratic
    bound (3.1, 3.2, 4.1, 5.1, 5.3) controls, from scalars.  It equals
    (1-|f(z)|^2)^2 H_f(z)(D, D)."""
    d = np.asarray(d, dtype=complex).reshape(-1)
    fz = np.asarray(fz, dtype=complex).reshape(-1)
    ip = abs(complex(np.add.reduce(d * np.conj(fz))))
    return ip * ip + (1.0 - float(sq_norm(fz))) * float(sq_norm(d))


def random_polymap_tables(n: int, m: int, degree: int, seed, margin: float = 0.05):
    """`E`, `A` and `coeffs` of `random_polymap(n, m, degree, seed, margin)`
    built coefficient by coefficient: m real and then m imaginary parts
    drawn per alpha in `enumerate_up_to` order, one norm per coefficient in
    the certificate sum, zero coefficients dropped and the keys sorted."""
    rng = np.random.default_rng(seed)
    drawn = {alpha: rng.standard_normal(m) + 1j * rng.standard_normal(m) for alpha in mi.enumerate_up_to(n, degree)}
    scale = (1.0 - margin) / sum(np.linalg.norm(c) for c in drawn.values())
    table = {alpha: c * scale for alpha, c in sorted(drawn.items()) if np.any(c * scale != 0)}
    E = np.array(list(table), dtype=np.int64).reshape(-1, n)
    A = np.array(list(table.values()), dtype=complex).reshape(-1, m)
    return E, A, table


def identity_polymap(n: int) -> PolyMap:
    coeffs = {}
    for j in range(n):
        alpha = tuple(1 if i == j else 0 for i in range(n))
        coeffs[alpha] = np.eye(n)[j]
    return PolyMap(n, n, coeffs)


class AjCoefficients(NamedTuple):
    """Magnitudes |A_j| of the Moebius-power derivative coefficients, their
    term sum, and the closed form the sum must reproduce."""

    orders: tuple[int, ...]
    magnitudes: tuple[float, ...]
    term_sum: float
    closed_form: float


def aj_coefficients(k: int, xi_abs: float, variant: str = "disk", v=None) -> AjCoefficients:
    """Coefficient magnitudes in the expansion of d^k f through a Moebius change
    of variable.

    disk variant (j = 1..k):
      |A_j| = |xi|^(k-j) k!(k-1)! / [(k-j)!(j-1)!] / (1-|xi|^2)^k,
      sum = k! (1+|xi|)^(k-1) / (1-|xi|^2)^k.

    radial variant for a multi-index v (j = 0..v_1, starting at 1 when
    v = (v_1, 0, ..)):
      |A_j| = |xi|^(v1-j) v!(k-1)! / [(v1-j)!(j-1+|v'|)!] / (1-|xi|^2)^((v1+|v|)/2),
      sum = v! mu(|xi|) / (1-|xi|^2)^((v1+|v|)/2).
    """
    if k < 1:
        raise ValueError("order must be at least 1")
    if not 0.0 <= xi_abs < 1.0:
        raise ValueError("|xi| must lie in [0, 1)")
    if variant == "disk":
        orders = tuple(range(1, k + 1))
        mags = tuple(
            xi_abs ** (k - j) * math.factorial(k) * math.factorial(k - 1)
            / (math.factorial(k - j) * math.factorial(j - 1))
            / (1.0 - xi_abs ** 2) ** k
            for j in orders
        )
        closed = math.factorial(k) * (1.0 + xi_abs) ** (k - 1) / (1.0 - xi_abs ** 2) ** k
    elif variant == "radial":
        if v is None:
            raise ValueError("the radial variant requires the multi-index v")
        v = mi.as_multiindex(v)
        if sum(v) != k:
            raise ValueError(f"degree of v must equal k={k}")
        v1 = v[0]
        rest = k - v1
        start = 0 if rest > 0 else 1
        orders = tuple(range(start, v1 + 1))
        vfact = mi.multiindex_factorial(v)
        mags = tuple(
            xi_abs ** (v1 - j) * vfact * math.factorial(k - 1)
            / (math.factorial(v1 - j) * math.factorial(j - 1 + rest))
            / (1.0 - xi_abs ** 2) ** ((v1 + k) / 2.0)
            for j in orders
        )
        closed = vfact * bounds.mu_factor(v, xi_abs) / (1.0 - xi_abs ** 2) ** ((v1 + k) / 2.0)
    else:
        raise ValueError("variant must be 'disk' or 'radial'")
    return AjCoefficients(orders=orders, magnitudes=mags,
                          term_sum=float(sum(mags)), closed_form=closed)


def remark2_derivative(xi, w, k: int) -> np.ndarray:
    """Closed form of the k-th derivative of the remark2 family at its pinned point:

    f_w^(k)(xi) = -e^{-ik arg xi} k! (1-|w|^2) (|w|+|xi|)^(k-1) / (1-|xi|^2)^k * w/|w|.
    """
    xi = complex(xi)
    w = np.asarray(w, dtype=complex).reshape(-1)
    wn = float(np.linalg.norm(w))
    phase = cmath.exp(-1j * k * cmath.phase(xi))
    mag = math.factorial(k) * (1.0 - wn * wn) * (wn + abs(xi)) ** (k - 1) / (1.0 - abs(xi) ** 2) ** k
    return -phase * mag * w / wn


def remark3_derivative(xi1, w, v) -> complex:
    """Closed form of the order-v partial of the remark3 family at its pinned point:

    (-1)^(|v|+1) sqrt(|v|^|v|/v^v) v! (1-|w|^2) / (1-|xi|^2)^((v1+|v|)/2).
    """
    v = mi.as_multiindex(v)
    k = sum(v)
    s = math.sqrt(mi.sharpness_factor(v))
    mag = s * mi.multiindex_factorial(v) * (1.0 - abs(complex(w)) ** 2)
    mag /= (1.0 - abs(complex(xi1)) ** 2) ** ((v[0] + k) / 2.0)
    return (-1.0) ** (k + 1) * mag


def remark4_derivative(xi1, w, k: int) -> complex:
    """Closed form of the k-th z1-derivative of the remark4 family at its pinned point:

    -k! (1-|w|^2) (|w|+|xi|)^(k-1) / (1-|xi|^2)^k * (w/|w|) e^{-ik arg xi}.
    """
    xi1 = complex(xi1)
    w = complex(w)
    mag = math.factorial(k) * (1.0 - abs(w) ** 2) * (abs(w) + abs(xi1)) ** (k - 1) / (1.0 - abs(xi1) ** 2) ** k
    return -mag * (w / abs(w)) * cmath.exp(-1j * k * cmath.phase(xi1))
