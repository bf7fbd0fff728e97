import json
import math
import re
from dataclasses import replace
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schwarzpick import bounds, cli, geometry, harness
from schwarzpick.harness import (
    ConfigError,
    Report,
    SuiteConfig,
    emit,
    equality_suite,
    expected_ids,
    replay_sample,
    run_suite,
    sharpness_sweep,
)
from schwarzpick.holomap import ComposedMap, PolyMap

from support import record_lines, report_from_json, summarize
from support import report_json as dumps  # the reference bytes of a JSON report


SMALL = dict(samples=2, degree=3, k_max=2)


def same(a, b) -> bool:
    """a == b, with NaN equal to NaN at any depth."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[key], b[key]) for key in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def reports(config: SuiteConfig) -> list[Report]:
    """The reports of the config's suite from its driver, one per family for
    the sharpness sweeps."""
    if config.suite == "sharpness":
        return [sharpness_sweep(config, family) for family in ("remark2", "remark4")]
    return [equality_suite(config) if config.suite == "equality" else run_suite(config)]


def test_non_finite_slack_counts_as_failure():
    records = [{"kind": "bound", "slack": s, "ratio": 0.5} for s in (1.0, np.nan, -np.inf, np.inf)]
    records.append({"kind": "certificate", "slack": np.nan, "ratio": 1.0})
    assert summarize(records, 1e-8)["failure_count"] == 4


@pytest.mark.parametrize("values", [[1.0, math.nan], [math.nan, 1.0]], ids=["nan-last", "nan-first"])
def test_nan_makes_the_summary_nan_in_any_order(values):
    records = [{"kind": "bound", "slack": v, "ratio": v} for v in values]
    summary = summarize(records, 1e-8)
    assert summary["failure_count"] == 1
    assert all(math.isnan(summary[key]) for key in ("min_slack", "min_ratio", "max_ratio"))


@pytest.mark.parametrize("suite, n, m", [("main", 2, 2), ("disk", 1, 1), ("partials", 2, 1), ("radial", 2, 1),
                                         ("origin", 2, 2), ("equality", 2, 2), ("equality", 3, 3),
                                         ("sharpness", 2, 2)])
def test_reports_do_not_depend_on_how_requests_are_batched(monkeypatch, suite, n, m):
    # the sharpness sweeps batch every map of a family, each point pinned
    cfg = SuiteConfig(suite=suite, n=n, m=m, seed=7, **SMALL)
    batched = [report.to_json() for report in reports(cfg)]
    check = bounds.check_columns

    def one_request_per_batch(points):
        return [row for point in points for request in point.requests
                for row in check([point._replace(requests=[request])])]

    monkeypatch.setattr(harness.bounds, "check_columns", one_request_per_batch)
    assert [report.to_json() for report in reports(cfg)] == batched


@pytest.mark.parametrize("suite, n, m", [("main", 2, 2), ("main", 3, 2), ("disk", 1, 2), ("partials", 2, 1),
                                         ("radial", 2, 2), ("origin", 2, 2)])
def test_one_bound_batch_per_sampling_suite(monkeypatch, tmp_path, suite, n, m):
    batches = []
    check = bounds.check_columns

    def counted(points):
        batches.append(len(points))
        return check(points)

    monkeypatch.setattr(harness.bounds, "check_columns", counted)
    cfg = SuiteConfig(suite=suite, n=n, m=m, seed=7, samples=3, degree=3, k_max=2)
    report = run_suite(cfg)
    assert len(batches) == 1 and report.summary["record_count"] == len(report.records) > 0
    path = tmp_path / "map.json"
    path.write_text(json.dumps(harness.random_polymap(n, m, 3, seed=1).to_json_dict()))
    replay_sample(path, cfg)
    assert len(batches) == 2


@pytest.mark.parametrize("suite", harness.SUITE_IDS)
def test_drivers_run_their_own_suite_whatever_the_config_names(suite):
    cfg = SuiteConfig(suite=suite, n=2, m=2, seed=8, **SMALL)
    assert equality_suite(cfg).to_json() == equality_suite(replace(cfg, suite="equality")).to_json()
    for family in ("remark2", "remark4"):
        own = sharpness_sweep(replace(cfg, suite="sharpness"), family, radii=(0.9, 0.99))
        assert sharpness_sweep(cfg, family, radii=(0.9, 0.99)).to_json() == own.to_json()


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        dict(suite="bogus"),
        dict(samples=0),
        dict(k_max=9),
        dict(n=5),
        dict(m=0),
        dict(degree=0),
        dict(tol=-1.0),
        dict(fmt="xml"),
        dict(suite="disk", n=2),
        dict(suite="equality", n=3, m=2),
        dict(tol=float("nan")),
        dict(seed=-1),
        dict(samples=2.5),
        dict(n=2.0),
        dict(k_max=2.5),
        dict(seed=1.5),
        dict(samples=True),
        dict(m=np.int64(2)),
        dict(degree="3"),
        dict(tol=True),
        dict(tol="1e-8"),
        dict(tol=None),
    ])
    def test_rejected(self, kw):
        with pytest.raises(ConfigError):
            harness.validate_config(SuiteConfig(**kw))

    def test_manifest_nonempty_for_every_suite(self):
        for suite in harness.SUITE_IDS:
            for m in (1, 2):
                assert len(expected_ids(suite, m)) >= 1


class TestDeterminism:
    @pytest.mark.parametrize("suite", harness.SUITE_IDS)
    def test_byte_identical_reports(self, suite):
        cfg = SuiteConfig(suite=suite, n=1 if suite == "disk" else 2, m=2, seed=42, **SMALL)
        for report, again in zip(reports(cfg), reports(cfg), strict=True):
            assert report.to_json() == again.to_json() == dumps(report)
            assert len(record_lines(report.to_json())) == report.summary["record_count"]

    def test_seed_changes_report(self):
        a = run_suite(SuiteConfig(suite="main", n=2, m=2, seed=1, **SMALL))
        b = run_suite(SuiteConfig(suite="main", n=2, m=2, seed=2, **SMALL))
        assert a.to_json() != b.to_json()


class TestSuites:
    @pytest.mark.parametrize("suite,n,m", [
        ("main", 2, 2),
        ("main", 2, 1),
        ("disk", 1, 1),
        ("disk", 1, 2),
        ("partials", 2, 1),
        ("partials", 3, 2),
        ("radial", 2, 1),
        ("origin", 2, 2),
    ])
    def test_suite_covers_manifest_and_passes(self, suite, n, m):
        cfg = SuiteConfig(suite=suite, n=n, m=m, **SMALL)
        report = run_suite(cfg)
        seen = {r["inequality"] for r in report.records}
        assert set(expected_ids(suite, m)) <= seen
        assert report.summary["failure_count"] == 0
        assert report.summary["record_count"] == len(report.records)

    def test_summary_recomputable(self):
        cfg = SuiteConfig(suite="main", n=2, m=2, **SMALL)
        report = run_suite(cfg)
        assert summarize(report.records, cfg.tol) == report.summary

    def test_origin_extremal_instances_attain_equality(self):
        cfg = SuiteConfig(suite="origin", n=2, m=2, samples=4, degree=3, k_max=3, seed=6)
        report = run_suite(cfg)
        ext = [r for r in report.records if r["sample"].startswith("ext-")]
        assert ext
        assert min(abs(r["slack"]) for r in ext) <= 1e-10
        assert report.summary["failure_count"] == 0

    def test_noise_level_negative_slack_flagged_tight(self):
        cfg = SuiteConfig(suite="main", n=2, m=2, samples=4, degree=3, k_max=2, seed=5)
        report = run_suite(cfg)
        for rec in report.records:
            if rec["kind"] == "bound":
                assert rec["tight"] == (-cfg.tol <= rec["slack"] < 0.0)

    @pytest.mark.parametrize("suite, driver", [("equality", "equality_suite"), ("sharpness", "sharpness_sweep")])
    def test_run_suite_names_the_driver_of_a_non_sampling_suite(self, monkeypatch, suite, driver):
        monkeypatch.setattr(harness, driver, None)  # run_suite must not delegate
        with pytest.raises(ConfigError, match=f"call {driver}"):
            run_suite(SuiteConfig(suite=suite, n=2, m=2))

    def test_automorphism_contexts_have_unit_ratio_at_first_order(self):
        cfg = SuiteConfig(suite="main", n=2, m=2, samples=4, degree=3, k_max=2, seed=5)
        report = run_suite(cfg)
        aut = [r for r in report.records
               if r["sample"].startswith("aut-") and r["inequality"] == "1.3"]
        assert aut
        assert all(abs(r["ratio"] - 1.0) <= 1e-9 for r in aut)


class TestEqualitySuite:
    def test_certificates_pass(self):
        report = equality_suite(SuiteConfig(suite="equality", n=2, m=2, samples=2, seed=11))
        assert report.summary["failure_count"] == 0
        names = {r["inequality"] for r in report.records}
        assert {"3.2", "1.3", "3.2-equality", "off-shape-coefficient",
                "off-lattice-vanishing", "first-order-equality"} <= names

    def test_linear_plus_square_flags(self):
        report = equality_suite(SuiteConfig(suite="equality", n=2, m=2, samples=1, seed=3))
        recs = [r for r in report.records if r["sample"] == "remark-example"]
        equality = [r for r in recs if r["inequality"] == "3.2-equality"]
        off_shape = [r for r in recs if r["inequality"] == "off-shape-coefficient"]
        assert equality and equality[0]["slack"] >= 0.0
        assert off_shape and off_shape[0]["slack"] >= 0.0
        assert off_shape[0]["lhs"] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_failing_samples_list_their_maps(self, monkeypatch):
        # a negative tolerance fails every ext-* and k1-* equality certificate
        monkeypatch.setattr(harness, "EQUALITY_TOL", -1.0)
        report = equality_suite(SuiteConfig(suite="equality", n=2, m=2, seed=7))
        assert len(report.failures) == 45
        kinds = {f["map"].split("(")[0] for f in report.failures}
        assert kinds == {"extremal-origin", "extremal-k1"}
        assert report.to_json() == dumps(report)

    def test_off_lattice_certificates(self):
        report = equality_suite(SuiteConfig(suite="equality", n=2, m=2, samples=1, seed=4))
        vanish = [r for r in report.records if r["inequality"] == "off-lattice-vanishing"]
        assert len(vanish) == 6
        assert all(r["lhs"] <= 1e-9 for r in vanish)


class TestSharpnessSweep:
    @staticmethod
    def series(report, sample):
        return [r for r in report.records if r["kind"] == "bound" and r["sample"] == sample]

    def test_known_ratio_point(self):
        cfg = SuiteConfig(suite="sharpness", n=1, m=1, k_max=3, seed=21)
        report = sharpness_sweep(cfg, "remark2", radii=(0.5, 0.9))
        recs = [r for r in self.series(report, "remark2-k3-x0.50") if r["w_abs"] == 0.9]
        assert len(recs) == 1
        assert recs[0]["ratio_modulus"] == pytest.approx((1.4 / 1.5) ** 2, abs=1e-8)

    def test_first_order_ratio_is_constant_one(self):
        cfg = SuiteConfig(suite="sharpness", n=1, m=2, seed=22)
        report = sharpness_sweep(cfg, "remark2", radii=(0.5, 0.9, 0.99))
        ratios = [r["ratio"] for r in self.series(report, "remark2-k1-x0.50")]
        assert len(ratios) == 3
        assert all(abs(r - 1.0) <= 1e-9 for r in ratios)

    def test_ratios_increase_toward_boundary(self):
        cfg = SuiteConfig(suite="sharpness", n=2, m=1, seed=23)
        report = sharpness_sweep(cfg, "remark4", radii=(0.9, 0.99, 0.999))
        ratios = [r["ratio"] for r in self.series(report, "remark4-k3-x0.50")]
        assert len(ratios) == 3
        assert ratios == sorted(ratios)
        assert report.summary["failure_count"] == 0

    @pytest.mark.parametrize("family, checked", [("remark2", (1, 2)), ("remark4", (3, 1))])
    def test_config_echoes_the_dimensions_checked(self, family, checked):
        # remark2 maps are disk maps and remark4 maps scalar, whatever n and m are configured
        report = sharpness_sweep(SuiteConfig(suite="sharpness", n=3, m=2, k_max=2, seed=24), family, radii=(0.9,))
        assert (report.config["n"], report.config["m"]) == checked
        z_lengths = {len(r["z"]) for r in report.records if r["kind"] == "bound"}
        assert z_lengths == {checked[0]}

    def test_bad_radii_rejected(self):
        cfg = SuiteConfig(suite="sharpness")
        with pytest.raises(ConfigError):
            sharpness_sweep(cfg, "remark2", radii=(0.9, 0.5))
        with pytest.raises(ConfigError):
            sharpness_sweep(cfg, "remark2", radii=(0.9, 1.1))
        with pytest.raises(ConfigError, match="non-empty"):
            sharpness_sweep(cfg, "remark2", radii=())

    def test_unknown_family_rejected_before_any_bundle(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the family is checked before any derivative work")

        monkeypatch.setattr(harness.cauchy, "partial_bundle", refuse)
        with pytest.raises(ConfigError, match="bogus"):
            sharpness_sweep(SuiteConfig(suite="sharpness"), "bogus")


#: Floats whose JSON text is easy to get wrong: the non-finite ones, a signed
#: zero, the least subnormal, a float that prints in exponent form, a numpy scalar.
_FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16]),
                    st.floats().map(np.float64))
_TEXT = st.one_of(st.text(max_size=6), st.sampled_from(['"', "\\", "a\nb", "é", "%s", "100%"]))
_VALUES = st.one_of(_FLOATS, _TEXT, st.booleans(), st.none(), st.integers(), st.just([]),
                    st.lists(st.tuples(_FLOATS, _FLOATS).map(list), min_size=1, max_size=4),
                    st.dictionaries(_TEXT, st.integers(), max_size=2))
_KEYS = st.one_of(st.sampled_from(["suite", "sample", "kind", "z", "beta", "lhs", "slack", "tight", "w_abs"]), _TEXT)


class TestEmit:
    @given(st.lists(st.dictionaries(_KEYS, _VALUES, max_size=8), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_json_bytes_are_json_dumps(self, records):
        # records that share one list, as the records of one point do
        vectors = [v for rec in records for v in rec.values() if type(v) is list]
        if vectors:
            records += [{"z": vectors[0], "beta": vectors[-1]}, {"beta": vectors[-1], "z": vectors[0]}]
        report = Report(schema=harness.SCHEMA, config={"tol": math.nan}, records=records,
                        failures=[{"map": "a\nb"}], summary=summarize([], 1e-8))
        text = report.to_json()
        assert text == dumps(report)
        assert same(json.loads(text), vars(report))

    @pytest.mark.parametrize("records", [[], [{}], [{1: 0.5, 10: 0.25}], [[1.0, 2.0], 3, None],
                                         [{"z": [[1.0, 2.0, 3.0]]}, {"z": [(1.0, 2.0)]}, {"z": [[1, 2.0]]}]],
                             ids=["empty", "empty-record", "int-keys", "not-records", "not-pairs"])
    def test_json_bytes_of_odd_records(self, records):
        report = Report(schema=harness.SCHEMA, config={}, records=records, failures=[], summary={})
        assert report.to_json() == dumps(report)

    def test_emit_writes_to_json_and_to_csv(self, tmp_path):
        report = run_suite(SuiteConfig(suite="main", n=2, m=2, **SMALL))
        emit(report, "json", tmp_path / "report.json")
        emit(report, "csv", tmp_path / "report.csv")
        assert (tmp_path / "report.json").read_text() == report.to_json() == dumps(report)
        assert (tmp_path / "report.csv").read_text() == report.to_csv()

    def test_schema_2_writes_each_record_on_its_own_line(self):
        report = run_suite(SuiteConfig(suite="main", n=2, m=2, **SMALL))
        text = report.to_json()
        assert harness.SCHEMA == json.loads(text)["schema"] == "spv-report/2"
        lines = record_lines(text)
        assert len(lines) == report.summary["record_count"] == len(report.records)
        assert all(same(json.loads(line.removesuffix(",")), rec) for line, rec in zip(lines, report.records))

    def test_json_round_trip(self, tmp_path):
        report = run_suite(SuiteConfig(suite="main", n=2, m=2, **SMALL))
        path = tmp_path / "report.json"
        emit(report, "json", path)
        back = report_from_json(path.read_text())
        assert back.to_json() == report.to_json()
        assert back.to_csv() == report.to_csv()

    def test_csv_row_count(self, tmp_path):
        report = run_suite(SuiteConfig(suite="main", n=2, m=2, **SMALL))
        path = tmp_path / "report.csv"
        emit(report, "csv", path)
        rows = path.read_text().splitlines()
        assert len(rows) == report.summary["record_count"] + 1
        assert rows[0] == "suite,sample,inequality,k_or_v,z,beta,lhs,rhs,slack,ratio"

    def test_empty_records_still_valid(self, tmp_path):
        report = Report(schema=harness.SCHEMA, config={}, records=[], failures=[],
                        summary=summarize([], 1e-8))
        emit(report, "json", tmp_path / "empty.json")
        emit(report, "csv", tmp_path / "empty.csv")
        assert json.loads((tmp_path / "empty.json").read_text())["records"] == []
        assert (tmp_path / "empty.csv").read_text().splitlines()[0].startswith("suite,")

    def test_io_error_carries_path(self, tmp_path):
        report = Report(schema=harness.SCHEMA, config={}, records=[], failures=[],
                        summary=summarize([], 1e-8))
        with pytest.raises(OSError, match="no/such/dir"):
            emit(report, "json", tmp_path / "no" / "such" / "dir" / "x.json")

    def test_unknown_format_rejected_before_writing(self, tmp_path):
        report = Report(schema=harness.SCHEMA, config={}, records=[], failures=[],
                        summary=summarize([], 1e-8))
        with pytest.raises(ConfigError, match="^unknown output format 'xml'$"):
            emit(report, "xml", tmp_path / "report.xml")
        assert not (tmp_path / "report.xml").exists()


class TestFailureIsolation:
    def bad_map(self):
        # inside the ball on every sampled point, yet expands the metric
        return PolyMap(2, 2, {(1, 0): [1.005, 0.0], (0, 1): [0.0, 1.005]})

    def campaign(self, cfg, monkeypatch, bad_index):
        """run_suite(cfg) with the bad map in place of sample `bad_index`'s map."""
        real = harness.random_polymap
        drawn = []

        def one_map_bad(*args, **kwargs):
            # the real generator still runs, so every later draw is unchanged
            drawn.append(real(*args, **kwargs))
            return self.bad_map() if len(drawn) == bad_index + 1 else drawn[-1]

        monkeypatch.setattr(harness, "random_polymap", one_map_bad)
        report = run_suite(cfg)
        monkeypatch.undo()
        return report

    @staticmethod
    def unnamed(records):
        return [{k: v for k, v in r.items() if k != "sample"} for r in records]

    def test_violations_recorded_and_persisted(self, tmp_path, monkeypatch):
        cfg = SuiteConfig(suite="main", n=2, m=2, **SMALL)
        report = self.campaign(cfg, monkeypatch, 0)
        assert {r["sample"] for r in report.records} == {"poly-0000", "poly-0001", "aut-0000", "aut-0001"}
        assert report.summary["failure_count"] > 0
        assert len(report.failures) == 1
        assert report.failures[0]["sample"] == "poly-0000"
        failing = [r["slack"] for r in report.records
                   if r["sample"] == "poly-0000" and harness._is_failure(r, cfg.tol)]
        assert report.failures[0]["worst_slack"] == min(failing)
        path = tmp_path / "report.json"
        emit(report, "json", path)
        side = sorted(tmp_path.glob("report-failure-*.json"))
        assert len(side) == 1
        replayed = replay_sample(side[0], cfg)
        assert replayed.summary["failure_count"] > 0
        assert report.to_json() == dumps(report) and replayed.to_json() == dumps(replayed)
        campaign = [r for r in report.records if r["sample"] == "poly-0000"]
        assert self.unnamed(replayed.records) == self.unnamed(campaign)

    def test_failing_report_json_bytes(self):
        # one failure listed as PolyMap JSON, one by its description
        cfg = SuiteConfig(suite="main", n=2, m=2, **SMALL)
        bad = self.bad_map()
        maps = {"poly-0000": bad, "composed-0000": ComposedMap(np.zeros(2), bad)}
        records = [rec for sample, f in maps.items()
                   for rec in harness._records(cfg, repeat(sample),
                                               harness._main_points(cfg, harness._rng(cfg.seed, 0, 0), f))]
        report = harness._finalize(cfg, records, maps)
        assert sorted(type(f["map"]).__name__ for f in report.failures) == ["dict", "str"]
        assert report.to_json() == dumps(report)

    def test_replay_runs_at_the_failing_sample(self, tmp_path, monkeypatch):
        cfg = SuiteConfig(suite="main", n=2, m=2, samples=3, degree=3, k_max=2, seed=7)
        report = self.campaign(cfg, monkeypatch, 1)
        assert [f["sample"] for f in report.failures] == ["poly-0001"]
        emit(report, "json", tmp_path / "report.json")
        replayed = replay_sample(tmp_path / "report-failure-poly-0001.json", cfg)
        campaign = [r for r in report.records if r["sample"] == "poly-0001"]
        assert self.unnamed(replayed.records) == self.unnamed(campaign)


class TestReplay:
    def map_file(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps(PolyMap(2, 2, {(1, 0): [0.5, 0.0], (0, 1): [0.0, 0.5]}).to_json_dict()))
        return path

    @pytest.mark.parametrize("suite", ["equality", "sharpness"])
    def test_non_sampling_suite_rejected(self, tmp_path, suite):
        with pytest.raises(ConfigError):
            replay_sample(self.map_file(tmp_path), SuiteConfig(suite=suite, n=2, m=2))

    @pytest.mark.parametrize("text", [json.dumps("automorphism(|a|=0.500, n=2)"), json.dumps({"n": 2, "m": 2}),
                                      "poly(n=2, m=2)"], ids=["describe-string", "no-coeffs", "not-json"])
    def test_file_without_a_polymap_rejected(self, tmp_path, text):
        path = tmp_path / "report-failure-aut-0000.json"
        path.write_text(text + "\n")
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            replay_sample(path, SuiteConfig(suite="main", n=2, m=2))

    def test_origin_replay_holds_only_the_replayed_sample(self, tmp_path):
        report = replay_sample(self.map_file(tmp_path), SuiteConfig(suite="origin", **SMALL))
        assert {r["sample"] for r in report.records} == {"replay-map"}
        assert report.summary["failure_count"] == 0


class TestFinalize:
    def test_failing_certificate_listed(self):
        cfg = SuiteConfig(suite="sharpness")
        rec = harness.certificate_record("sharpness", "remark2-k2-x0.50", "sweep-final-ratio",
                                         measured=0.5, slack=-0.1)
        f = geometry.Remark2Map(0.5, np.array([0.99, 0.0]))
        report = harness._finalize(cfg, [rec], {"remark2-k2-x0.50": f},
                                   expected=("sweep-final-ratio",))
        assert report.summary["failure_count"] == 1
        assert [f["sample"] for f in report.failures] == ["remark2-k2-x0.50"]
        assert report.failures[0]["map"] == f.describe()

    @pytest.mark.parametrize("names", [("a", "b"), ("b", "a")], ids=["nan-last", "nan-first"])
    def test_nan_worst_slack_in_any_order(self, names):
        cfg = SuiteConfig(suite="sharpness")
        records = [harness.certificate_record("sharpness", "remark2-k2-x0.50", name, measured=0.5, slack=slack)
                   for name, slack in zip(names, (-1.0, math.nan))]
        f = geometry.Remark2Map(0.5, np.array([0.99, 0.0]))
        report = harness._finalize(cfg, records, {"remark2-k2-x0.50": f}, expected=("a",))
        assert math.isnan(report.failures[0]["worst_slack"])
        assert report.summary == summarize(report.records, cfg.tol)
        assert math.isnan(report.summary["min_slack"]) and report.summary["failure_count"] == 2

    def test_sweep_failures_list_their_maps(self, monkeypatch):
        # an unreachable prediction fails every sweep-final-ratio certificate
        monkeypatch.setattr(harness, "sweep_prediction", lambda *args: 2.0)
        cfg = SuiteConfig(suite="sharpness", n=2, m=2, k_max=2, seed=7)
        short = sharpness_sweep(cfg, "remark2", radii=(0.9, 0.99))
        remark4 = sharpness_sweep(cfg, "remark4")
        for report, family, final_w in ((short, "remark2", "|w|=0.990000"), (remark4, "remark4", "|w|=0.999900")):
            assert report.failures
            for failure in report.failures:
                assert failure["map"].startswith(family + "(")
                assert final_w in failure["map"]


class TestCli:
    def test_check_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = cli.main(["check", "--suite", "main", "--n", "2", "--m", "2",
                         "--samples", "2", "--degree", "3", "--kmax", "2",
                         "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "failures=0" in capsys.readouterr().out

    def test_disk_suite_defaults_n(self):
        assert cli.main(["check", "--suite", "disk", "--m", "1",
                         "--samples", "1", "--degree", "3", "--kmax", "2"]) == 0

    @pytest.mark.parametrize("option", [["--n", "7"], ["--seed", "-1"]], ids=["n7", "negative-seed"])
    def test_config_error_exit_two(self, capsys, option):
        assert cli.main(["check", "--suite", "main", *option]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unwritable_out_exit_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        assert cli.main(["check", "--suite", "disk", "--m", "1", "--samples", "1",
                         "--degree", "3", "--kmax", "2", "--out", str(out)]) == 2
        assert f"cannot write report to {out}" in capsys.readouterr().err

    def test_malformed_radii_exit_two(self, capsys):
        assert cli.main(["sharpness", "--radii", "0.9,abc"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_one_parser_gives_what_fresh_parsers_give(self, tmp_path, monkeypatch, capsys):
        # bad argv sits between good ones, so the shared parser is reused after an error
        argvs = [["check", "--suite", "radial", "--m", "1", "--samples", "1", "--degree", "3", "--kmax", "2"],
                 ["sharpness", "--family", "remark4", "--n", "2", "--m", "1", "--radii", "0.9,0.99", "--kmax", "2"],
                 ["check", "--suite", "main", "--n", "7"],
                 ["check", "--suite", "bogus"],
                 ["equality", "--n", "2", "--m", "2", "--tol", "1e-20"],
                 ["check", "--suite", "disk", "--m", "2", "--samples", "1", "--degree", "3", "--kmax", "2",
                  "--format", "csv"]]

        def run_all(tag):
            outcomes = []
            for i, argv in enumerate(argvs):
                out = tmp_path / f"{tag}-{i}.report"
                try:
                    code = cli.main(argv + ["--out", str(out)])
                except SystemExit as exc:
                    code = ("exit", exc.code)
                outcomes.append((code, capsys.readouterr(), out.read_text() if out.exists() else None))
            return outcomes

        shared = run_all("shared")
        assert cli.build_parser() is cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert [code for code, _, _ in shared] == [0, 0, 2, ("exit", 2), 1, 0]
        assert run_all("fresh") == shared

    def test_bad_argv_exits_two(self, capsys):
        for argv in (["check", "--suite", "bogus"], ["nonsense"], [], ["check", "--n", "two"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert "usage: spv" in capsys.readouterr().err

    def test_equality_and_sharpness_commands(self):
        assert cli.main(["equality", "--n", "2", "--m", "2", "--samples", "1"]) == 0
        assert cli.main(["sharpness", "--family", "remark4", "--n", "2", "--m", "1",
                         "--radii", "0.9,0.99", "--kmax", "2"]) == 0
