import importlib.util
import json
from pathlib import Path

from schwarzpick import harness

SPEC = importlib.util.spec_from_file_location(
    "compare_reports", Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py")
compare_reports = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(compare_reports)


def write_reports(root: Path, report: harness.Report) -> Path:
    root.mkdir()
    harness.emit(report, "json", root / "000-equality.json")
    harness.emit(report, "csv", root / "000-equality.csv")
    return root


def test_changed_records_are_grouped_and_counts_decide_the_exit(tmp_path, capsys):
    report = harness.run_suite(harness.SuiteConfig(suite="equality", n=1, m=1, seed=5))
    a = write_reports(tmp_path / "a", report)
    moved = json.loads((a / "000-equality.json").read_text())
    ext = [i for i, rec in enumerate(moved["records"])
           if rec["sample"].startswith("ext-") and rec["inequality"] == "3.2"]
    for i, delta in zip(ext[:2], (0.25, 0.5)):
        moved["records"][i]["ratio"] += delta
    moved["summary"]["failure_count"] += 1
    b = write_reports(tmp_path / "b", harness.Report(**moved))
    assert compare_reports.main([str(a), str(a)]) == 0
    assert compare_reports.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "000-equality.json: 2 of" in out and "failure_count 0 -> 1" in out
    assert "  ext 3.2: 2 records, max |dratio| 0.5" in out
    assert "differs: 000-equality.csv" in out

    (b / "extra.json").write_text("{}\n")
    assert compare_reports.main([str(a), str(b)]) == 1
    assert f"only in {b}: extra.json" in capsys.readouterr().out
    moved["records"].pop()
    (b / "extra.json").unlink()
    harness.emit(harness.Report(**moved), "json", b / "000-equality.json")
    assert compare_reports.main([str(a), str(b)]) == 1
    assert "record count" in capsys.readouterr().out


def test_moved_certificate_shows_in_its_lhs(tmp_path, capsys):
    # every certificate has ratio 0, so only |dlhs| shows how far its `measured` moved
    report = harness.run_suite(harness.SuiteConfig(suite="equality", n=1, m=1, seed=5))
    a = write_reports(tmp_path / "a", report)
    moved = json.loads((a / "000-equality.json").read_text())
    [i, *_] = [i for i, rec in enumerate(moved["records"]) if rec["inequality"] == "off-lattice-vanishing"]
    moved["records"][i]["lhs"] += 0.125
    b = write_reports(tmp_path / "b", harness.Report(**moved))
    assert compare_reports.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "000-equality.json: 1 of" in out and "failure_count unchanged (0)" in out
    assert "  rigid off-lattice-vanishing: 1 records, max |dratio| 0, max |dlhs| 0.125\n" in out


def test_groups_whose_count_moved_are_named_and_the_others_paired(tmp_path, capsys):
    # dropping one k1-* record shifts every later record, yet the rigid-* records still pair by position
    report = harness.run_suite(harness.SuiteConfig(suite="equality", n=1, m=1, seed=5))
    a = write_reports(tmp_path / "a", report)
    moved = json.loads((a / "000-equality.json").read_text())
    records = moved["records"]
    [k1, *_] = [i for i, rec in enumerate(records) if rec["sample"].startswith("k1-")]
    del records[k1]
    [rigid, *_] = [i for i, rec in enumerate(records) if rec["sample"].startswith("rigid-")]
    records[rigid]["lhs"] += 0.125
    b = write_reports(tmp_path / "b", harness.Report(**moved))
    assert compare_reports.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    total = len(report.records)
    assert f"000-equality.json: record count {total} -> {total - 1}, 1 of {total - 150} paired records changed" in out
    assert "  k1 1.3: 150 -> 149 records\n  rigid off-lattice-vanishing: 1 records, max |dratio| 0" in out


def test_config_keys_are_named_by_change(tmp_path, capsys):
    report = harness.run_suite(harness.SuiteConfig(suite="equality", n=1, m=1, seed=5))
    a = write_reports(tmp_path / "a", report)
    moved = json.loads((a / "000-equality.json").read_text())
    del moved["config"]["tol"], moved["config"]["m"]
    moved["config"].update(seed=6, width=3)
    b = write_reports(tmp_path / "b", harness.Report(**moved))
    assert compare_reports.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "000-equality.json: 0 of" in out and "failure_count unchanged (0)" in out
    assert "  config keys added: width\n  config keys removed: m, tol\n  config keys changed: seed\n" in out
    assert "config changed" not in out
