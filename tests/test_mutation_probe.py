import importlib.util
from pathlib import Path

import pytest

from schwarzpick import bounds

SPEC = importlib.util.spec_from_file_location(
    "mutation_probe", Path(__file__).resolve().parents[1] / "tools" / "mutation_probe.py")
mutation_probe = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutation_probe)

REMARK2 = "sharpness --family remark2 --kmax 1".split()
ORIGIN = "check --suite origin --n 2 --m 4 --samples 3 --seed 5".split()


def test_loosened_disk_bound_is_caught_on_one_remark2_sweep():
    before = dict(vars(bounds))
    assert mutation_probe.probe([REMARK2], 1e-3, only="rhs_disk") == {"rhs_disk x 1.001": [0]}
    assert dict(vars(bounds)) == before


def test_loosened_parseval_bound_is_caught_on_one_origin_line():
    # the tensor power's Parseval records carry their prediction, ratio 1
    assert mutation_probe.probe([ORIGIN], 1e-3, only="rhs_parseval") == {"rhs_parseval x 1.001": [0]}


def test_a_bound_the_line_does_not_read_survives():
    assert mutation_probe.probe([REMARK2], 1e-3, only="rhs_partial") == {"rhs_partial x 1.001": []}


def test_every_rhs_has_a_mutant_and_rhs_main_a_second():
    names = sorted(name for name in vars(bounds) if name.startswith("rhs_"))
    assert names == ["rhs_disk", "rhs_main", "rhs_origin", "rhs_parseval", "rhs_partial", "rhs_radial"]
    targets = [name for name, _ in mutation_probe.mutants(bounds, 1e-3).values()]
    assert sorted(targets) == sorted(names + ["rhs_main"])


def test_a_label_names_its_factor_at_a_small_eps():
    # "{:g}" rounds 1 + 1e-6 to six digits, which read "x 1"
    labels = list(mutation_probe.mutants(bounds, 1e-6))
    assert "rhs_disk x 1.000001" in labels and "rhs_main x 1.000001 at k >= 2" in labels
    assert all(" x 1.000001" in label for label in labels)


def test_a_mutant_scales_every_field_from_its_order_on():
    assert mutation_probe.scaled(bounds.rhs_partial, 2.0)((1, 1), 0.5, 0.75) == tuple(
        2.0 * x for x in bounds.rhs_partial((1, 1), 0.5, 0.75))
    at_k2 = mutation_probe.scaled(bounds.rhs_main, 2.0, min_order=2)
    assert at_k2(1, 1.5, 0.25) == bounds.rhs_main(1, 1.5, 0.25)
    assert at_k2(3, 1.5, 0.25) == 2.0 * bounds.rhs_main(3, 1.5, 0.25)


def test_a_line_that_cannot_run_is_an_error():
    with pytest.raises(RuntimeError, match="exit 2"):
        mutation_probe.probe([REMARK2 + ["--radii", "0.5,0.1"]], 1e-3, only="rhs_disk")
