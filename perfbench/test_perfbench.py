"""Self-tests of the benchmark: span arithmetic and the correctness checks.

usage (from the repository root): python3 -m pytest -q perfbench
"""

import json
from pathlib import Path

import pytest

import checks
import run
import spans
import workloads

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


def test_self_times_subtract_direct_children_only():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 5.0, 9.0, 0],
        ["a", 6.0, 7.0, 2],
    ]
    assert spans.self_times(tree) == [3.0, 3.0, 3.0, 1.0]
    totals = spans.layer_totals(tree)
    assert totals["a"] == (2, 4.0, 4.0)
    assert totals["b"] == (1, 3.0, 4.0)
    assert totals["root"] == (1, 3.0, 10.0)


def test_tracer_nests_spans_and_passes_through_outside_its_parent():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1, only_under="outer")
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert inner(1) == 2  # no enclosing "outer": no span
    assert outer(1) == 4
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [("outer", -1),
                                                                        ("inner", 0)]
    assert all(end >= start for _, start, end, _ in tracer.spans)


def _result(workload, spin):
    ref = REFERENCE[workload]
    w_plus, w_minus = workloads.sigma_y_weights(spin)
    q = {k: w_plus * ref["y+"][k] + w_minus * ref["y-"][k] for k in checks.MIX_KEYS}
    return {"backend": "full-field", "max_norm_drift": 1e-13, "max_sy_drift": 1e-14,
            "pop_plus": q["pop_plus"], "pop_minus": q["pop_minus"],
            "sy_plus": q["sy_pop_plus"] / q["pop_plus"],
            "sy_minus": q["sy_pop_minus"] / q["pop_minus"]}


@pytest.mark.parametrize("workload", ["fullfield-bichrom", "modes-mono"])
def test_mix_check_rejects_population_shifted_by_twice_the_tolerance(workload):
    spin = workloads.seeded_spin(7)
    weights = workloads.sigma_y_weights(spin)
    result = _result(workload, spin)
    assert checks.check_mix(result, weights, REFERENCE[workload]) == []
    result["pop_minus"] += 2.0 * REFERENCE[workload]["tolerance"]
    assert checks.check_mix(result, weights, REFERENCE[workload])


def test_drift_check_rejects_1e_7():
    result = _result("fullfield-bichrom", workloads.seeded_spin(3))
    assert checks.check_drifts([result]) == []
    for key in ("max_norm_drift", "max_sy_drift"):
        assert checks.check_drifts([dict(result, **{key: 1e-7})])


def test_output_check_rejects_a_file_that_differs_from_a_rerun(tmp_path):
    for name, text in (("a", "t,pop\n0,1\n"), ("b", "t,pop\n0,1.0000001\n")):
        (tmp_path / name / "snapshots").mkdir(parents=True)
        (tmp_path / name / "timeseries.csv").write_text("t,pop\n0,1\n")
        (tmp_path / name / "snapshots" / "000001.csv").write_text(text)
    first, files, size = run._outputs(tmp_path / "a", b"summary\n")
    assert (files, size) == (2, 20)
    assert checks.check_outputs(first, run._outputs(tmp_path / "a", b"summary\n")[0]) == []
    assert checks.check_outputs(first, run._outputs(tmp_path / "b", b"summary\n")[0])
    assert checks.check_outputs(first, run._outputs(tmp_path / "a", b"other\n")[0])


def test_compare_and_rabi_checks():
    table = ("# spinsplit\nbackend,pop_plus,dev_pop_plus,dev_pop_minus\n"
             "analytic,0.97,0,0\nmode-lattice,0.95,{},-0.0004\n")
    assert checks.check_compare_table(table.format(-0.0155)) == []
    assert checks.check_compare_table(table.format(0.06))
    assert checks.check_rabi(checks.RABI_OMEGA * 1.019) == []
    assert checks.check_rabi(checks.RABI_OMEGA * 1.021)


def test_seeded_spin_is_normalized_and_survives_the_scenario_file():
    import yaml

    for seed in range(20):
        spin = workloads.seeded_spin(seed)
        assert sum(abs(c) ** 2 for c in spin) == pytest.approx(1.0, abs=1e-14)
        text = workloads.WORKLOADS["modes-mono"].scenario_text(spin)
        parsed = yaml.safe_load(text)["electron"]["spin"]
        assert [complex(*c) for c in parsed] == list(spin)
    assert workloads.seeded_spin(5) == workloads.seeded_spin(5)
    assert sum(workloads.sigma_y_weights(workloads.seeded_spin(5))) == pytest.approx(1.0)
