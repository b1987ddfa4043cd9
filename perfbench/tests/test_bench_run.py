"""Statistics, parsing, checks and metric names of run.py.

Run with `python3 -m pytest perfbench/tests` from the repository root.
"""

import json
import re

import pytest

import run

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize(
    "n, pct, beyond",
    [(1000, 99.0, 10), (200, 95.0, 10), (100, 90.0, 10), (50, 75.0, 12), (30, 50.0, 15), (19, 50.0, 9)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, pct, beyond):
    samples = [float(i) for i in range(n, 0, -1)]
    got_pct, value, got_beyond = run.tail(samples)
    assert (got_pct, got_beyond) == (pct, beyond)
    # Nearest rank: exactly `beyond` samples exceed the reported value.
    assert sum(x > value for x in samples) == beyond


def test_tail_rejects_an_empty_sample():
    with pytest.raises(ValueError):
        run.tail([])


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |       numpy._core
import time:       200 |        300 |     numpy
import time:        50 |         50 |       scipy.stats._x
import time:        10 |         60 |     scipy.stats
import time:        20 |         80 |   scipy.signal._peak_finding
import time:        30 |         30 |   scipy.signal.waveforms
import time:       400 |        400 |     numpy.linalg
import time:        40 |        440 |   scipy.optimize._optimize
import time:         5 |        825 | cavitycool
"""


def test_parse_importtime_attributes_top_most_namespace_entries():
    got = run.parse_importtime(IMPORTTIME)
    assert got == pytest.approx(
        {
            "cavitycool": 825e-6,
            "scipy.signal": 110e-6,
            "scipy.optimize": 440e-6,
            "scipy.stats": 60e-6,
            "numpy": 700e-6,
        }
    )


def _spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_valid_and_declared_in_benchmark_json():
    spec = _spec()
    for key, units in (("end_to_end", run.E2E_UNITS), ("per_layer", run.LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert declared == units
        assert all(NAME.fullmatch(name) for name in declared)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def _trace_data(**extra):
    data = {
        "layers": {
            "bench.op": {"s": 2.0, "self_s": 0.5, "calls": 2},
            "synth.trace": {"s": 1.0, "self_s": 1.0, "calls": 1200},
            "analysis.fit": {"s": 0.5, "self_s": 0.5, "calls": 2},
        },
        "counts": {"synth.samples": 10, "analysis.fit.converged": 2, "analysis.fit.collapsed": 1},
        "untraced_s": [0.9, 1.0, 1.1],
        "traced_s": [1.0, 1.0],
        "traced_wall_s": 2.0,
        "span_count": 1204,
    }
    data.update(extra)
    return data


def test_layer_metrics_emit_exactly_the_declared_per_layer_names():
    imports = {f"import.{m}.s": 0.1 for m in run.IMPORT_MODULES}
    m = run.layer_metrics(_trace_data(), imports)
    assert set(m) == set(run.LAYER_UNITS)
    assert m["synth.trace.calls"] == 600
    assert m["analysis.fit.collapsed_ratio"] == 0.5
    assert m["trace.self_coverage"] == pytest.approx(1.0)
    truth = {"tau_s": 9e-6, "deltap_db": -3.5, "n_shots": 600}
    ops = [{"seed": 1, "tau_s": 8.1e-6, "deltap_db": -3.4, "converged": True}]
    m = run.layer_metrics(_trace_data(ops=ops, truth=truth), imports)
    assert m["tau_rel_bias"] == pytest.approx(0.1)
    assert m["deltap_bias_db"] == pytest.approx(0.1)


def _op(seed, deltap=-3.47, tau=8.2e-6, converged=True):
    return {"seed": seed, "deltap_db": deltap, "tau_s": tau, "converged": converged}


def test_criterion_6_misses_pass_within_its_allowance_and_fail_above_it():
    bad = [_op(19, tau=7.0e-6), _op(20, converged=False), _op(21, tau=float("nan"))]
    out = run.Outcome()
    run.check_closures([_op(i) for i in range(27)] + bad, out)
    assert (out.attempted, out.failed, out.problems) == (30, 0, [])
    assert "criterion_6_misses = 3 of 30 closures" in out.lines

    out = run.Outcome()
    run.check_closures([_op(i) for i in range(17)] + [_op(i, deltap=-3.0) for i in range(3)], out)
    assert out.failed == 0 and out.problems


def test_miss_ratio_counts_closures_outside_criterion_6():
    imports = {f"import.{m}.s": 0.1 for m in run.IMPORT_MODULES}
    truth = {"tau_s": 9e-6, "deltap_db": -3.5, "n_shots": 600}
    ops = [_op(1), _op(2, converged=False), _op(3, deltap=-3.0), _op(4)]
    m = run.layer_metrics(_trace_data(ops=ops, truth=truth), imports)
    assert m["criterion6.miss_ratio"] == 0.5
    assert run.layer_metrics(_trace_data(), imports)["criterion6.miss_ratio"] == 0.0


def test_a_closure_that_raises_fails_the_run():
    out = run.Outcome()
    run.check_closures([_op(i) for i in range(30)] + [{"seed": 5, "error": "AnalysisError: boom"}], out)
    assert out.failed == 1 and len(out.problems) == 1


def test_bias_skips_closures_without_an_estimate():
    truth = {"tau_s": 9e-6, "deltap_db": -3.5}
    ops = [_op(1, tau=8.1e-6, deltap=-3.4), _op(2, tau=float("nan"))]
    assert run.biases(ops, truth)["tau_rel_bias"] == pytest.approx(0.1)


def test_cli_checks_catch_wrong_values_and_short_sweeps(tmp_path):
    ok = run.Child(0, "t_mode_cooled_k=108.0\n", "", 1.0, None, 1.0)
    (tmp_path / "sweep.csv").write_text(run.SWEEP_HEADER + "\n" + "1.0,2.0,3.0\n" * run.SWEEP_ROWS)
    steps = run.cli_steps("cold_predict", 1, str(tmp_path))
    reference = {"steady": {"t_mode_cooled_k": "108.0"}}
    assert run.check_cli_op("cold_predict", steps, [ok, ok], reference, tmp_path) == []
    reference = {"steady": {"t_mode_cooled_k": "108.00000000000001"}}
    assert run.check_cli_op("cold_predict", steps, [ok, ok], reference, tmp_path)
    (tmp_path / "sweep.csv").write_text(run.SWEEP_HEADER + "\n1.0,2.0,3.0\n")
    assert run.check_cli_op("cold_predict", steps, [ok, ok], {"steady": {}}, tmp_path)
    crashed = run.Child(4, "", "data format error", 1.0, None, 1.0)
    assert run.check_cli_op("cold_predict", steps, [ok, crashed], {"steady": {}}, tmp_path)


def test_a_checkout_without_sources_fails_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "closure", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
