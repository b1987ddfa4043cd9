"""Span arithmetic and attribute restoration of the traced run.

Run with `python3 -m pytest perfbench/tests` from the repository root.
"""

import dataclasses
import itertools

import pytest

import spans
from spans import Tracer, instrumented, layer_summary, leftover_wrappers, self_times
from worker import TARGETS


def test_self_time_subtracts_nested_children():
    recorded = [
        [0, -1, "op", 0.0, 10.0],
        [1, 0, "a", 1.0, 4.0],
        [2, 1, "b", 2.0, 3.0],
        [3, 0, "a", 5.0, 6.5],
    ]
    assert self_times(recorded) == pytest.approx([10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5])
    # The self times of a tree add up to its root's duration.
    assert sum(self_times(recorded)) == pytest.approx(10.0)


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    recorded = [
        [0, -1, "op", 0.0, 10.0],
        [1, 0, "x", 1.0, 5.0],
        [2, 0, "y", 3.0, 7.0],
        [3, 0, "z", 9.0, 12.0],
    ]
    # Covered: [1, 7] and [9, 10], so 7 of the 10 s.
    assert self_times(recorded)[0] == pytest.approx(3.0)


def test_layer_summary_counts_a_recursive_layer_once():
    recorded = [
        [0, -1, "levels", 0.0, 4.0],
        [1, 0, "levels", 1.0, 2.0],
        [2, 0, "levels", 2.5, 3.5],
        [3, -1, "fit", 4.0, 5.0],
    ]
    summary = layer_summary(recorded)
    assert summary["levels"]["s"] == pytest.approx(4.0)
    assert summary["levels"]["self_s"] == pytest.approx(4.0)
    assert summary["levels"]["calls"] == 3
    assert summary["fit"] == {"s": 1.0, "self_s": 1.0, "calls": 1}


def test_wrapped_calls_record_parents_and_counts():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    inner = tracer.wrap("inner", lambda x: x * 2, count=lambda c, a, r: c.update(n=r))
    outer = tracer.wrap("outer", lambda x: inner(x) + inner(x))
    with tracer.span("op"):
        assert outer(3) == 12
    assert [(s[0], s[1], s[2]) for s in tracer.spans] == [
        (0, -1, "op"), (1, 0, "outer"), (2, 1, "inner"), (3, 1, "inner"),
    ]
    assert tracer.counts["n"] == 12
    assert all(s[3] < s[4] for s in tracer.spans)


def test_traced_run_restores_every_wrapped_attribute():
    cc = pytest.importorskip("cavitycool")
    import cavitycool.cli  # noqa: F401

    simulate_run = cc.pipeline.simulate_run
    tracer = Tracer()
    with instrumented(tracer, "cavitycool", TARGETS) as patches:
        # Bound under another module's globals and the package namespace too.
        for holder in (cc.pipeline, cc.cli, cc):
            assert getattr(holder.simulate_run, spans.WRAPPED_MARK) is simulate_run
        cfg = dataclasses.replace(cc.config.default_run_config(), n_shots=3)
        sim = cc.pipeline.simulate_run(cfg)
        cc.pipeline.analyze_run(sim.traces, cfg, sim.disconnect_time_s)
    assert {holder for holder, _, _ in patches} >= {cc, cc.cli, cc.pipeline, cc.synth.NoiseTrace}
    for holder, name, original in patches:
        assert getattr(holder, name) is original
    assert cc.pipeline.simulate_run is simulate_run
    assert leftover_wrappers("cavitycool") == []

    # segment_deltap reaches pooled_mean_square through module globals,
    # so those calls nest inside the analysis.levels span that made them.
    by_id = {s[0]: s for s in tracer.spans}
    nested = [s for s in tracer.spans if s[2] == "analysis.levels" and s[1] >= 0
              and by_id[s[1]][2] == "analysis.levels"]
    assert len(nested) == 2
    assert layer_summary(tracer.spans)["synth.trace"]["calls"] == 3
    assert tracer.counts["synth.samples"] == 3 * len(sim.traces[0])


def test_attributes_are_restored_when_the_traced_body_raises():
    cc = pytest.importorskip("cavitycool")
    original = cc.analysis.extract_noise
    with pytest.raises(RuntimeError):
        with instrumented(Tracer(), "cavitycool", TARGETS):
            assert cc.analysis.extract_noise is not original
            raise RuntimeError("boom")
    assert cc.analysis.extract_noise is original
    assert leftover_wrappers("cavitycool") == []
