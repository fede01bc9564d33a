"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, instrument, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_times_nested_and_back_to_back_children():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 3.0, 0),  # back-to-back with b
        Span("b", 3.0, 6.0, 0),
        Span("a.inner", 1.5, 2.5, 1),  # nested two levels below the root
        Span("c", 7.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.0, 3.0, 1.0, 2.0])
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)


def test_self_times_merge_overlapping_children():
    spans = [
        Span("c", 7.0, 9.0, -1),
        Span("c.x", 7.0, 8.0, 0),
        Span("c.y", 7.5, 8.5, 0),
        Span("c.z", 8.8, 9.5, 0),  # clipped at the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(2.0 - 1.5 - 0.2)


def test_tracer_links_parents_and_survives_exceptions():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def fail():
        raise ValueError("boom")

    boom = tracer.wrap("t.fail", fail, count=lambda c, a, r, e: c.update(raised=e is not None))
    with tracer.span("t.root"):
        with tracer.span("t.first"):
            pass
        with pytest.raises(ValueError):
            boom()
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("t.root", -1), ("t.first", 0), ("t.fail", 0)]
    assert tracer.spans[2].counts == {"raised": True}
    assert all(s.end > s.start for s in tracer.spans)


def test_instrument_restores_every_binding():
    import sosrep
    from sosrep import harness, score_fd, solver

    before = (sosrep.tune, harness.tune, score_fd.fd_statistic, solver.fit,
              solver.FittedModel.__dict__["f_and_grad"])
    with instrument(Tracer(), layers.BOUNDARIES):
        assert harness.tune is not before[1]
        assert sosrep.tune is harness.tune
    after = (sosrep.tune, harness.tune, score_fd.fd_statistic, solver.fit,
             solver.FittedModel.__dict__["f_and_grad"])
    assert after == before


def test_inputs_follow_the_seed():
    wl = workloads.make_workload("ad_sosrep_sdo", "tiny")
    a, b, c = wl.make_op(5, 1), wl.make_op(5, 1), wl.make_op(6, 1)
    assert a.seed == b.seed != c.seed
    np.testing.assert_array_equal(a.data.X, b.data.X)
    assert not np.array_equal(a.data.X, c.data.X)


def _traced(name):
    wl = workloads.make_workload(name, "tiny")
    op = wl.make_op(0, 0)
    tracer = Tracer()
    with instrument(tracer, layers.BOUNDARIES), tracer.span(f"harness.{wl.protocol}"):
        wl.call(op)
    return tracer.spans, layers.per_layer_metrics(tracer.spans, 1)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_bypassed_layers_read_zero(name):
    spans, m = _traced(name)
    names = {s.name for s in spans}
    layers_seen = {s.layer for s in spans}
    kde = name == "ad_kde_gaussian"
    assert ("baseline_kernels" in layers_seen) == kde
    assert ("solver.fit" in names) != kde
    assert ("score_fd" in layers_seen) == name.startswith("ad_")
    for key, value in m.items():
        if key.startswith("baseline_kernels.") and not kde:
            assert value == 0, key
        if key.startswith("score_fd.") and not name.startswith("ad_"):
            assert value == 0, key
    if kde:
        assert m["solver.fit.calls"] == 0
    # Layer self times and the harness's own time add up to the traced call.
    assert m["accounted_frac"] == pytest.approx(1.0, abs=1e-9)
    assert sum(m[f"{layer}.self_s"] for layer in layers.LAYERS) == pytest.approx(m["traced_run_s"])


def test_fd_statistic_model_evals_per_statistic():
    _, m = _traced("ad_sosrep_sdo")
    n_fd_iters = workloads.make_workload("ad_sosrep_sdo", "tiny").config.n_fd_iters
    assert m["score_fd.fd_statistic.model_evals"] == 1 + n_fd_iters


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(trace):
    name = "negfrac"
    record = run.run_workload(name, seed=1, seconds=0, trace=trace, size="tiny")
    lines = run.render(record, SPEC)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == (3 if trace else workloads.MIN_OPS)  # warm-up + one pair
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {d["name"] for d in declared}
    printed = {}
    for line in lines[:-1]:
        match = re.fullmatch(r"metric (\S+) (\S+) (\S+)", line)
        if match:
            printed[match[1]] = match[3]
    for d in declared:
        assert result["metrics"][d["name"]]["unit"] == d["unit"]
        assert isinstance(result["metrics"][d["name"]]["value"], float)
        assert printed[d["name"]] == d["unit"]
    for extra in ("run_wall_s", "setup_wall_s", "first_call_s", "speed", "failed_frac"):
        assert extra in printed


def test_speed_sampler_samples_inside_the_interval_and_restores_the_handler():
    import signal
    import time

    from reference import REFERENCE_S, SpeedSampler

    before = signal.getsignal(signal.SIGALRM)
    sampler = SpeedSampler(0.02).start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # One sample at start, then several from the timer inside the interval.
    assert len(sampler.samples) >= 3
    assert 0 < sampler.spent < 0.2
    assert sampler.relative_speed() == pytest.approx(
        np.mean([REFERENCE_S / s for s in sampler.samples]))
