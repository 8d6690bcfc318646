"""Tests of the benchmark's own statistics, span analysis and metric list.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import math
import statistics
import sys
from pathlib import Path

import pytest

import layers
import run
import speed
import stats
import tracing

ROOT = Path(__file__).resolve().parent.parent


class TestPercentileRule:
    def test_p99_needs_ten_samples_beyond(self):
        assert stats.supported(1000, 0.99)
        assert not stats.supported(999, 0.99)
        assert stats.samples_beyond(1000, 0.99) == 10

    def test_unsupported_percentile_is_refused(self):
        with pytest.raises(ValueError, match="at least 10 samples beyond"):
            stats.percentile(list(range(999)), 0.99)

    def test_nearest_rank(self):
        values = list(range(1, 1001))
        assert stats.percentile(values, 0.99) == 990
        assert stats.percentile(values, 0.5) == 500

    def test_tail_is_p99_or_the_median(self):
        assert stats.tail(list(range(1, 1001))) == (0.99, 990)
        assert stats.tail(list(range(999)))[0] == 0.5
        assert stats.tail([3.0, 1.0, 2.0]) == (0.5, 2.0)


class TestFailureAccounting:
    def test_failure_share(self):
        assert stats.failure_share(1000, 0) == 0.0
        assert stats.failure_share(1000, 25) == 0.025

    @pytest.mark.parametrize("attempted, failed", [(0, 0), (10, 11), (10, -1)])
    def test_failure_share_rejects_impossible_counts(self, attempted, failed):
        with pytest.raises(ValueError):
            stats.failure_share(attempted, failed)

    def test_failures_count_as_infinitely_slow(self):
        latencies = stats.latencies_with_failures([0.01] * 985, failed=15)
        assert len(latencies) == 1000
        assert statistics.median(latencies) == 0.01
        assert math.isinf(stats.percentile(latencies, 0.99))
        assert stats.finite_or_none(stats.percentile(latencies, 0.99)) is None

    def test_few_failures_stay_beyond_p99(self):
        latencies = stats.latencies_with_failures([0.01] * 995, failed=5)
        assert stats.percentile(latencies, 0.99) == 0.01


class TestSpeedReference:
    def test_nominal_machine_leaves_timings_alone(self):
        nominal = speed.NOMINAL_S
        assert speed.slowdown(nominal, nominal) == pytest.approx(1.0)
        assert speed.normalise_seconds(2.0, nominal, nominal) == pytest.approx(2.0)

    def test_slow_machine_is_divided_out(self):
        nominal = speed.NOMINAL_S
        # Half as fast before and after the timed work: half the time counts.
        assert speed.normalise_seconds(2.0, 2 * nominal, 2 * nominal) == pytest.approx(1.0)
        # The factor is the mean of the references on either side.
        assert speed.slowdown(nominal, 3 * nominal) == pytest.approx(2.0)

    def test_reference_runs(self):
        assert 0.0 < speed.reference_seconds() < 1.0


def span(id, parent, start, end, name="x", request=None):
    return tracing.Span(id, parent, name, start, end, request, 0, 1)


class TestSpans:
    def test_union_length_merges_overlaps(self):
        assert tracing.union_length([(0, 2), (1, 3), (5, 6)]) == 4
        assert tracing.union_length([]) == 0

    def test_self_time_subtracts_covered_children(self):
        spans = [
            span(1, None, 0.0, 10.0, "op"),
            span(2, 1, 1.0, 4.0, "a"),
            span(3, 1, 3.0, 6.0, "b"),
            span(4, 3, 4.0, 5.0, "c"),
        ]
        totals = tracing.layer_totals(spans)
        assert totals["op"].self_seconds == pytest.approx(5.0)
        assert totals["b"].self_seconds == pytest.approx(2.0)
        assert tracing.coverage_share(spans, "op") == pytest.approx(0.5)

    def test_coverage_looks_through_excluded_phases(self):
        spans = [
            span(1, None, 0.0, 10.0, "op"),
            span(2, 1, 0.0, 10.0, "part"),
            span(3, 2, 1.0, 4.0, "a"),
            span(4, 3, 2.0, 3.0, "b"),
        ]
        assert tracing.coverage_share(spans, "op", ["part"]) == pytest.approx(0.3)
        assert tracing.coverage_share(spans, "op") == pytest.approx(1.0)

    def test_wrappers_record_and_uninstall(self):
        class Thing:
            def work(self, n):
                return n * 2

        tracer = tracing.Tracer()
        tracer.patch_method(Thing, "work", "thing.work", lambda a, k, r: a[1])
        with tracer.span("op", request=7):
            assert Thing().work(5) == 10
        tracer.uninstall()
        assert Thing().work(1) == 2
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["thing.work"].parent == by_name["op"].id
        assert by_name["thing.work"].request == 7
        assert by_name["thing.work"].units == 5
        assert len(tracer.spans) == 2


class TestBenchmarkFile:
    def benchmark(self):
        return json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_per_layer_matches_the_layer_table(self):
        assert self.benchmark()["per_layer"] == layers.metric_specs()

    def test_end_to_end_matches_the_runner(self):
        declared = {m["name"]: m["unit"] for m in self.benchmark()["end_to_end"]}
        assert declared == run.UNITS

    def test_every_layer_metric_is_computed(self):
        names = {spec["name"] for spec in layers.metric_specs()}
        computed = set(layers.timed_metrics({}, {}, 0))
        derived = {name for name, *_ in layers.DERIVED}
        assert computed | derived == names


class TestLayerTable:
    def test_every_timed_and_counted_span_is_wrapped(self):
        wrapped = {wrap.span for wrap in layers.WRAPS}
        timed = {span for _, _, span, *_ in layers.TIMED}
        # service.dispatch is recorded by the server's micro-batcher wrapper.
        assert timed | set(layers.COUNTED) - {"service.dispatch"} <= wrapped

    @pytest.mark.parametrize("where", [layers.ENGINE, layers.SERVER])
    def test_install_and_uninstall_restore_the_program(self, where):
        sys.path.insert(0, str(ROOT / "src"))
        from repro.sweep.grid import WorkloadSpec

        original = WorkloadSpec.__dict__["build"]
        tracer = tracing.Tracer()
        layers.install(tracer, where)
        try:
            assert WorkloadSpec.__dict__["build"] is not original
            spec = WorkloadSpec("routine", "trial", num_cases=20, population_seed=1)
            spec.build()
        finally:
            tracer.uninstall()
        assert WorkloadSpec.__dict__["build"] is original
        (build,) = [s for s in tracer.spans if s.name == "screening.build"]
        assert build.units == 20
