"""Tests for the unified benchmark runner (repro.obs.bench).

Covers the steady-state statistics (warmup trimming, median/MAD,
seeded bootstrap CIs), the schema-versioned BENCH_*.json round trip,
the scenario registry, suite discovery, and the headline guarantee:
the noise-aware regression gate fires on an injected 2x slowdown and
stays quiet on noise-level jitter; and the paired A/B ratio behind every
overhead and speedup gate in ``benchmarks/``.
"""

import gc
import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.obs import bench
from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    PAIRS,
    BenchRecord,
    BenchReport,
    BenchStats,
    EnvFingerprint,
    SCENARIOS,
    bench_metrics_registry,
    compare_reports,
    discover_suites,
    load_report,
    paired_ratio,
    run_bench,
    write_report,
)


def _stats(samples, warmup=0):
    return BenchStats.from_samples(samples, warmup=warmup, seed=0)


def _report(label, sample_sets):
    """Build a report with one record per (name, samples) pair."""
    return BenchReport(
        label=label,
        env=EnvFingerprint.capture(),
        records=tuple(
            BenchRecord(name=name, kind="micro", stats=_stats(samples))
            for name, samples in sample_sets.items()
        ),
        created_unix=1_700_000_000.0,
    )


class TestBenchStats:
    def test_warmup_trimming(self):
        s = _stats([100.0, 1.0, 1.1, 0.9], warmup=1)
        assert s.samples == (1.0, 1.1, 0.9)
        assert s.median == 1.0
        assert s.warmup == 1

    def test_median_and_mad(self):
        s = _stats([1.0, 2.0, 3.0, 4.0, 100.0])
        assert s.median == 3.0
        assert s.mad == 1.0  # median(|x - 3|) = median(2,1,0,1,97)
        assert s.minimum == 1.0 and s.maximum == 100.0

    def test_bootstrap_ci_brackets_median_and_is_deterministic(self):
        samples = list(np.random.default_rng(1).normal(1.0, 0.05, size=9))
        a = BenchStats.from_samples(samples, seed=7)
        b = BenchStats.from_samples(samples, seed=7)
        assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)
        assert a.ci_low <= a.median <= a.ci_high

    def test_single_sample_degenerate_ci(self):
        s = _stats([2.5])
        assert s.ci_low == s.ci_high == s.median == 2.5

    def test_empty_after_warmup_raises(self):
        with pytest.raises(ValueError, match="steady-state"):
            _stats([1.0], warmup=1)

    def test_negative_sample_raises(self):
        with pytest.raises(ValueError, match="negative"):
            _stats([-1.0])


class TestEnvFingerprint:
    def test_capture_fields(self):
        env = EnvFingerprint.capture()
        assert env.python.count(".") == 2
        assert env.numpy == np.__version__
        assert env.cpu_count >= 1
        assert env.git_sha  # short sha or "unknown"

    def test_round_trip(self):
        env = EnvFingerprint.capture()
        assert EnvFingerprint.from_dict(env.as_dict()) == env


class TestReportRoundTrip:
    def test_write_load_identity(self, tmp_path):
        rep = _report("baseline", {"a.b": [1.0, 1.1, 0.9], "c.d": [2.0, 2.2]})
        path = tmp_path / "BENCH_baseline.json"
        write_report(rep, path)
        loaded = load_report(path)
        assert loaded.label == "baseline"
        assert loaded.schema_version == BENCH_SCHEMA_VERSION
        assert loaded.env == rep.env
        assert [r.name for r in loaded.records] == ["a.b", "c.d"]
        assert loaded.record("a.b").stats == rep.record("a.b").stats
        # ...and a loaded report compares clean against its source.
        result = compare_reports(rep, loaded)
        assert result.ok and len(result.comparisons) == 2

    def test_schema_version_mismatch_rejected(self, tmp_path):
        rep = _report("x", {"a": [1.0]})
        d = rep.as_dict()
        d["schema_version"] = BENCH_SCHEMA_VERSION + 1
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match="schema version"):
            load_report(path)

    def test_metrics_preserved(self, tmp_path):
        rec = BenchRecord(name="s", kind="macro", stats=_stats([1.0]),
                          metrics={"mfu": 0.52, "tokens_per_s": 1e6})
        rep = BenchReport(label="m", env=EnvFingerprint.capture(),
                          records=(rec,), created_unix=0.0)
        path = tmp_path / "BENCH_m.json"
        write_report(rep, path)
        assert load_report(path).record("s").metrics == rec.metrics


class TestRegressionGate:
    def test_injected_2x_slowdown_regresses(self):
        rng = np.random.default_rng(0)
        base = list(1.0 + rng.normal(0, 0.01, size=7))
        old = _report("old", {"hot.path": base})
        new = _report("new", {"hot.path": [2 * x for x in base]})
        result = compare_reports(old, new)
        assert not result.ok
        (reg,) = result.regressions
        assert reg.name == "hot.path"
        assert reg.ratio == pytest.approx(2.0, rel=0.05)

    def test_noise_level_jitter_passes(self):
        rng = np.random.default_rng(3)
        old = _report("old", {"hot.path": list(1.0 + rng.normal(0, 0.02, 7))})
        new = _report("new", {"hot.path": list(1.0 + rng.normal(0, 0.02, 7))})
        assert compare_reports(old, new).ok

    def test_statistically_real_but_trivial_drift_passes(self):
        # 2% slowdown with tiny variance: CIs separate, but the
        # relative floor (10%) keeps the gate quiet.
        old = _report("old", {"s": [1.00, 1.001, 0.999, 1.0, 1.0]})
        new = _report("new", {"s": [1.02, 1.021, 1.019, 1.02, 1.02]})
        result = compare_reports(old, new)
        assert result.ok
        assert not result.comparisons[0].regressed

    def test_improvement_flagged(self):
        old = _report("old", {"s": [2.0, 2.01, 1.99]})
        new = _report("new", {"s": [1.0, 1.01, 0.99]})
        (c,) = compare_reports(old, new).comparisons
        assert c.improved and not c.regressed

    def test_added_and_removed_scenarios_reported_not_failed(self):
        old = _report("old", {"a": [1.0], "gone": [1.0]})
        new = _report("new", {"a": [1.0], "fresh": [1.0]})
        result = compare_reports(old, new)
        assert result.ok
        assert result.only_old == ["gone"]
        assert result.only_new == ["fresh"]
        assert "gone" in result.describe() and "fresh" in result.describe()


class TestRunner:
    def test_registry_has_engine_sim_and_profiler_scenarios(self):
        names = set(SCENARIOS)
        assert any(n.startswith("engine.") for n in names)
        assert any(n.startswith("sim.") for n in names)
        assert any(n.startswith("obs.profile") for n in names)

    def test_run_bench_filtered(self):
        rep = run_bench(fast=True, repeats=2, warmup=0,
                        filter_substr="schedule")
        assert [r.name for r in rep.records] == ["schedule.interleaved.p8m64v4"]
        rec = rep.records[0]
        assert len(rec.stats.samples) == 2
        assert rep.schema_version == BENCH_SCHEMA_VERSION

    def test_run_bench_derives_throughput_metrics(self):
        rep = run_bench(fast=True, repeats=1, warmup=0,
                        filter_substr="engine.train_step.p2d2")
        rec = rep.records[0]
        assert rec.metrics["tokens_per_s"] > 0
        assert rec.metrics["tflops_per_gpu"] > 0

    def test_sim_scenario_mfu_matches_table1_ballpark(self):
        rep = run_bench(fast=True, repeats=1, warmup=0,
                        filter_substr="sim.iteration.gpt145b")
        m = rep.records[0].metrics
        # The simulator's Table-1 reproduction is within a few percent
        # of the paper's 148 Tflop/s per GPU for the 145.6B row.
        assert m["sim_tflops_per_gpu"] == pytest.approx(
            m["paper_tflops_per_gpu"], rel=0.10
        )
        assert 0 < m["sim_mfu"] < 1

    def test_suite_discovery_finds_bench_files(self):
        suites = discover_suites()
        names = {p.name for p in suites}
        assert "bench_trace_overhead.py" in names
        assert all(p.name.startswith("bench_") for p in suites)

    def test_bad_repeats_raises(self):
        with pytest.raises(ValueError, match="repeats"):
            run_bench(repeats=0)


class TestPairedRatio:
    @staticmethod
    def _sleeper(seconds):
        return lambda: lambda: time.sleep(seconds)

    def test_a_a_ci_contains_one(self, monkeypatch):
        # A seeded fake clock: each call of either arm takes 1 ms with 5%
        # lognormal jitter, so the A/A reading is reproducible.  (On a
        # real clock a 95% CI misses the truth 1 time in 20 by design.)
        rng = np.random.default_rng(0)
        now = [0.0]
        monkeypatch.setattr(bench, "time",
                            SimpleNamespace(perf_counter=lambda: now[0]))

        def arm():
            def call():
                now[0] += 1e-3 * rng.lognormal(0.0, 0.05)

            return call

        r = paired_ratio(arm, arm)
        assert len(r.samples) == PAIRS
        assert r.ci_low < 1.0 < r.ci_high

    def test_twice_as_slow_reads_about_two(self):
        r = paired_ratio(self._sleeper(0.005), self._sleeper(0.010))
        assert 1.6 <= r.median <= 2.4

    def test_arm_order_alternates(self):
        calls = []

        def arm(name):
            return lambda: lambda: calls.append(name)

        paired_ratio(arm("base"), arm("variant"))
        pairs = [tuple(calls[i:i + 2]) for i in range(0, len(calls), 2)]
        assert len(pairs) == PAIRS + 1  # one warmup pair
        assert pairs[0::2] == [("base", "variant")] * len(pairs[0::2])
        assert pairs[1::2] == [("variant", "base")] * len(pairs[1::2])

    def test_gc_restored_and_error_propagates(self):
        def boom():
            raise RuntimeError("timed callable failed")

        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="timed callable failed"):
            paired_ratio(lambda: lambda: None, lambda: boom)
        assert gc.isenabled()


class TestMetricsOut:
    def test_shared_metrics_schema(self):
        rep = _report("x", {"a.b": [1.0, 2.0, 3.0]})
        reg = bench_metrics_registry(rep)
        d = reg.as_dict()
        assert set(d) == {"counters", "gauges", "histograms"}
        assert d["gauges"]["bench.a.b.median"] == 2.0
        hist = d["histograms"]["bench.a.b.seconds"]
        assert hist["count"] == 3 and hist["min"] == 1.0 and hist["max"] == 3.0
        assert "p10" in hist and "p90" in hist
