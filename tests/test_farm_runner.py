"""The parallel sweep runner: determinism, caching, instrumentation."""

import multiprocessing
import os
import pickle

import pytest

from repro.core import FULL_TO_PARTIAL, ONLY_PARTIAL
from repro.errors import ConfigError, WorkerLostError
from repro.farm import (
    FarmConfig,
    RunSpec,
    SweepRunner,
    consolidation_host_sweep,
    execute_run,
    fault_rate_sweep,
    simulate_day,
)
from repro.faults import fault_profile_by_name
from repro.farm import runner as runner_module
from repro.farm.runner import (
    clear_ensemble_cache,
    ensemble_cache_stats,
    _ensemble_for,
)
from repro.traces import DayType


def small_config(**overrides):
    defaults = dict(home_hosts=4, consolidation_hosts=2, vms_per_host=4)
    defaults.update(overrides)
    return FarmConfig(**defaults)


def specs_matrix():
    """A small Figure-8-shaped spec list: 2 policies x 2 counts x 2 seeds."""
    out = []
    for policy in (FULL_TO_PARTIAL, ONLY_PARTIAL):
        for count in (1, 2):
            config = small_config(consolidation_hosts=count)
            for seed in (0, 1):
                out.append(RunSpec(config, policy, DayType.WEEKDAY, seed))
    return out


def result_fingerprint(result):
    """Everything a figure consumes, exact to the last delay sample."""
    return (
        result.savings_fraction,
        result.counters,
        result.faults,
        result.delays,
        result.active_vms,
        result.powered_hosts,
    )


class TestRunSpec:
    def test_spec_and_outcome_cross_process_boundaries(self):
        spec = RunSpec(small_config(), FULL_TO_PARTIAL, DayType.WEEKDAY, 3)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        outcome = execute_run(spec)
        round_tripped = pickle.loads(pickle.dumps(outcome))
        assert result_fingerprint(round_tripped.result) == result_fingerprint(
            outcome.result
        )

    def test_delay_log_crosses_the_pool_compactly(self):
        # Delay samples are most of a shard's pickled result; row objects
        # cost 41 B per sample, the log's columns about 26 B.
        spec = RunSpec(
            small_config(vms_per_host=8), FULL_TO_PARTIAL, DayType.WEEKDAY, 3
        )
        delays = execute_run(spec).result.delays
        wire = pickle.dumps(delays, pickle.DEFAULT_PROTOCOL)
        assert len(delays) > 200
        assert len(wire) <= 30 * len(delays)

    def test_trace_seed_matches_simulate_day(self):
        spec = RunSpec(small_config(), FULL_TO_PARTIAL, DayType.WEEKDAY, 5)
        outcome = execute_run(spec)
        reference = simulate_day(
            small_config(), FULL_TO_PARTIAL, DayType.WEEKDAY, seed=5
        )
        assert result_fingerprint(outcome.result) == result_fingerprint(
            reference
        )

    def test_ensemble_key_ignores_non_trace_config(self):
        base = RunSpec(small_config(), FULL_TO_PARTIAL, DayType.WEEKDAY, 1)
        other_policy = RunSpec(
            small_config(), ONLY_PARTIAL, DayType.WEEKDAY, 1
        )
        richer = RunSpec(
            small_config(memory_overcommit=1.5),
            FULL_TO_PARTIAL, DayType.WEEKDAY, 1,
        )
        assert base.ensemble_key() == other_policy.ensemble_key()
        assert base.ensemble_key() == richer.ensemble_key()
        different_seed = RunSpec(
            small_config(), FULL_TO_PARTIAL, DayType.WEEKDAY, 2
        )
        assert base.ensemble_key() != different_seed.ensemble_key()


class TestEnsembleCache:
    def test_second_draw_is_a_hit_and_the_same_object(self):
        clear_ensemble_cache()
        spec = RunSpec(small_config(), FULL_TO_PARTIAL, DayType.WEEKDAY, 7)
        first, was_cached_first = _ensemble_for(spec)
        again, was_cached_again = _ensemble_for(
            RunSpec(small_config(), ONLY_PARTIAL, DayType.WEEKDAY, 7)
        )
        assert not was_cached_first
        assert was_cached_again
        assert again is first
        assert ensemble_cache_stats() == (1, 1)

    def test_outcomes_record_cache_reuse(self):
        clear_ensemble_cache()
        config = small_config()
        specs = [
            RunSpec(config, policy, DayType.WEEKDAY, 11)
            for policy in (FULL_TO_PARTIAL, ONLY_PARTIAL)
        ]
        outcomes = SweepRunner().run(specs)
        assert [o.ensemble_cached for o in outcomes] == [False, True]
        assert SweepRunner().run(specs)[0].ensemble_cached  # still warm

    def test_cached_run_equals_uncached_run(self):
        config = small_config()
        spec = RunSpec(config, FULL_TO_PARTIAL, DayType.WEEKDAY, 13)
        clear_ensemble_cache()
        cold = execute_run(spec)
        warm = execute_run(spec)
        assert not cold.ensemble_cached
        assert warm.ensemble_cached
        assert result_fingerprint(cold.result) == result_fingerprint(
            warm.result
        )


class TestBackendDeterminism:
    def test_process_backend_matches_serial_at_any_worker_count(self):
        specs = specs_matrix()
        serial = SweepRunner().run(specs)
        for workers in (2, 3):
            parallel = SweepRunner(backend="process", workers=workers).run(
                specs
            )
            assert [o.spec for o in parallel] == specs
            for serial_outcome, parallel_outcome in zip(serial, parallel):
                assert result_fingerprint(
                    serial_outcome.result
                ) == result_fingerprint(parallel_outcome.result)

    def test_results_ordered_by_spec_not_completion(self):
        specs = specs_matrix()
        outcomes = SweepRunner(backend="process", workers=2).run(specs)
        assert [o.spec for o in outcomes] == specs
        assert [o.result.seed for o in outcomes] == [s.seed for s in specs]

    def test_process_backend_matches_serial_under_faults(self):
        """Fault draws live in per-run streams: workers change nothing."""
        specs = []
        for name in ("light", "heavy"):
            config = small_config(faults=fault_profile_by_name(name))
            for seed in (0, 1):
                specs.append(
                    RunSpec(config, FULL_TO_PARTIAL, DayType.WEEKDAY, seed)
                )
        serial = SweepRunner().run(specs)
        assert any(
            o.result.faults.total_events > 0 for o in serial
        ), "fault profiles injected nothing; differential test is vacuous"
        parallel = SweepRunner(backend="process", workers=2).run(specs)
        for serial_outcome, parallel_outcome in zip(serial, parallel):
            assert result_fingerprint(
                serial_outcome.result
            ) == result_fingerprint(parallel_outcome.result)
            assert serial_outcome.result.faults == (
                parallel_outcome.result.faults
            )

    def test_fault_rate_sweep_backend_equivalence(self):
        sweep_args = (small_config(), FULL_TO_PARTIAL, DayType.WEEKDAY)
        kwargs = dict(scale_factors=(0.0, 2.0), runs=2)
        serial = fault_rate_sweep(*sweep_args, **kwargs)
        parallel = fault_rate_sweep(
            *sweep_args, **kwargs,
            runner=SweepRunner(backend="process", workers=2),
        )
        assert [row[:2] for row in serial] == [row[:2] for row in parallel]
        zero_chunk, scaled_chunk = serial[0][2], serial[1][2]
        assert all(r.faults.total_events == 0 for r in zero_chunk)
        assert any(r.faults.total_events > 0 for r in scaled_chunk)

    def test_consolidation_host_sweep_backend_equivalence(self):
        sweep_args = (
            small_config(), [FULL_TO_PARTIAL], DayType.WEEKDAY,
        )
        serial = consolidation_host_sweep(
            *sweep_args, consolidation_counts=(1, 2), runs=2
        )
        parallel = consolidation_host_sweep(
            *sweep_args, consolidation_counts=(1, 2), runs=2,
            runner=SweepRunner(backend="process", workers=2),
        )
        assert serial == parallel


class TestInstrumentation:
    def test_summary_accounts_for_every_run(self):
        specs = specs_matrix()
        runner = SweepRunner()
        runner.run(specs)
        summary = runner.last_summary
        assert summary.runs == len(specs)
        assert summary.backend == "serial"
        assert summary.wall_time_s > 0.0
        assert summary.throughput_runs_per_s > 0.0
        assert 0.0 < summary.run_wall_mean_s <= summary.run_wall_max_s
        assert summary.run_wall_total_s >= summary.run_wall_max_s
        assert sum(count for _worker, count in summary.worker_runs) == len(
            specs
        )
        assert 0.0 < summary.worker_utilization <= 1.0
        assert "runs/s" in str(summary)

    def test_summaries_accumulate_per_batch(self):
        runner = SweepRunner()
        specs = specs_matrix()[:2]
        runner.run(specs)
        runner.run(specs)
        assert len(runner.summaries) == 2
        assert runner.last_summary is runner.summaries[-1]

    def test_progress_callback_sees_every_completion(self):
        seen = []
        specs = specs_matrix()[:3]
        runner = SweepRunner(progress=seen.append)
        runner.run(specs)
        assert [p.completed for p in seen] == [1, 2, 3]
        assert all(p.total == 3 for p in seen)
        assert [p.outcome.spec for p in seen] == specs  # serial: spec order

    def test_progress_callback_fires_under_process_backend(self):
        seen = []
        specs = specs_matrix()[:3]
        SweepRunner(backend="process", workers=2, progress=seen.append).run(
            specs
        )
        assert sorted(p.completed for p in seen) == [1, 2, 3]


class TestProgressCallbackErrors:
    """A throwing observer must not strand the pool or eat the batch."""

    def test_serial_batch_completes_before_error_surfaces(self):
        specs = specs_matrix()[:3]

        def boom(progress):
            raise ValueError(f"bad observer at {progress.completed}")

        runner = SweepRunner(progress=boom)
        with pytest.raises(ValueError, match="bad observer at 1"):
            runner.run(specs)
        assert runner.last_summary.runs == len(specs)

    def test_process_pool_drains_and_error_is_deferred(self):
        specs = specs_matrix()[:4]
        calls = []

        def boom(progress):
            calls.append(progress.completed)
            raise ValueError("bad observer")

        runner = SweepRunner(backend="process", workers=2, progress=boom)
        with pytest.raises(ValueError, match="bad observer"):
            runner.run(specs)
        # Only the first invocation fired; the batch still ran to
        # completion and was summarized before the error surfaced.
        assert calls == [1]
        assert runner.last_summary.runs == len(specs)

    def test_runner_stays_usable_after_a_callback_error(self):
        specs = specs_matrix()[:3]
        state = {"raised": False}

        def flaky(progress):
            if not state["raised"]:
                state["raised"] = True
                raise RuntimeError("one bad call")

        runner = SweepRunner(progress=flaky)
        with pytest.raises(RuntimeError):
            runner.run(specs)
        outcomes = runner.run(specs)
        assert [outcome.spec for outcome in outcomes] == specs


class TestWorkerCacheCounters:
    """Per-process cache statistics must not leak across processes."""

    def test_worker_counters_reset_at_batch_start(self):
        # Prime the parent's counters: on Linux the pool forks, so
        # without the batch-start reset every worker would inherit
        # these three hits and three misses.
        clear_ensemble_cache()
        for seed in (21, 22, 23):
            spec = RunSpec(small_config(), FULL_TO_PARTIAL,
                           DayType.WEEKDAY, seed)
            _ensemble_for(spec)
            _ensemble_for(spec)
        assert ensemble_cache_stats() == (3, 3)
        specs = specs_matrix()
        outcomes = SweepRunner(backend="process", workers=2).run(specs)
        per_worker = {}
        for outcome in outcomes:
            per_worker.setdefault(outcome.worker, []).append(outcome)
        for worker_outcomes in per_worker.values():
            # Each run performs exactly one cache lookup, so a worker's
            # (hits + misses) after its k-th run is exactly k — parent
            # history would inflate every total by six.
            totals = sorted(
                sum(outcome.worker_cache_stats)
                for outcome in worker_outcomes
            )
            assert totals == list(range(1, len(worker_outcomes) + 1))
        # The batch ran in workers; the parent's own counters are
        # untouched (per-process semantics).
        assert ensemble_cache_stats() == (3, 3)

    def test_serial_outcomes_carry_parent_stats(self):
        clear_ensemble_cache()
        spec = RunSpec(small_config(), FULL_TO_PARTIAL, DayType.WEEKDAY, 31)
        outcomes = SweepRunner().run([spec, spec])
        assert outcomes[0].worker_cache_stats == (0, 1)
        assert outcomes[1].worker_cache_stats == (1, 1)


class TestValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            SweepRunner(backend="threads")

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ConfigError):
            SweepRunner(backend="process", workers=0)

    def test_serial_backend_reports_one_worker(self):
        assert SweepRunner(backend="serial", workers=8).workers == 1

    def test_empty_spec_list(self):
        runner = SweepRunner()
        assert runner.run([]) == []
        assert runner.last_summary.runs == 0


def _exit_worker(spec):
    """Stands in for ``execute_run``: the worker process dies mid-run."""
    os._exit(3)


#: Forked workers inherit the monkeypatched ``execute_run``; spawned
#: ones would import the real one.
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers must be forked to inherit the patched run",
)


@needs_fork
class TestDeadWorker:
    def test_lost_runs_are_named_and_no_summary_is_recorded(
        self, monkeypatch, capfd
    ):
        monkeypatch.setattr(runner_module, "execute_run", _exit_worker)
        specs = [
            RunSpec(small_config(), FULL_TO_PARTIAL, DayType.WEEKDAY, seed)
            for seed in range(4)
        ]
        runner = SweepRunner(backend="process", workers=2)
        with pytest.raises(WorkerLostError) as caught:
            runner.run(specs)
        assert str(caught.value) == (
            "a pool worker died; 4 run(s) lost: FulltoPartial seed 0, "
            "FulltoPartial seed 1, FulltoPartial seed 2, "
            "FulltoPartial seed 3"
        )
        assert runner.summaries == []
        assert "Traceback" not in capfd.readouterr().err
