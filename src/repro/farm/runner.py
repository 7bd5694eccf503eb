"""Parallel sweep execution: fan independent day-simulations out over
processes without giving up seeded determinism.

The evaluation sweeps (Figure 8, Figure 12, Table 3) are hundreds of
*independent* single-day simulations: nothing flows between runs except
the spec that defines each one.  This module turns that independence
into wall-clock speed:

* :class:`RunSpec` / :class:`RunOutcome` are small picklable records, so
  a run can be shipped to a worker process and its result shipped back;
* :class:`SweepRunner` executes a batch of specs on a pluggable backend
  (``serial`` in-process, or ``process`` over a
  :class:`~concurrent.futures.ProcessPoolExecutor`) and always returns
  outcomes **in spec order, not completion order** — the parallel output
  is indistinguishable from the serial output;
* a per-process trace-ensemble cache keyed by
  ``(total_vms, day_type, trace_seed, trace_config)`` stops sweeps that
  vary only the policy or the hardware model (Figure 8, Table 3) from
  regenerating identical 900-user ensembles for every single run;
* every batch is timed (:class:`SweepSummary`): per-run wall times,
  runs/second, per-worker run counts, and ensemble-cache hit counts,
  surfaced through an optional progress callback and the runner's
  ``summaries`` list.

Determinism: a :class:`FarmSimulation` is a pure function of
``(config, policy, ensemble, seed)``, and the ensemble is a pure
function of the cache key, so the backend and worker count can never
change a result — only how fast it arrives.  ``tests/test_farm_runner.py``
pins this serial-vs-process equivalence.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from statistics import mean
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.strategies import PolicyLike, resolve_strategy
from repro.errors import ConfigError, WorkerLostError
from repro.farm.config import FarmConfig
from repro.farm.metrics import FarmResult
from repro.farm.simulation import FarmSimulation, derive_trace_seed
from repro.traces.model import DayType
from repro.traces.sampler import TraceEnsemble, generate_ensemble

__all__ = [
    "RunSpec",
    "RunOutcome",
    "RunProgress",
    "SweepSummary",
    "SweepRunner",
    "execute_run",
    "ensemble_cache_stats",
    "clear_ensemble_cache",
]


# ----------------------------------------------------------------------
# task records
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """One independent day-simulation, fully described and picklable."""

    config: FarmConfig
    policy: PolicyLike
    day_type: DayType
    seed: int
    #: Free-form grouping tag (e.g. the sweep point the run belongs to).
    label: str = ""

    @property
    def policy_name(self) -> str:
        return resolve_strategy(self.policy).name

    @property
    def trace_seed(self) -> int:
        """The trace-draw seed; identical to :func:`simulate_day`'s."""
        return derive_trace_seed(self.seed)

    def ensemble_key(self) -> Tuple:
        """What the trace ensemble depends on — and nothing else."""
        return (
            self.config.total_vms,
            self.day_type.value,
            self.trace_seed,
            self.config.traces,
        )


@dataclass(frozen=True)
class RunOutcome:
    """A finished run: its result plus execution metadata."""

    spec: RunSpec
    result: FarmResult
    #: Host wall-clock duration of the simulation itself.
    wall_time_s: float
    #: Identifier of the worker process that executed the run.
    worker: str
    #: Whether the trace ensemble came from the per-process cache.
    ensemble_cached: bool
    #: ``(hits, misses)`` of the executing process's ensemble cache as
    #: of the end of this run.  Counters are reset at batch start in
    #: every pool worker, so within one batch a worker's totals count
    #: only that batch's runs.
    worker_cache_stats: Tuple[int, int] = (0, 0)


@dataclass(frozen=True)
class RunProgress:
    """Delivered to the progress callback after each completed run.

    ``completed`` counts completions, so with the process backend the
    callback observes completion order; the runner's *return value* is
    always in spec order regardless.
    """

    completed: int
    total: int
    outcome: RunOutcome


# ----------------------------------------------------------------------
# per-process trace-ensemble cache
# ----------------------------------------------------------------------

#: LRU cache of generated ensembles, one per worker process.  A 900-user
#: ensemble is ~100 KiB of tuples but costs ~a second to generate; the
#: sweeps reuse the same handful of (day type, seed) draws across dozens
#: of configurations, so a small cache removes almost all regeneration.
_ENSEMBLE_CACHE: "OrderedDict[Tuple, TraceEnsemble]" = OrderedDict()
_ENSEMBLE_CACHE_MAX = 16
_CACHE_HITS = 0
_CACHE_MISSES = 0


def ensemble_cache_stats() -> Tuple[int, int]:
    """``(hits, misses)`` of **this process's** ensemble cache.

    The cache is per-process state: calling this in the parent says
    nothing about pool workers.  Worker-side statistics travel back on
    :attr:`RunOutcome.worker_cache_stats`; they are reset at batch
    start in every worker (on Linux a forked worker would otherwise
    inherit — and keep reporting — the parent's historical counts).
    """
    return _CACHE_HITS, _CACHE_MISSES


def clear_ensemble_cache() -> None:
    """Empty **this process's** cache and reset its counters.

    Like :func:`ensemble_cache_stats` this only touches the calling
    process; live pool workers keep their caches.  The process backend
    builds a fresh pool per batch, so a parent-side clear takes effect
    on the next batch's workers (fork) or is moot (spawn).
    """
    global _CACHE_HITS, _CACHE_MISSES
    _ENSEMBLE_CACHE.clear()
    _CACHE_HITS = 0
    _CACHE_MISSES = 0


def _reset_cache_counters() -> None:
    """Pool-worker initializer: zero the *statistics* at batch start.

    Cached ensembles themselves are kept — a fork-inherited warm cache
    is genuine reuse worth counting as hits — but counts carried over
    from the parent's history would make cross-batch
    ``worker_cache_stats`` unintelligible.
    """
    global _CACHE_HITS, _CACHE_MISSES
    _CACHE_HITS = 0
    _CACHE_MISSES = 0


def _ensemble_for(spec: RunSpec) -> Tuple[TraceEnsemble, bool]:
    """The spec's trace ensemble, generated or cached; returns
    ``(ensemble, was_cached)``."""
    global _CACHE_HITS, _CACHE_MISSES
    key = spec.ensemble_key()
    cached = _ENSEMBLE_CACHE.get(key)
    if cached is not None:
        _ENSEMBLE_CACHE.move_to_end(key)
        _CACHE_HITS += 1
        return cached, True
    ensemble = generate_ensemble(
        spec.config.total_vms,
        spec.day_type,
        seed=spec.trace_seed,
        config=spec.config.traces,
    )
    _ENSEMBLE_CACHE[key] = ensemble
    while len(_ENSEMBLE_CACHE) > _ENSEMBLE_CACHE_MAX:
        _ENSEMBLE_CACHE.popitem(last=False)
    _CACHE_MISSES += 1
    return ensemble, False


def execute_run(spec: RunSpec) -> RunOutcome:
    """Execute one spec in the current process.

    Behaviourally identical to
    :func:`repro.farm.simulation.simulate_day` — same trace seed
    derivation, same simulation — plus ensemble caching and timing.
    """
    started = time.perf_counter()  # repro: noqa[DET103] -- instrumentation
    ensemble, was_cached = _ensemble_for(spec)
    result = FarmSimulation(
        spec.config, spec.policy, ensemble, seed=spec.seed
    ).run()
    elapsed = time.perf_counter() - started  # repro: noqa[DET103]
    return RunOutcome(
        spec=spec,
        result=result,
        wall_time_s=elapsed,
        worker=f"pid-{os.getpid()}",
        ensemble_cached=was_cached,
        worker_cache_stats=ensemble_cache_stats(),
    )


def _execute_indexed(item: Tuple[int, RunSpec]) -> Tuple[int, RunOutcome]:
    """Worker entry point: carry the spec index across the pool."""
    index, spec = item
    return index, execute_run(spec)


# ----------------------------------------------------------------------
# instrumentation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSummary:
    """Timing and utilization of one executed batch of specs."""

    backend: str
    workers: int
    runs: int
    #: Whole-batch wall time, including pool startup and result transfer.
    wall_time_s: float
    #: Sum / mean / max of the per-run simulation wall times.
    run_wall_total_s: float
    run_wall_mean_s: float
    run_wall_max_s: float
    #: Completed runs per second of batch wall time.
    throughput_runs_per_s: float
    #: Runs executed by each worker, sorted by worker id.
    worker_runs: Tuple[Tuple[str, int], ...]
    #: How many runs reused a cached trace ensemble.
    ensemble_cache_hits: int

    @property
    def worker_utilization(self) -> float:
        """Fraction of worker-seconds spent inside simulations."""
        available = self.wall_time_s * max(self.workers, 1)
        if available <= 0.0:
            return 0.0
        return min(1.0, self.run_wall_total_s / available)

    def __str__(self) -> str:
        workers = ", ".join(
            f"{worker}:{count}" for worker, count in self.worker_runs
        )
        return (
            f"{self.backend} backend x{self.workers}: {self.runs} runs in "
            f"{self.wall_time_s:.2f} s ({self.throughput_runs_per_s:.2f} "
            f"runs/s, utilization {self.worker_utilization:.0%}); per-run "
            f"wall mean {self.run_wall_mean_s:.2f} s max "
            f"{self.run_wall_max_s:.2f} s; ensemble cache "
            f"{self.ensemble_cache_hits}/{self.runs} hits; "
            f"workers [{workers}]"
        )


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------

ProgressCallback = Callable[[RunProgress], None]

_BACKENDS = ("serial", "process")


class SweepRunner:
    """Executes batches of :class:`RunSpec` on a pluggable backend.

    Parameters
    ----------
    backend:
        ``"serial"`` runs in-process; ``"process"`` fans out over a
        :class:`~concurrent.futures.ProcessPoolExecutor`.
    workers:
        Worker-process count for the process backend (defaults to the
        machine's CPU count).  Ignored by the serial backend.
    progress:
        Optional callback invoked once per completed run with a
        :class:`RunProgress` (completion order; see there).
    """

    def __init__(
        self,
        backend: str = "serial",
        workers: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        if backend not in _BACKENDS:
            raise ConfigError(
                f"unknown backend {backend!r}; choose from {_BACKENDS}"
            )
        if workers is None:
            workers = os.cpu_count() or 1 if backend == "process" else 1
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.backend = backend
        self.workers = workers if backend == "process" else 1
        self.progress = progress
        self.summaries: List[SweepSummary] = []
        self._progress_error: Optional[BaseException] = None

    @property
    def last_summary(self) -> Optional[SweepSummary]:
        return self.summaries[-1] if self.summaries else None

    def run(self, specs: Sequence[RunSpec]) -> List[RunOutcome]:
        """Execute every spec; outcomes are returned in spec order.

        A ``progress`` callback that raises cannot strand the pool or
        misorder results: the first exception is captured, further
        callback invocations are suppressed, the batch runs to
        completion (summary included), and the exception is re-raised
        here afterwards.
        """
        specs = list(specs)
        self._progress_error = None
        started = time.perf_counter()  # repro: noqa[DET103]
        if self.backend == "process" and len(specs) > 1:
            outcomes = self._run_process(specs)
        else:
            outcomes = self._run_serial(specs)
        elapsed = time.perf_counter() - started  # repro: noqa[DET103]
        self.summaries.append(self._summarize(outcomes, elapsed))
        if self._progress_error is not None:
            error, self._progress_error = self._progress_error, None
            raise error
        return outcomes

    def run_results(self, specs: Sequence[RunSpec]) -> List[FarmResult]:
        """Like :meth:`run`, keeping only the simulation results."""
        return [outcome.result for outcome in self.run(specs)]

    # -- backends ------------------------------------------------------

    def _run_serial(self, specs: List[RunSpec]) -> List[RunOutcome]:
        outcomes: List[RunOutcome] = []
        for spec in specs:
            outcome = execute_run(spec)
            outcomes.append(outcome)
            self._report(len(outcomes), len(specs), outcome)
        return outcomes

    def _run_process(self, specs: List[RunSpec]) -> List[RunOutcome]:
        outcomes: List[Optional[RunOutcome]] = [None] * len(specs)
        completed = 0
        try:
            with ProcessPoolExecutor(
                max_workers=self.workers, initializer=_reset_cache_counters
            ) as pool:
                futures = [
                    pool.submit(_execute_indexed, (index, spec))
                    for index, spec in enumerate(specs)
                ]
                for future in as_completed(futures):
                    index, outcome = future.result()
                    outcomes[index] = outcome
                    completed += 1
                    self._report(completed, len(specs), outcome)
        except BrokenProcessPool:
            lost = [
                spec.label or f"{spec.policy_name} seed {spec.seed}"
                for spec, outcome in zip(specs, outcomes)
                if outcome is None
            ]
            raise WorkerLostError(
                f"a pool worker died; {len(lost)} run(s) lost: "
                + ", ".join(lost)
            ) from None
        # as_completed drained every future, so the list is fully filled.
        return [outcome for outcome in outcomes if outcome is not None]

    def _report(self, completed: int, total: int, outcome: RunOutcome) -> None:
        if self.progress is None or self._progress_error is not None:
            return
        try:
            self.progress(RunProgress(completed, total, outcome))
        except Exception as error:
            # Deferred to the end of run(): a broken observer must not
            # abandon in-flight futures or truncate the result list.
            self._progress_error = error

    # -- instrumentation -----------------------------------------------

    def _summarize(
        self, outcomes: List[RunOutcome], wall_time_s: float
    ) -> SweepSummary:
        walls = [outcome.wall_time_s for outcome in outcomes]
        per_worker: Dict[str, int] = {}
        for outcome in outcomes:
            per_worker[outcome.worker] = per_worker.get(outcome.worker, 0) + 1
        return SweepSummary(
            backend=self.backend,
            workers=self.workers,
            runs=len(outcomes),
            wall_time_s=wall_time_s,
            run_wall_total_s=sum(walls),
            run_wall_mean_s=mean(walls) if walls else 0.0,
            run_wall_max_s=max(walls) if walls else 0.0,
            throughput_runs_per_s=(
                len(outcomes) / wall_time_s if wall_time_s > 0.0 else 0.0
            ),
            worker_runs=tuple(sorted(per_worker.items())),
            ensemble_cache_hits=sum(
                1 for outcome in outcomes if outcome.ensemble_cached
            ),
        )
