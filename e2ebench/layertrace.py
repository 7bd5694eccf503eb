"""Layer-boundary tracing, driven entirely from the benchmark's files.

The program under test is not edited: at start-up each layer's public
functions are resolved by dotted name (``module:Qualified.name``) and,
for the traced passes only, replaced by thin wrappers that record a
span (name, start, end, parent span, day id) around every call.

* A target that no longer resolves is reported as missing; the run goes
  on without it.  The planner is wrapped at ``ClusterManager`` rather
  than at the decision plane, so removing the plane seam changes nothing
  here.
* A module-level function is patched in every loaded ``repro`` module
  that holds it, so ``from x import f`` call sites are covered.
* Spans stay in memory and are written out when the run ends.  Each
  span's self time is its duration minus the time its child spans
  cover; it is accumulated as spans close, so it is exact even when
  the stored span list is capped.
* Forked worker processes inherit the wrappers but record nothing
  (``os.register_at_fork`` switches the recorder off in the child):
  cross-process numbers come from the runner's own records instead.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

perf = time.perf_counter

#: Spans kept for the written trace; aggregates are exact beyond this.
MAX_STORED_SPANS = 100_000

#: (span name, dotted target, kind).  ``count`` targets record a call
#: count and no span: they sit on the event loop's hottest path.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("traces.generate", "repro.traces.sampler:generate_ensemble", "span"),
    ("traces.edges_compile",
     "repro.traces.edges:ActivityEdgeSchedule.compile", "span"),
    ("core.plan_consolidation",
     "repro.core.manager:ClusterManager.plan_consolidation", "span"),
    ("core.plan_exchanges",
     "repro.core.manager:ClusterManager.plan_exchanges", "span"),
    ("core.decide_activation",
     "repro.core.manager:ClusterManager.decide_activation", "span"),
    ("core.reroute_activation",
     "repro.core.manager:ClusterManager.reroute_activation", "span"),
    ("policies.gamma_plan",
     "repro.policies.gamma:GammaRobustPlanner.plan", "span"),
    ("farm.init", "repro.farm.simulation:FarmSimulation.__init__", "span"),
    ("farm.run", "repro.farm.simulation:FarmSimulation.run", "span"),
    ("simulator.scheduled", "repro.simulator.engine:Simulator.schedule",
     "count"),
    ("simulator.scheduled", "repro.simulator.engine:Simulator.schedule_at",
     "count"),
) + tuple(
    ("planes.ledger", f"repro.farm.planes:FarmAccountingLedger.{method}",
     "span")
    for method in (
        "set_power", "add_energy", "set_state", "record_partial_migration",
        "record_on_demand", "finish", "total_joules", "energy_joules",
        "state_duration", "state_time_s", "state_energy_j",
    )
) + (
    ("migration.reserve",
     "repro.migration.scheduler:HostBusyScheduler.reserve", "span"),
    ("migration.reserve",
     "repro.migration.scheduler:HostBusyScheduler.reserve_one", "span"),
    ("runner.batch", "repro.farm.runner:SweepRunner.run", "span"),
    ("zones.partition", "repro.farm.zones:build_partition", "span"),
    ("zones.controller",
     "repro.farm.zones:GlobalController.check_admission", "span"),
    ("zones.controller",
     "repro.farm.zones:GlobalController.allocate_budget", "span"),
    ("zones.run", "repro.farm.zones:GlobalController.run", "span"),
    ("equiv.fingerprint",
     "repro.equiv.fingerprint:fingerprint_from_result", "span"),
    ("equiv.battery", "repro.equiv.battery:compare_fingerprints", "span"),
)

ROOT = "bench.day"


def layer_of(name: str) -> str:
    """``core.plan_exchanges`` -> ``core``."""
    return name.split(".", 1)[0]


class Recorder:
    """In-memory span store plus per-name aggregates."""

    def __init__(self) -> None:
        self.enabled = False
        self.day = -1
        #: Open spans: [child seconds, span id, name, stat, start].
        self.stack: List[List] = []
        self.spans: List[Tuple[int, str, int, int, float, float]] = []
        self.dropped = 0
        self._ids = itertools.count()
        #: name -> [calls, total s (outermost calls only), self s, depth].
        self.stats: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        #: Free-form counters fed by the post-call hooks.
        self.extra: Dict[str, float] = {}
        self._counting = False
        os.register_at_fork(after_in_child=self._disable_in_child)

    def _disable_in_child(self) -> None:
        self.enabled = False
        self.stack = []

    def bump(self, key: str, amount: float = 1.0) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + amount

    def stat(self, name: str) -> List:
        """The aggregate of one span name: [calls, total s, self s,
        open depth]."""
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0, 0]
        return entry

    def open(self, name: str, stat: Optional[List] = None) -> List:
        if stat is None:
            stat = self.stat(name)
        stat[3] += 1
        frame = [0.0, next(self._ids), name, stat, perf()]
        self.stack.append(frame)
        return frame

    def close(self, frame: List) -> None:
        end = perf()
        stack = self.stack
        stack.pop()
        child, span_id, name, stat, start = frame
        duration = end - start
        if stack:
            parent = stack[-1]
            parent[0] += duration
            parent_id = parent[1]
        else:
            parent_id = -1
        stat[0] += 1
        stat[3] -= 1
        # Total time counts outermost calls only, so a re-entrant layer
        # is not counted twice; self time is always exact.
        if not stat[3]:
            stat[1] += duration
        stat[2] += duration - child
        if len(self.spans) < MAX_STORED_SPANS:
            self.spans.append(
                (span_id, name, parent_id, self.day, start, end)
            )
        else:
            self.dropped += 1

    def root(self, day: int) -> "_RootSpan":
        return _RootSpan(self, day)

    def self_by_layer(self) -> Dict[str, float]:
        layers: Dict[str, float] = {}
        for name, entry in self.stats.items():
            layer = layer_of(name)
            layers[layer] = layers.get(layer, 0.0) + entry[2]
        return layers

    def write(self, path: str) -> None:
        """Write stored spans as JSON lines (times in microseconds from
        the first span's start)."""
        origin = min((span[4] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, parent, day, start, end in sorted(self.spans):
                handle.write(json.dumps({
                    "id": span_id, "name": name, "parent": parent,
                    "day": day,
                    "start_us": round((start - origin) * 1e6, 3),
                    "end_us": round((end - origin) * 1e6, 3),
                }, separators=(",", ":")) + "\n")


class _RootSpan:
    """The benchmark's own span around one timed day (or batch)."""

    def __init__(self, recorder: Recorder, day: int) -> None:
        self.recorder = recorder
        self.day = day
        self.frame: Optional[List] = None

    def __enter__(self) -> "_RootSpan":
        if self.recorder.enabled:
            self.recorder.day = self.day
            self.frame = self.recorder.open(ROOT)
        return self

    def __exit__(self, *_exc) -> None:
        if self.frame is not None:
            self.recorder.close(self.frame)


Hook = Callable[[Recorder, tuple, object], None]


def _users(recorder, _args, ensemble):
    recorder.bump("traces.users", len(ensemble))


def _edges(recorder, _args, schedule):
    recorder.bump("traces.edges", schedule.edge_count)


def _vacated(recorder, args, plan):
    # The planner only plans, so the cluster is as it was offered.
    offered = sum(
        1 for host in args[0].cluster if host.is_powered and host.vm_ids
    )
    recorder.bump("core.offered", offered)
    recorder.bump("core.vacated", len(plan.vacations))


def _events(recorder, args, _result):
    recorder.bump("simulator.events", args[0].sim.events_fired)


def _rejections(recorder, _args, report):
    recorder.bump("equiv.rejections", 0 if report.equivalent else 1)


#: Post-call hooks that count work where it happens, by target.
HOOKS: Dict[str, Hook] = {
    "repro.traces.sampler:generate_ensemble": _users,
    "repro.traces.edges:ActivityEdgeSchedule.compile": _edges,
    "repro.core.manager:ClusterManager.plan_consolidation": _vacated,
    "repro.farm.simulation:FarmSimulation.run": _events,
    "repro.equiv.battery:compare_fingerprints": _rejections,
}


def _span_wrapper(recorder: Recorder, name: str, fn: Callable,
                  post: Optional[Hook]) -> Callable:
    stat = recorder.stat(name)

    def traced(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        frame = recorder.open(name, stat)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(frame)
        if post is not None:
            try:
                post(recorder, args, result)
            except AttributeError:
                # The layer's return shape changed: keep timing it.
                recorder.bump("bench.hook_errors")
        return result
    return traced


def _count_wrapper(recorder: Recorder, name: str, fn: Callable) -> Callable:
    counts = recorder.counts

    def counted(*args, **kwargs):
        # Only the outermost call counts: ``schedule`` delegates to
        # ``schedule_at`` today, and may not tomorrow.
        if not recorder.enabled or recorder._counting:
            return fn(*args, **kwargs)
        counts[name] = counts.get(name, 0) + 1
        recorder._counting = True
        try:
            return fn(*args, **kwargs)
        finally:
            recorder._counting = False
    return counted


def _resolve(target: str):
    """``module:Qual.name`` -> (owner, attribute, raw attribute)."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attribute in vars(klass):
                return owner, attribute, vars(klass)[attribute]
        raise AttributeError(f"{qualname} not found")
    return owner, attribute, getattr(owner, attribute)


class LayerTracer:
    """Resolves every target once; installs/removes the wrappers."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self.missing: List[str] = []
        self._resolved = []
        self._patches: List[Tuple[object, str, object, bool]] = []
        for name, target, kind in TARGETS:
            try:
                owner, attribute, raw = _resolve(target)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            self._resolved.append((name, target, kind, owner, attribute, raw))

    def install(self) -> None:
        recorder = self.recorder
        for name, target, kind, owner, attribute, raw in self._resolved:
            is_class_attr = isinstance(owner, type)
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) \
                else raw
            if kind == "count":
                wrapped = _count_wrapper(recorder, name, fn)
            else:
                wrapped = _span_wrapper(
                    recorder, name, fn, HOOKS.get(target)
                )
            wrapped.__wrapped__ = fn
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            if is_class_attr:
                own = attribute in vars(owner)
                self._patches.append((owner, attribute, raw, own))
                setattr(owner, attribute, wrapped)
                continue
            for module_name, module in list(sys.modules.items()):
                if not module_name.startswith("repro") or module is None:
                    continue
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if value is raw:
                        self._patches.append((module, key, raw, True))
                        setattr(module, key, wrapped)
        recorder.enabled = True

    def uninstall(self) -> None:
        self.recorder.enabled = False
        for owner, attribute, raw, own in reversed(self._patches):
            if own:
                setattr(owner, attribute, raw)
            else:
                delattr(owner, attribute)
        self._patches = []
