"""Per-host serialization of migration work.

Each host has a bottleneck resource per migration direction: the SAS
path to its memory server serializes partial-migration uploads out of a
home host, and the NIC serializes bulk image transfers.  Migrations
pipeline, so what serializes is each operation's *occupancy* of the
bottleneck (upload time, wire time), which is much shorter than its
end-to-end *latency* (which includes destination-side VM creation,
resume handshakes, and protocol round trips).

The scheduler therefore tracks two horizons per host:

* ``busy_until`` — when the bottleneck frees up; the next operation on
  this host starts then.  Queueing on this horizon is what produces
  resume-storm delays (the Figure 11 tail).
* ``release_after`` — when the last operation's full latency completes;
  a host must not power down before this.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Tuple

from repro.errors import SimulationError


class HostBusyScheduler:
    """Tracks per-host busy/release horizons and serializes operations."""

    def __init__(self) -> None:
        self._busy_until: Dict[Hashable, float] = {}
        self._release_after: Dict[Hashable, float] = {}

    def busy_until(self, host_id: Hashable) -> float:
        """Time at which ``host_id``'s bottleneck frees up (0 if idle)."""
        return self._busy_until.get(host_id, 0.0)

    def release_after(self, host_id: Hashable) -> float:
        """Time after which no operation involving ``host_id`` is still
        in flight (safe to power down)."""
        return max(
            self._release_after.get(host_id, 0.0),
            self._busy_until.get(host_id, 0.0),
        )

    def reserve(
        self,
        host_ids: Iterable[Hashable],
        now: float,
        latency_s: float,
        occupancy_s: Optional[float] = None,
        not_before: float = 0.0,
    ) -> Tuple[float, float]:
        """Queue an operation on all ``host_ids``; returns (start, end).

        The operation starts once every involved host's bottleneck is
        free — and no earlier than ``not_before`` (e.g. a VM still in
        flight from a previous migration).  It completes (``end``) after
        ``latency_s``; the hosts' bottlenecks are occupied for
        ``occupancy_s`` (defaults to the full latency).
        """
        if latency_s < 0.0:
            raise SimulationError(f"latency must be >= 0, got {latency_s}")
        if occupancy_s is None:
            occupancy_s = latency_s
        elif occupancy_s < 0.0:
            raise SimulationError(f"occupancy must be >= 0, got {occupancy_s}")
        busy = self._busy_until
        release = self._release_after
        ids = list(host_ids)
        start = now if now >= not_before else not_before
        for host_id in ids:
            horizon = busy.get(host_id, 0.0)
            if horizon > start:
                start = horizon
        end = start + latency_s
        busy_end = start + occupancy_s
        for host_id in ids:
            busy[host_id] = busy_end
            if end > release.get(host_id, 0.0):
                release[host_id] = end
        return start, end

    def reserve_one(
        self,
        host_id: Hashable,
        now: float,
        latency_s: float,
        occupancy_s: Optional[float] = None,
        not_before: float = 0.0,
    ) -> Tuple[float, float]:
        """:meth:`reserve` specialized to a single resource.

        Every simulation-engine reservation involves exactly one
        bottleneck resource; this path skips the list copy and the
        per-id loops.  Arithmetic and horizon updates are identical to
        ``reserve([host_id], ...)``.
        """
        if latency_s < 0.0:
            raise SimulationError(f"latency must be >= 0, got {latency_s}")
        if occupancy_s is None:
            occupancy_s = latency_s
        elif occupancy_s < 0.0:
            raise SimulationError(f"occupancy must be >= 0, got {occupancy_s}")
        busy = self._busy_until
        start = now if now >= not_before else not_before
        horizon = busy.get(host_id, 0.0)
        if horizon > start:
            start = horizon
        end = start + latency_s
        busy[host_id] = start + occupancy_s
        release = self._release_after
        if end > release.get(host_id, 0.0):
            release[host_id] = end
        return start, end

    def extend(self, host_id: Hashable, until: float) -> None:
        """Push a host's busy horizon to at least ``until`` (e.g. while it
        completes a power transition)."""
        if until > self._busy_until.get(host_id, 0.0):
            self._busy_until[host_id] = until

    def clear_before(self, time: float) -> None:
        """Drop horizons that already passed (bookkeeping hygiene)."""
        for horizons in (self._busy_until, self._release_after):
            expired = [
                host_id
                for host_id, horizon in horizons.items()
                if horizon <= time
            ]
            for host_id in expired:
                del horizons[host_id]
