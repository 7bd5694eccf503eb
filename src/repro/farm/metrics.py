"""Metrics collected by a farm run — one field per evaluation figure.

* Figure 7 — per-interval active-VM and powered-host time series;
* Figure 8 / 12 / Table 3 — the energy report;
* Figure 9 — per-interval per-consolidation-host VM counts;
* Figure 10 — the traffic ledger;
* Figure 11 — idle-to-active transition delay samples.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence

from repro.energy.report import EnergyReport
from repro.errors import ConfigError
from repro.faults.model import FaultCounters
from repro.migration.traffic import TrafficLedger


@dataclass(frozen=True)
class DelaySample:
    """One idle-to-active transition and the delay the user saw (§5.5)."""

    time_s: float
    vm_id: int
    delay_s: float
    #: How the transition was handled (ActivationAction value).
    action: str


class DelayLog:
    """Figure 11's population: every idle-to-active transition of a run,
    stored as four columns rather than one :class:`DelaySample` per row.

    A zoned 20k-VM day records about 470k transitions.  As flat columns
    a shard's log pickles as buffers (about 26 B per sample, against
    41 B for row objects) and shards merge with one :meth:`extend`
    each, so the parent never holds one object per transition.
    Iteration builds :class:`DelaySample` rows on demand.
    """

    __slots__ = ("time_s", "vm_id", "delay_s", "action")

    def __init__(self) -> None:
        self.time_s = array("d")
        self.vm_id = array("q")
        self.delay_s = array("d")
        #: ActivationAction value per sample.
        self.action: List[str] = []

    def record(
        self, time_s: float, vm_id: int, delay_s: float, action: str
    ) -> None:
        self.time_s.append(time_s)
        self.vm_id.append(vm_id)
        self.delay_s.append(delay_s)
        self.action.append(action)

    def extend(self, other: DelayLog, vm_ids: Sequence[int]) -> None:
        """Append ``other``'s samples, renaming its VM ``i`` to
        ``vm_ids[i]`` (a zone's local-to-global id table)."""
        self.time_s.extend(other.time_s)
        self.vm_id.extend(map(vm_ids.__getitem__, other.vm_id))
        self.delay_s.extend(other.delay_s)
        self.action.extend(other.action)

    def __len__(self) -> int:
        return len(self.time_s)

    def __iter__(self) -> Iterator[DelaySample]:
        return map(
            DelaySample, self.time_s, self.vm_id, self.delay_s, self.action
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DelayLog):
            return NotImplemented
        return (
            self.time_s == other.time_s
            and self.vm_id == other.vm_id
            and self.delay_s == other.delay_s
            and self.action == other.action
        )


@dataclass
class MigrationCounters:
    """How many operations of each kind the day required."""

    partial_migrations: int = 0
    partial_relocations: int = 0
    full_migrations: int = 0
    reintegrations: int = 0
    conversions_in_place: int = 0
    rehomings: int = 0
    exchanges: int = 0
    home_wakeups: int = 0
    consolidation_wakeups: int = 0
    suspends: int = 0
    #: Expected suspend/resume cycles spent serving page requests when
    #: the memory server is absent (the §3.3 ablation); fractional
    #: because it accumulates analytical expectations per interval.
    page_request_wake_cycles: float = 0.0


@dataclass
class FarmResult:
    """Everything measured over one simulated day."""

    policy_name: str
    day_type: str
    seed: int
    horizon_s: float

    #: Mid-interval samples, one per 5-minute interval.
    sample_times_s: List[float] = field(default_factory=list)
    active_vms: List[int] = field(default_factory=list)
    powered_hosts: List[int] = field(default_factory=list)
    powered_home_hosts: List[int] = field(default_factory=list)
    powered_consolidation_hosts: List[int] = field(default_factory=list)

    #: VMs per powered, occupied consolidation host, one sample per host
    #: per interval (Figure 9's CDF population).
    consolidation_ratio_samples: List[int] = field(default_factory=list)

    delays: DelayLog = field(default_factory=DelayLog)
    traffic: TrafficLedger = field(default_factory=TrafficLedger)
    counters: MigrationCounters = field(default_factory=MigrationCounters)
    #: Injected faults and their recovery costs; all-zero on a run with
    #: the null fault profile.
    faults: FaultCounters = field(default_factory=FaultCounters)

    energy: EnergyReport = None  # type: ignore[assignment]
    #: Seconds each home host spent asleep, keyed by host id.
    home_sleep_s: Dict[int, float] = field(default_factory=dict)
    #: Seconds per power state summed over all hosts (ledger read-back;
    #: feeds the repro.equiv run fingerprint).
    state_time_s: Dict[str, float] = field(default_factory=dict)
    #: Joules per power state, plus the "surcharge" lump bucket; sums to
    #: ``energy.managed_joules`` up to float reassociation.
    state_energy_j: Dict[str, float] = field(default_factory=dict)

    # -- derived metrics ------------------------------------------------

    @property
    def savings_fraction(self) -> float:
        if self.energy is None:
            raise ConfigError("run has no energy report yet")
        return self.energy.savings_fraction

    @property
    def peak_active_vms(self) -> int:
        return max(self.active_vms) if self.active_vms else 0

    @property
    def min_powered_hosts(self) -> int:
        return min(self.powered_hosts) if self.powered_hosts else 0

    def mean_home_sleep_fraction(self) -> float:
        """Average fraction of the day home hosts spent asleep."""
        if not self.home_sleep_s:
            return 0.0
        total = sum(self.home_sleep_s.values())
        return total / (len(self.home_sleep_s) * self.horizon_s)

    def zero_delay_fraction(self) -> float:
        """Fraction of idle-to-active transitions with no delay (§5.5)."""
        delays = self.delays.delay_s
        if not delays:
            return 1.0
        zero = sum(1 for delay in delays if delay <= 1e-9)
        return zero / len(delays)

    def delay_values(self) -> List[float]:
        return self.delays.delay_s.tolist()

    def __repr__(self) -> str:
        savings = (
            f"{self.energy.savings_fraction:.1%}" if self.energy else "n/a"
        )
        return (
            f"<FarmResult {self.policy_name}/{self.day_type} seed={self.seed} "
            f"savings={savings} peak_active={self.peak_active_vms} "
            f"sleep={self.mean_home_sleep_fraction():.1%}>"
        )
