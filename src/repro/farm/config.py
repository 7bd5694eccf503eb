"""Configuration of one simulated VDI farm (§5.1).

Defaults reproduce the paper's standard setup: a 42U rack with 30 home
hosts of 30 VMs each (900 VMs total), four consolidation hosts (the knee
of Figure 8), 4 GiB per VM, Table 1 power profiles, and the §5.1
migration constants.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional

from repro.core.placement import DestinationStrategy
from repro.energy.profile import HostPowerProfile, MemoryServerProfile
from repro.errors import ConfigError
from repro.faults.profile import FaultProfile
from repro.migration.costs import MigrationCostModel
from repro.traces.generator import TraceGeneratorConfig
from repro.units import DEFAULT_VM_MEMORY_MIB, TRACE_INTERVAL_SECONDS
from repro.vm.workingset import WorkingSetSampler


@dataclass(frozen=True)
class FarmConfig:
    """Everything that defines one farm simulation besides policy/traces."""

    # -- cluster shape ---------------------------------------------------
    home_hosts: int = 30
    consolidation_hosts: int = 4
    vms_per_host: int = 30
    vm_memory_mib: float = DEFAULT_VM_MEMORY_MIB
    #: Host memory available to VMs; defaults to exactly the home-host
    #: complement (``vms_per_host * vm_memory_mib``), mirroring the
    #: paper's memory-limited consolidation assumption and its Figure 12
    #: sweep, where per-host capacity scales with VMs per host.
    host_capacity_mib: Optional[float] = None
    #: Memory over-commitment factor from ballooning and page
    #: de-duplication.  The paper's assumption 1 quotes 1.5x as what
    #: "sophisticated memory sharing techniques" achieve; the default
    #: 1.0 matches the paper's conservative simulation.  Applied as a
    #: multiplier on every host's effective VM capacity.
    memory_overcommit: float = 1.0

    # -- hardware models ----------------------------------------------------
    host_power: HostPowerProfile = field(default_factory=HostPowerProfile)
    memory_server: MemoryServerProfile = field(
        default_factory=MemoryServerProfile.prototype
    )
    costs: MigrationCostModel = field(default_factory=MigrationCostModel)
    working_sets: WorkingSetSampler = field(default_factory=WorkingSetSampler)

    # -- manager behaviour ----------------------------------------------------
    #: Consecutive idle intervals before a VM is eligible for partial
    #: consolidation (hysteresis; the paper consolidates at the first
    #: idle planning interval).
    min_idle_intervals: int = 1
    #: Seconds between planning passes; must be a multiple of the
    #: 5-minute trace interval.
    planning_interval_s: float = TRACE_INTERVAL_SECONDS
    placement_strategy: DestinationStrategy = DestinationStrategy.RANDOM
    #: Let the planner also empty lightly-loaded powered consolidation
    #: hosts into their peers so they can sleep (the §3.1 objective is
    #: minimizing *all* powered hosts; relocating a partial VM between
    #: consolidation hosts only moves its descriptor and working set).
    compact_consolidation_hosts: bool = True
    #: Idle working-set growth while consolidated, MiB per hour (0
    #: disables the §3.2 growth-exhaustion path).
    working_set_growth_mib_per_h: float = 0.0

    # -- memory-server presence (§3.3 ablation) ---------------------------
    #: With the low-power memory server removed (the Jettison design),
    #: a sleeping home host must wake up to serve every page-request
    #: burst from its consolidated partial VMs — §2 shows this destroys
    #: sleep once several VMs share a home.  Disable to quantify what
    #: the memory server is worth at cluster scale.
    memory_server_present: bool = True
    #: Mean gap between page-request bursts per consolidated partial VM
    #: (seconds); only used when the memory server is absent.  Partial
    #: VMs hold their working sets, so this is sparser than Figure 2's
    #: raw request streams.
    idle_page_request_gap_s: float = 120.0

    # -- fault injection ---------------------------------------------------
    #: Per-exposure failure rates for migrations, host wakes, memory
    #: servers, and page fetches.  The default null profile injects
    #: nothing and reproduces fault-free runs byte-for-byte.
    faults: FaultProfile = field(default_factory=FaultProfile.none)

    # -- trace model ---------------------------------------------------------
    traces: TraceGeneratorConfig = field(default_factory=TraceGeneratorConfig)
    #: Activation instants are jittered uniformly within the 5-minute
    #: interval in which the trace marks the user active.
    activation_jitter_s: float = TRACE_INTERVAL_SECONDS

    def __post_init__(self) -> None:
        if self.home_hosts <= 0 or self.consolidation_hosts <= 0:
            raise ConfigError("host counts must be positive")
        if self.vms_per_host <= 0:
            raise ConfigError("vms_per_host must be positive")
        # Each float check is written so that NaN and inf fail it.
        if not 0.0 < self.vm_memory_mib < math.inf:
            raise ConfigError("vm_memory_mib must be positive and finite")
        if self.host_capacity_mib is not None and not (
            0.0 < self.host_capacity_mib < math.inf
        ):
            raise ConfigError("host_capacity_mib must be positive and finite")
        if self.min_idle_intervals < 1:
            raise ConfigError("min_idle_intervals must be >= 1")
        remainder = self.planning_interval_s % TRACE_INTERVAL_SECONDS
        if not 0.0 < self.planning_interval_s < math.inf or abs(remainder) > 1e-9:
            raise ConfigError(
                "planning_interval_s must be a positive finite multiple of "
                f"{TRACE_INTERVAL_SECONDS:.0f} s"
            )
        if not 0.0 < self.activation_jitter_s <= TRACE_INTERVAL_SECONDS:
            raise ConfigError(
                "activation_jitter_s must be in (0, "
                f"{TRACE_INTERVAL_SECONDS:.0f}]"
            )
        if not 0.0 <= self.working_set_growth_mib_per_h < math.inf:
            raise ConfigError("working-set growth must be non-negative and finite")
        if not 0.0 < self.idle_page_request_gap_s < math.inf:
            raise ConfigError(
                "idle_page_request_gap_s must be positive and finite"
            )
        if not 1.0 <= self.memory_overcommit <= 2.0:
            raise ConfigError(
                "memory_overcommit must be in [1.0, 2.0] (the paper "
                "quotes 1.5x as the safe ceiling)"
            )

    # -- derived quantities ------------------------------------------------

    @property
    def total_vms(self) -> int:
        return self.home_hosts * self.vms_per_host

    @property
    def capacity_mib(self) -> float:
        """Effective per-host capacity (explicit or derived), scaled by
        the over-commitment factor."""
        if self.host_capacity_mib is not None:
            return self.host_capacity_mib * self.memory_overcommit
        return self.vms_per_host * self.vm_memory_mib * self.memory_overcommit

    def with_overrides(self, **changes) -> "FarmConfig":
        """A copy with the given fields replaced (sweep helper)."""
        return dataclasses.replace(self, **changes)
