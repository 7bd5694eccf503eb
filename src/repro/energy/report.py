"""Energy reports and the paper's savings normalization.

The paper normalizes savings "over the energy consumed by the home hosts
if left powered for the duration of the simulation" (§5.3) — i.e. the
counterfactual in which every home host stays fully powered all day with
its full complement of VMs resident.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy.profile import HostPowerProfile
from repro.errors import ConfigError
from repro.units import joules_to_wh


def baseline_energy_joules(
    profile: HostPowerProfile,
    home_hosts: int,
    vms_per_host: int,
    duration_s: float,
) -> float:
    """Energy of the no-consolidation counterfactual.

    Every home host stays powered for ``duration_s`` with ``vms_per_host``
    fully-resident VMs.
    """
    if home_hosts <= 0 or vms_per_host < 0 or duration_s <= 0.0:
        raise ConfigError("baseline needs positive hosts and duration")
    watts = profile.powered_watts(full_vms=vms_per_host)
    return home_hosts * watts * duration_s


@dataclass(frozen=True)
class EnergyReport:
    """Measured energy of one simulated day, with the savings metric."""

    #: Energy of the Oasis-managed cluster (home + consolidation hosts,
    #: memory servers, and power-state transitions), joules.
    managed_joules: float
    #: Energy of the always-powered home-host counterfactual, joules.
    baseline_joules: float
    #: Injected faults the run absorbed (aborts, failed wakes, crashes,
    #: timeouts); zero on a fault-free run.
    fault_events: int = 0
    #: Retries performed in response to those faults.
    fault_retries: int = 0
    #: Operations rolled back in response to those faults.
    fault_rollbacks: int = 0

    def __post_init__(self) -> None:
        if self.baseline_joules <= 0.0:
            raise ConfigError("baseline energy must be positive")
        if self.managed_joules < 0.0:
            raise ConfigError("managed energy must be non-negative")
        for name in ("fault_events", "fault_retries", "fault_rollbacks"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")

    @property
    def savings_fraction(self) -> float:
        """The paper's headline metric: 1 - managed / baseline."""
        return 1.0 - self.managed_joules / self.baseline_joules

    @property
    def managed_wh(self) -> float:
        return joules_to_wh(self.managed_joules)

    @property
    def baseline_wh(self) -> float:
        return joules_to_wh(self.baseline_joules)

    def __str__(self) -> str:
        text = (
            f"managed={self.managed_wh:.0f} Wh "
            f"baseline={self.baseline_wh:.0f} Wh "
            f"savings={self.savings_fraction:.1%}"
        )
        if self.fault_events:
            text += (
                f" faults={self.fault_events}"
                f" retries={self.fault_retries}"
                f" rollbacks={self.fault_rollbacks}"
            )
        return text
