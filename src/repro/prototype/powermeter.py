"""Table 1 reproduction: a power-meter harness over the hardware models.

The paper measured its custom host and memory server with a power meter;
our "meter" drives the host model through the same phases — fully idle,
running 20 VMs, suspending, sleeping, resuming — on the discrete-event
kernel, integrates energy with the farm's own meter
(:class:`~repro.energy.accounting.EnergyAccountant`, which the farm's
accounting ledger extends), and derives each phase's mean power from
measured energy over measured time.
This is circular with respect to the Table 1 *constants* (they are
inputs), but it validates end to end that the state machine, the event
scheduling, and the energy integration reproduce them exactly — the same
machinery the cluster simulation's results rest on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.cluster.host import Host, HostRole
from repro.energy.accounting import EnergyAccountant
from repro.energy.profile import HostPowerProfile, MemoryServerProfile
from repro.simulator.engine import Simulator
from repro.units import DEFAULT_VM_MEMORY_MIB
from repro.vm.machine import VirtualMachine
from repro.vm.state import VmActivity


@dataclass(frozen=True)
class PowerReading:
    """One Table 1 row."""

    device: str
    state: str
    time_s: float
    power_w: float

    def __str__(self) -> str:
        time = f"{self.time_s:.1f}" if self.time_s > 0.0 else "N/A"
        return f"{self.device:13s} {self.state:10s} {time:>5s} s {self.power_w:7.1f} W"


def _metered_phase(
    accountant: EnergyAccountant,
    sim: Simulator,
    entity: str,
    watts: float,
    duration_s: float,
) -> float:
    """Run one constant-power phase; return its measured mean power."""
    start = sim.now
    before = accountant.energy_joules(entity)
    accountant.set_power(entity, watts, start)
    sim.run_until(start + duration_s)
    accountant.set_power(entity, watts, sim.now)  # close the segment
    energy = accountant.energy_joules(entity) - before
    return energy / duration_s


def measure_energy_profiles(
    host_profile: HostPowerProfile = HostPowerProfile(),
    memory_server: MemoryServerProfile = MemoryServerProfile.prototype(),
    vms: int = 20,
    dwell_s: float = 60.0,
) -> List[PowerReading]:
    """Produce Table 1 by metering the hardware models phase by phase."""
    sim = Simulator()
    accountant = EnergyAccountant()
    host = Host(0, HostRole.COMPUTE, capacity_mib=vms * DEFAULT_VM_MEMORY_MIB)
    readings: List[PowerReading] = []

    # Fully idle host.
    idle_w = _metered_phase(
        accountant, sim, "host", host_profile.powered_watts(), dwell_s
    )
    readings.append(PowerReading("Custom host", "Idle", 0.0, idle_w))

    # Running VMs.
    for vm_id in range(vms):
        vm = VirtualMachine(vm_id, 0)
        vm.set_activity(VmActivity.ACTIVE)
        host.attach(vm)
    loaded_w = _metered_phase(
        accountant,
        sim,
        "host",
        host_profile.powered_watts(full_vms=host.full_vm_count),
        dwell_s,
    )
    readings.append(PowerReading("Custom host", f"{vms} VMs", 0.0, loaded_w))
    for vm_id in list(host.vm_ids):
        host.detach(vm_id)

    # Suspend transition.
    host.begin_suspend()
    suspend_w = _metered_phase(
        accountant, sim, "host", host_profile.suspend_w, host_profile.suspend_s
    )
    host.complete_suspend()
    readings.append(
        PowerReading(
            "Custom host", "Suspend", host_profile.suspend_s, suspend_w
        )
    )

    # S3 sleep.
    sleep_w = _metered_phase(
        accountant, sim, "host", host_profile.sleep_w, dwell_s
    )
    readings.append(PowerReading("Custom host", "Sleep (S3)", 0.0, sleep_w))

    # Resume transition.
    host.begin_resume()
    resume_w = _metered_phase(
        accountant, sim, "host", host_profile.resume_w, host_profile.resume_s
    )
    host.complete_resume()
    readings.append(
        PowerReading("Custom host", "Resume", host_profile.resume_s, resume_w)
    )

    # Memory server components.
    platform_w = _metered_phase(
        accountant, sim, "memserver", memory_server.platform_w, dwell_s
    )
    readings.append(PowerReading("Memory server", "Idle", 0.0, platform_w))
    drive_w = _metered_phase(
        accountant, sim, "sas-drive", memory_server.drive_w, dwell_s
    )
    readings.append(PowerReading("SAS drive", "Idle", 0.0, drive_w))

    return readings
