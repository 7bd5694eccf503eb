"""Post-run validation of a farm simulation.

A completed :class:`~repro.farm.simulation.FarmSimulation` must satisfy
a set of global invariants regardless of workload, policy, or
configuration.  :func:`validate_simulation` checks them all and raises
:class:`~repro.errors.SimulationError` with a precise message on the
first violation — used throughout the test suite (including the
property-based fuzzers) and available to users running custom
configurations.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.farm.simulation import FarmSimulation
from repro.units import INTERVALS_PER_DAY, SECONDS_PER_DAY

_HOST_STATES = ("powered", "sleeping", "suspending", "resuming")


def validate_simulation(simulation: FarmSimulation) -> None:
    """Check every post-run invariant; raise on the first violation."""
    if not simulation._finished:
        raise SimulationError("simulation has not run to completion")
    _check_vm_conservation(simulation)
    _check_memory_accounting(simulation)
    _check_served_images(simulation)
    _check_state_time(simulation)
    _check_energy_bounds(simulation)
    _check_metrics(simulation)


def _check_vm_conservation(simulation: FarmSimulation) -> None:
    placed = sorted(
        vm_id for host in simulation.cluster for vm_id in host.vm_ids
    )
    expected = sorted(simulation.vms)
    if placed != expected:
        missing = set(expected) - set(placed)
        duplicated = [vm_id for vm_id in placed if placed.count(vm_id) > 1]
        raise SimulationError(
            f"VM conservation violated: missing={sorted(missing)}, "
            f"duplicated={sorted(set(duplicated))}"
        )


def _check_memory_accounting(simulation: FarmSimulation) -> None:
    try:
        simulation.cluster.check_invariants()
    except AssertionError as error:
        raise SimulationError(f"memory accounting drifted: {error}")


def _check_served_images(simulation: FarmSimulation) -> None:
    partial_ids = {
        vm.vm_id for vm in simulation.vms.values() if vm.is_partial
    }
    served = set()
    for host in simulation.cluster:
        for vm_id in host.served_image_ids:
            if vm_id in served:
                raise SimulationError(f"VM {vm_id}'s image served twice")
            served.add(vm_id)
            vm = simulation.vms.get(vm_id)
            if vm is None or vm.home_id != host.host_id:
                raise SimulationError(
                    f"host {host.host_id} serves an image for VM {vm_id} "
                    f"that is not homed there"
                )
    if served != partial_ids:
        raise SimulationError(
            f"served images {sorted(served)} do not match partial VMs "
            f"{sorted(partial_ids)}"
        )


def _check_state_time(simulation: FarmSimulation) -> None:
    for host in simulation.cluster:
        total = sum(
            simulation.ledger.state_duration(host.host_id, state)
            for state in _HOST_STATES
        )
        if abs(total - SECONDS_PER_DAY) > 1.0:
            raise SimulationError(
                f"host {host.host_id}: state durations sum to {total:.1f} s, "
                f"expected {SECONDS_PER_DAY:.0f} s"
            )


def _check_energy_bounds(simulation: FarmSimulation) -> None:
    config = simulation.config
    profile = config.host_power
    host_count = config.home_hosts + config.consolidation_hosts
    floor = host_count * profile.sleep_w * SECONDS_PER_DAY
    ceiling_watts = (
        profile.powered_watts(full_vms=config.total_vms)
        + config.memory_server.total_w
        + profile.resume_w  # transition and wake-tax headroom
    )
    ceiling = host_count * ceiling_watts * SECONDS_PER_DAY
    measured = simulation.result.energy.managed_joules
    if not floor <= measured <= ceiling:
        raise SimulationError(
            f"managed energy {measured:.0f} J outside physical bounds "
            f"[{floor:.0f}, {ceiling:.0f}]"
        )


def _check_metrics(simulation: FarmSimulation) -> None:
    result = simulation.result
    if len(result.sample_times_s) != INTERVALS_PER_DAY:
        raise SimulationError(
            f"expected {INTERVALS_PER_DAY} metric samples, got "
            f"{len(result.sample_times_s)}"
        )
    if any(delay < 0.0 for delay in result.delays.delay_s):
        raise SimulationError("negative transition delay recorded")
    host_count = (
        simulation.config.home_hosts + simulation.config.consolidation_hosts
    )
    if any(
        not 0 <= count <= host_count for count in result.powered_hosts
    ):
        raise SimulationError("powered-host sample outside [0, hosts]")
