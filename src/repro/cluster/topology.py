"""Cluster topology: the rack of home and consolidation hosts (§5.1).

The evaluation simulates a standard 42U rack behind a top-of-rack
10 GigE switch: 30 hosts designated as homes (each assigned 30 VMs) and
a varied number of consolidation hosts.  Every host has the same
hardware; only the role differs, and only compute hosts ever power
their memory servers.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.cluster.host import Host, HostRole
from repro.cluster.power import PowerState
from repro.errors import ConfigError
from repro.vm.machine import VirtualMachine
from repro.vm.state import Residency


class Cluster:
    """A rack of identical hosts split into home and consolidation roles.

    Host ids are assigned densely: homes first (``0 .. home_hosts-1``),
    then consolidation hosts.
    """

    def __init__(
        self,
        home_hosts: int,
        consolidation_hosts: int,
        host_capacity_mib: float,
    ) -> None:
        if home_hosts <= 0:
            raise ConfigError("need at least one home host")
        if consolidation_hosts <= 0:
            raise ConfigError("need at least one consolidation host")
        self._hosts: Dict[int, Host] = {}
        next_id = 0
        for _ in range(home_hosts):
            self._hosts[next_id] = Host(
                next_id, HostRole.COMPUTE, host_capacity_mib,
                memory_server_enabled=True,
            )
            next_id += 1
        for _ in range(consolidation_hosts):
            self._hosts[next_id] = Host(
                next_id, HostRole.CONSOLIDATION, host_capacity_mib,
                memory_server_enabled=False,
            )
            next_id += 1
        self.home_host_count = home_hosts
        self.consolidation_host_count = consolidation_hosts
        # Role membership never changes after construction; cache the
        # per-role lists and keep powered counts current through each
        # host's power-state listener so the per-interval aggregate
        # queries are O(1) instead of O(hosts).
        self._home_hosts: List[Host] = [
            h for h in self._hosts.values() if h.role is HostRole.COMPUTE
        ]
        self._consolidation_hosts: List[Host] = [
            h for h in self._hosts.values()
            if h.role is HostRole.CONSOLIDATION
        ]
        self._powered_home = home_hosts
        self._powered_consolidation = consolidation_hosts
        for host in self._hosts.values():
            host.set_power_listener(self._on_power_edge)

    def _on_power_edge(self, host: Host, previous, state) -> None:
        """Host power-state listener: maintain the powered-count index."""
        was_powered = previous is PowerState.POWERED
        now_powered = host.is_powered
        if was_powered == now_powered:
            return
        delta = 1 if now_powered else -1
        if host.role is HostRole.COMPUTE:
            self._powered_home += delta
        else:
            self._powered_consolidation += delta

    # -- lookup -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._hosts)

    def __iter__(self) -> Iterator[Host]:
        return iter(self._hosts.values())

    def host(self, host_id: int) -> Host:
        try:
            return self._hosts[host_id]
        except KeyError:
            raise ConfigError(f"no host with id {host_id}")

    @property
    def hosts(self) -> List[Host]:
        return list(self._hosts.values())

    @property
    def home_hosts(self) -> List[Host]:
        return list(self._home_hosts)

    @property
    def consolidation_hosts(self) -> List[Host]:
        return list(self._consolidation_hosts)

    # -- aggregate queries ---------------------------------------------------

    def powered_host_count(self) -> int:
        """Hosts currently fully powered (Figure 7's y-axis)."""
        return self._powered_home + self._powered_consolidation

    def powered_home_count(self) -> int:
        return self._powered_home

    def powered_consolidation_count(self) -> int:
        return self._powered_consolidation

    def total_running_vms(self) -> int:
        return sum(host.vm_count for host in self._hosts.values())

    def verify_indexes(self) -> None:
        """Cross-check the powered-count index against a full rescan.

        Used by the debug mode (``REPRO_DEBUG_INDEXES``) and the index
        property battery; raises ``AssertionError`` on drift.
        """
        home = sum(
            1 for host in self._home_hosts if host.is_powered
        )
        consolidation = sum(
            1 for host in self._consolidation_hosts if host.is_powered
        )
        assert home == self._powered_home, (
            f"powered home index drifted: {self._powered_home} vs "
            f"rescanned {home}"
        )
        assert consolidation == self._powered_consolidation, (
            f"powered consolidation index drifted: "
            f"{self._powered_consolidation} vs rescanned {consolidation}"
        )

    def check_invariants(self) -> None:
        """Verify incremental memory accounting against recomputation.

        Called by tests after simulation steps; raises ``AssertionError``
        on drift.
        """
        for host in self._hosts.values():
            recomputed = host.recompute_used_mib()
            drift = abs(recomputed - host.used_mib)
            assert drift < 1e-6 * max(1.0, recomputed) + 1e-6, (
                f"host {host.host_id}: accounted {host.used_mib:.6f} MiB, "
                f"recomputed {recomputed:.6f} MiB"
            )
            full = sum(
                1 for vm in host.vms() if vm.residency is Residency.FULL
            )
            assert full == host.full_vm_count, (
                f"host {host.host_id}: accounted {host.full_vm_count} full "
                f"VMs, recomputed {full}"
            )
            fraction = sum(
                vm.resident_fraction
                for vm in host.vms()
                if vm.residency is Residency.PARTIAL
            )
            assert abs(fraction - host.partial_resident_fraction) < 1e-6, (
                f"host {host.host_id}: partial fraction drifted "
                f"({host.partial_resident_fraction:.9f} vs {fraction:.9f})"
            )

    # -- placement ---------------------------------------------------------

    def move(
        self,
        vm: VirtualMachine,
        source: Host,
        destination: Host,
        working_set_mib: Optional[float] = None,
    ) -> None:
        """Commit where one migration leaves ``vm``, which runs on ``source``.

        A working set lands the VM partial on ``destination``; ``None``
        lands it full.  The six residency transitions:

        * full -> full: a live migration; the destination becomes home;
        * full -> partial: the source (its home) serves the image;
        * partial -> partial: a relocation with the same working set;
        * partial -> home: reintegration; the home stops serving;
        * partial -> elsewhere: re-homing; the old home stops serving;
        * partial -> in place (``destination is source``): conversion;
          the old home stops serving.
        """
        vm_id = vm.vm_id
        if vm.residency is Residency.FULL:
            source.detach(vm_id)
            if working_set_mib is None:
                vm.full_migrate(destination.host_id)
            else:
                vm.become_partial(destination.host_id, working_set_mib)
                source.add_served_image(vm_id)
            destination.attach(vm)
            return
        if working_set_mib is not None:
            source.detach(vm_id)
            vm.relocate_partial(destination.host_id)
            destination.attach(vm)
            return
        old_home = self._hosts[vm.home_id]
        if destination is source:
            source.convert_vm_full_in_place(vm_id)
        else:
            # Onto its own home this is a reintegration: the home stays.
            source.detach(vm_id)
            vm.become_full_at(destination.host_id)
            destination.attach(vm)
        old_home.remove_served_image(vm_id)

    def __repr__(self) -> str:
        return (
            f"<Cluster {self.home_host_count}+{self.consolidation_host_count} "
            f"hosts, {self.total_running_vms()} VMs, "
            f"{self.powered_host_count()} powered>"
        )
