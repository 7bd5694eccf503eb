"""A complete in-process deployment: manager, agents, bus, and a client.

Wires the §4 prototype together for protocol-level experiments and the
``examples/control_plane.py`` walk-through: real hosts owned by real
agents, a manager daemon that only sees messages, and a client facade
for creating VMs from configuration files on a (dict-backed) network
storage.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster.host import Host, HostRole
from repro.core.policies import FULL_TO_PARTIAL, PolicySpec
from repro.deploy.agent import HostAgent
from repro.deploy.bus import MessageBus
from repro.deploy.manager import MANAGER_NAME, ClusterManagerDaemon
from repro.deploy.messages import Ack, CreateVmCall, Nack
from repro.deploy.vmconfig import VmConfigFile
from repro.errors import ConfigError
from repro.migration.costs import MigrationCostModel
from repro.simulator.engine import Simulator
from repro.units import DEFAULT_VM_MEMORY_MIB


class Client:
    """A management client on the bus (the RPC caller of §4.1)."""

    def __init__(self, bus: MessageBus, name: str = "client") -> None:
        self.endpoint = bus.register(name, self._on_message)
        self.acks: List[Ack] = []
        self.nacks: List[Nack] = []

    def _on_message(self, source, message) -> None:
        if isinstance(message, Ack):
            self.acks.append(message)
        elif isinstance(message, Nack):
            self.nacks.append(message)

    def create_vm(self, config_path: str) -> None:
        """Issue a create call for a configuration file path (§4.1)."""
        self.endpoint.send(MANAGER_NAME, CreateVmCall(config_path))


class Deployment:
    """One rack's worth of prototype control plane."""

    def __init__(
        self,
        home_hosts: int = 2,
        consolidation_hosts: int = 1,
        host_capacity_mib: Optional[float] = None,
        policy: PolicySpec = FULL_TO_PARTIAL,
        planning_interval_s: float = 300.0,
        costs: Optional[MigrationCostModel] = None,
        vms_per_host_hint: int = 4,
        seed: int = 0,
    ) -> None:
        if home_hosts < 1 or consolidation_hosts < 1:
            raise ConfigError("a deployment needs hosts of both roles")
        capacity = (
            host_capacity_mib
            if host_capacity_mib is not None
            else vms_per_host_hint * DEFAULT_VM_MEMORY_MIB
        )
        self.sim = Simulator()
        self.bus = MessageBus(self.sim)
        self.costs = costs if costs is not None else MigrationCostModel()

        self.hosts: Dict[int, Host] = {}
        self.agents: Dict[int, HostAgent] = {}
        next_id = 0
        for _ in range(home_hosts):
            host = Host(next_id, HostRole.COMPUTE, capacity)
            self._add_host(host)
            next_id += 1
        consolidation_ids = []
        for _ in range(consolidation_hosts):
            host = Host(
                next_id, HostRole.CONSOLIDATION, capacity,
                memory_server_enabled=False,
            )
            self._add_host(host)
            # Consolidation hosts sleep by default (§3.1).
            host.begin_suspend()
            host.complete_suspend()
            consolidation_ids.append(next_id)
            next_id += 1

        #: The NFS share of §4.1 (path -> parsed configuration file).
        self.network_storage: Dict[str, VmConfigFile] = {}
        self.manager = ClusterManagerDaemon(
            sim=self.sim,
            bus=self.bus,
            home_host_ids=list(range(home_hosts)),
            consolidation_host_ids=consolidation_ids,
            host_capacity_mib=capacity,
            network_storage=self.network_storage,
            policy=policy,
            planning_interval_s=planning_interval_s,
            seed=seed,
        )
        self.client = Client(self.bus)

    def _add_host(self, host: Host) -> None:
        self.hosts[host.host_id] = host
        self.agents[host.host_id] = HostAgent(
            sim=self.sim, bus=self.bus, host=host,
            costs=self.costs,
        )

    # -- conveniences ------------------------------------------------------

    def publish_config(self, path: str, config: VmConfigFile) -> None:
        """Put a VM configuration file on the network storage."""
        self.network_storage[path] = config

    def create_vm(self, config: VmConfigFile, path: Optional[str] = None):
        """Publish a configuration and issue the create call."""
        path = path if path is not None else f"/nfs/vms/{config.vmid_str}.cfg"
        self.publish_config(path, config)
        self.client.create_vm(path)

    def set_vm_activity(self, vmid: int, active: bool) -> None:
        """Drive a VM's user activity at whichever host runs it."""
        for agent in self.agents.values():
            if agent.host.has_vm(vmid):
                agent.set_vm_activity(vmid, active)
                return
        raise ConfigError(f"no host currently runs VM {vmid}")

    def run_for(self, seconds: float) -> None:
        """Advance the whole deployment."""
        self.sim.advance(seconds)

    def find_vm_host(self, vmid: int) -> Optional[Host]:
        for host in self.hosts.values():
            if host.has_vm(vmid):
                return host
        return None

    def powered_hosts(self) -> List[int]:
        return [h.host_id for h in self.hosts.values() if h.is_powered]

    def check_consistency(self) -> None:
        """The manager's shadow must agree with ground truth about VM
        placement, residency and resident memory, and host power (used
        by tests; tolerant of messages still in flight only if the
        caller quiesced the bus first)."""
        for vmid, shadow_vm in self.manager.inventory.vms.items():
            real_host = self.find_vm_host(vmid)
            assert real_host is not None, f"VM {vmid} vanished"
            assert real_host.host_id == shadow_vm.host_id, (
                f"VM {vmid}: manager thinks host {shadow_vm.host_id}, "
                f"actually on {real_host.host_id}"
            )
            vm = real_host.get_vm(vmid)
            assert (vm.residency, vm.resident_mib) == (
                shadow_vm.residency, shadow_vm.resident_mib
            ), (
                f"VM {vmid}: manager thinks {shadow_vm.residency.value} "
                f"with {shadow_vm.resident_mib} MiB resident, actually "
                f"{vm.residency.value} with {vm.resident_mib} MiB"
            )
        for host_id, host in self.hosts.items():
            shadow = self.manager.inventory.cluster.host(host_id)
            assert host.is_powered == shadow.is_powered, (
                f"host {host_id}: manager thinks "
                f"{shadow.power_state.value}, actually {host.power_state.value}"
            )
