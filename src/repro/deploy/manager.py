"""The cluster manager daemon (§4.1).

The manager is responsible for VM creation, migration and shutdown, and
for switching hosts between power modes.  It exposes an RPC interface
(the bus endpoint named ``manager``), receives periodic statistics from
host agents, and at each planning interval searches for a placement
that powers more hosts down, issuing ``<vmid, migration type,
destination>`` orders followed by suspend orders and Wake-on-LAN.

The daemon's view of the cluster is an *inventory* it maintains from
agent acknowledgements and statistics reports — it never reads host
objects directly, so its decisions lag reality exactly the way a real
control plane's do.  Policy decisions are delegated to the same
:class:`repro.core.ClusterManager` logic the simulation uses, run
against the inventory's shadow cluster.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.cluster.host import Host
from repro.cluster.topology import Cluster
from repro.core.manager import ClusterManager
from repro.core.plan import ActivationAction, MigrationMode
from repro.core.policies import FULL_TO_PARTIAL, PolicySpec
from repro.deploy.agent import (
    ConvertInPlaceOrder,
    CreateVmOrder,
    ExchangeOrder,
    ReintegrationOrder,
    VmStateChangeNotice,
    agent_name,
    nic_name,
)
from repro.deploy.bus import MessageBus
from repro.deploy.messages import (
    Ack,
    CreateVmCall,
    MigrationOrder,
    MigrationType,
    Nack,
    StatsReport,
    SuspendOrder,
    WakeOnLan,
)
from repro.deploy.vmconfig import VmConfigFile
from repro.errors import ConfigError
from repro.simulator.engine import Simulator
from repro.vm.machine import VirtualMachine
from repro.vm.state import VmActivity
from repro.vm.workingset import WorkingSetSampler

MANAGER_NAME = "manager"


class _Inventory:
    """The manager's shadow model of the cluster, fed by messages."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.vms: Dict[int, VirtualMachine] = {}
        self.latest_stats: Dict[int, StatsReport] = {}

    def record_creation(self, vmid: int, host_id: int, memory_mib: float):
        vm = VirtualMachine(vmid, host_id, memory_mib)
        self.vms[vmid] = vm
        self.cluster.host(host_id).attach(vm)

    def vm(self, vmid: int) -> VirtualMachine:
        try:
            return self.vms[vmid]
        except KeyError:
            raise ConfigError(f"manager has no record of VM {vmid}")


class ClusterManagerDaemon:
    """The control-plane brain."""

    def __init__(
        self,
        sim: Simulator,
        bus: MessageBus,
        home_host_ids: List[int],
        consolidation_host_ids: List[int],
        host_capacity_mib: float,
        network_storage: Dict[str, VmConfigFile],
        policy: PolicySpec = FULL_TO_PARTIAL,
        planning_interval_s: float = 300.0,
        seed: int = 0,
    ) -> None:
        self.sim = sim
        self.bus = bus
        self.endpoint = bus.register(MANAGER_NAME, self._on_message)
        #: The NFS share holding VM configuration files (§4.1).
        self.network_storage = network_storage
        self.policy = policy
        self.planning_interval_s = planning_interval_s

        shadow = Cluster(
            home_hosts=len(home_host_ids),
            consolidation_hosts=len(consolidation_host_ids),
            host_capacity_mib=host_capacity_mib,
        )
        # The shadow's dense ids must match the real host ids.
        expected = home_host_ids + consolidation_host_ids
        if [host.host_id for host in shadow.hosts] != expected:
            raise ConfigError(
                "host ids must be dense, homes first; got "
                f"{expected}"
            )
        self.inventory = _Inventory(shadow)
        # Consolidation hosts sleep by default (§3.1).
        for host_id in consolidation_host_ids:
            shadow.host(host_id).start_asleep()
        self.decisions = ClusterManager(
            cluster=shadow,
            policy=policy,
            working_sets=WorkingSetSampler(),
            rng=random.Random(seed),
        )
        self.creations: List[int] = []
        self.orders_sent = 0
        #: (vmid, expected arrival host) -> host to credit when the
        #: agent acknowledges the migration; suspend orders go out only
        #: once a host's outstanding migrations have all completed
        #: ("Once the agent completes the migration tasks, the manager
        #: notifies the agent to suspend the host", §4.1).
        self._awaiting_ack: Dict[tuple, int] = {}
        self._pending_suspend: Dict[int, int] = {}
        self.sim.schedule(
            planning_interval_s, self._planning_tick, label="manager-plan"
        )

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------

    def _on_message(self, source, message) -> None:
        if isinstance(message, CreateVmCall):
            self._handle_create(source, message)
        elif isinstance(message, StatsReport):
            self.inventory.latest_stats[message.host_id] = message
        elif isinstance(message, VmStateChangeNotice):
            self._handle_state_change(message)
        elif isinstance(message, Ack):
            if message.request == "migrated":
                self._handle_migration_ack(message)
        elif isinstance(message, Nack):
            pass  # failures are visible on the bus log
        else:
            self.endpoint.send(
                source, Nack("unknown", f"unhandled message {message!r}")
            )

    # -- VM creation (§4.1) -------------------------------------------

    def _handle_create(self, source, call: CreateVmCall) -> None:
        config = self.network_storage.get(call.config_path)
        if config is None:
            self.endpoint.send(
                source, Nack("create", f"no such file {call.config_path!r}")
            )
            return
        host = self._pick_creation_host(config.memory_mib)
        if host is None:
            self.endpoint.send(
                source, Nack("create", "no host has sufficient resources")
            )
            return
        self.inventory.record_creation(
            config.vmid, host.host_id, config.memory_mib
        )
        self.creations.append(config.vmid)
        self.endpoint.send(agent_name(host.host_id), CreateVmOrder(config))
        self.endpoint.send(source, Ack("create", payload=config.vmid))

    def _pick_creation_host(self, memory_mib: float) -> Optional[Host]:
        """A powered compute host with room (most free memory first)."""
        candidates = [
            host
            for host in self.inventory.cluster.home_hosts
            if host.is_powered and host.can_fit(memory_mib)
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda host: host.free_mib)

    # -- activity changes (§3.2) -------------------------------------------

    def _handle_state_change(self, notice: VmStateChangeNotice) -> None:
        vm = self.inventory.vm(notice.vmid)
        vm.set_activity(
            VmActivity.ACTIVE if notice.active else VmActivity.IDLE
        )
        if not notice.active:
            return  # idle transitions are handled by periodic planning
        decision = self.decisions.decide_activation(vm)
        if decision.action is ActivationAction.ALREADY_FULL:
            return
        if decision.action is ActivationAction.CONVERT_IN_PLACE:
            host = self.inventory.cluster.host(vm.host_id)
            self.inventory.cluster.move(vm, host, host)
            self.endpoint.send(
                agent_name(host.host_id), ConvertInPlaceOrder(vm.vm_id)
            )
            self.orders_sent += 1
            return
        if decision.action is ActivationAction.MIGRATE_NEW_HOME:
            self._order_full_migration(vm, decision.target_host_id)
            return
        self._wake_home_and_return_all(vm.home_id)

    # -- periodic planning (§3.1) ----------------------------------------------

    def _planning_tick(self) -> None:
        # Advance idle streaks: a VM that stayed idle since the last
        # tick has been idle for one more planning interval (the
        # hysteresis input of §3.1's idleness monitor).
        for vm in self.inventory.vms.values():
            vm.set_activity(vm.activity)
        for exchange in self.decisions.plan_exchanges():
            self._execute_exchange(exchange)
        plan = self.decisions.plan_consolidation(compact_consolidation=False)
        for vacation in plan.vacations:
            self._execute_vacation(vacation)
        self.sim.schedule(
            self.planning_interval_s, self._planning_tick,
            label="manager-plan",
        )

    def _execute_vacation(self, vacation) -> None:
        cluster = self.inventory.cluster
        for migration in vacation.migrations:
            vm = self.inventory.vm(migration.vm_id)
            self._wake_if_sleeping(migration.destination_id)
            order = MigrationOrder(
                vmid=vm.vm_id,
                migration_type=(
                    MigrationType.PARTIAL
                    if migration.mode is MigrationMode.PARTIAL
                    else MigrationType.FULL
                ),
                destination=migration.destination_id,
                working_set_mib=migration.working_set_mib,
            )
            # Update the shadow optimistically; agent Nacks would be the
            # place to reconcile (not modeled: agents here are reliable).
            cluster.move(
                vm,
                cluster.host(migration.source_id),
                cluster.host(migration.destination_id),
                migration.working_set_mib,
            )
            self.endpoint.send(agent_name(migration.source_id), order)
            self.orders_sent += 1
            self._expect_ack(
                vm.vm_id, migration.destination_id, vacation.host_id
            )
        self._mark_for_suspend(
            vacation.host_id, len(vacation.migrations)
        )

    def _execute_exchange(self, exchange) -> None:
        """One ExchangeOrder covers both legs: the consolidation agent
        pushes the VM home in full; the home agent immediately sends it
        back as a partial replica and the home re-sleeps once the
        manager sees the final arrival ack."""
        cluster = self.inventory.cluster
        vm = self.inventory.vm(exchange.vm_id)
        home = cluster.host(exchange.origin_home_id)
        consolidation = cluster.host(exchange.consolidation_host_id)
        if not home.can_fit(vm.memory_mib):
            return
        self._wake_if_sleeping(exchange.origin_home_id)
        # Shadow: commit both legs.
        cluster.move(vm, consolidation, home)
        cluster.move(vm, home, consolidation, exchange.working_set_mib)
        self.endpoint.send(
            agent_name(exchange.consolidation_host_id),
            ExchangeOrder(
                vmid=exchange.vm_id,
                origin_home=exchange.origin_home_id,
                working_set_mib=exchange.working_set_mib,
            ),
        )
        self.orders_sent += 1
        self._expect_ack(
            exchange.vm_id, exchange.consolidation_host_id,
            exchange.origin_home_id,
        )
        self._mark_for_suspend(exchange.origin_home_id, 1)

    def _order_full_migration(self, vm: VirtualMachine, destination_id: int):
        cluster = self.inventory.cluster
        source = cluster.host(vm.host_id)
        self._wake_if_sleeping(destination_id)
        cluster.move(vm, source, cluster.host(destination_id))
        self.endpoint.send(
            agent_name(source.host_id),
            MigrationOrder(
                vmid=vm.vm_id,
                migration_type=MigrationType.FULL,
                destination=destination_id,
            ),
        )
        self.orders_sent += 1

    def _wake_home_and_return_all(self, home_id: int) -> None:
        cluster = self.inventory.cluster
        home = cluster.host(home_id)
        self._wake_if_sleeping(home_id)
        returning = sorted(home.served_image_ids)
        by_host: Dict[int, List[int]] = {}
        for vmid in returning:
            vm = self.inventory.vm(vmid)
            if not home.can_fit(vm.memory_mib):
                continue
            by_host.setdefault(vm.host_id, []).append(vmid)
            cluster.move(vm, cluster.host(vm.host_id), home)
        for host_id, vmids in by_host.items():
            self.endpoint.send(
                agent_name(host_id), ReintegrationOrder(tuple(vmids))
            )
            self.orders_sent += 1

    # -- power management -------------------------------------------------------

    def _wake_if_sleeping(self, host_id: int) -> None:
        host = self.inventory.cluster.host(host_id)
        if host.is_powered:
            return
        if host.is_sleeping:
            host.begin_resume()
            host.complete_resume()  # shadow book-keeping; timing is the
            # agents' concern — the real host resumes on the WoL below.
        self.endpoint.send(nic_name(host_id), WakeOnLan(host_id))

    # -- ack-driven suspension (§4.1) --------------------------------------

    def _expect_ack(self, vmid: int, arrival_host: int, credit_host: int):
        self._awaiting_ack[(vmid, arrival_host)] = credit_host

    def _mark_for_suspend(self, host_id: int, outstanding: int) -> None:
        self._pending_suspend[host_id] = (
            self._pending_suspend.get(host_id, 0) + outstanding
        )
        self._maybe_order_suspend(host_id)

    def _handle_migration_ack(self, ack: Ack) -> None:
        vmid, arrival_host = ack.payload
        credit = self._awaiting_ack.pop((vmid, arrival_host), None)
        if credit is None:
            return
        if credit in self._pending_suspend:
            self._pending_suspend[credit] -= 1
            self._maybe_order_suspend(credit)

    def _maybe_order_suspend(self, host_id: int) -> None:
        if self._pending_suspend.get(host_id, 1) > 0:
            return
        del self._pending_suspend[host_id]
        host = self.inventory.cluster.host(host_id)
        if host.vm_count == 0 and host.is_powered:
            host.begin_suspend()
            host.complete_suspend()
            self.endpoint.send(agent_name(host_id), SuspendOrder(host_id))
