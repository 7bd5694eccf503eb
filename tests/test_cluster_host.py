"""Host memory accounting, served images, and the power-state machine."""

import itertools

import pytest

from repro.cluster import Host, HostRole, PowerState
from repro.cluster import host as host_module
from repro.cluster.power import _LEGAL_TRANSITIONS, check_transition
from repro.errors import CapacityError, MigrationError, PowerStateError
from repro.vm import VirtualMachine


def make_host(capacity_mib=12_288.0, role=HostRole.COMPUTE):
    return Host(0, role, capacity_mib)


def make_vm(vm_id=1, home=0, memory=4096.0):
    return VirtualMachine(vm_id, home, memory)


#: Legal edges that bring a fresh (powered) host to each state.
_PATH_TO = {
    PowerState.POWERED: (),
    PowerState.SUSPENDING: ("begin_suspend",),
    PowerState.SLEEPING: ("begin_suspend", "complete_suspend"),
    PowerState.RESUMING: ("begin_suspend", "complete_suspend", "begin_resume"),
}


def host_in(state):
    """A fresh host brought to ``state`` by legal transitions."""
    host = make_host()
    for step in _PATH_TO[state]:
        getattr(host, step)()
    assert host.power_state is state
    return host


def listen(host):
    """Attach a listener recording every power edge it is told about."""
    calls = []
    host.set_power_listener(lambda *edge: calls.append(edge))
    return calls


class TestPowerStateMachine:
    def test_legal_cycle(self):
        for current, target in [
            (PowerState.POWERED, PowerState.SUSPENDING),
            (PowerState.SUSPENDING, PowerState.SLEEPING),
            (PowerState.SLEEPING, PowerState.RESUMING),
            (PowerState.RESUMING, PowerState.POWERED),
        ]:
            check_transition(current, target)  # must not raise

    def test_illegal_transitions(self):
        with pytest.raises(PowerStateError):
            check_transition(PowerState.POWERED, PowerState.SLEEPING)
        with pytest.raises(PowerStateError):
            check_transition(PowerState.SLEEPING, PowerState.POWERED)
        with pytest.raises(PowerStateError):
            check_transition(PowerState.SUSPENDING, PowerState.RESUMING)

    def test_transitional_flags(self):
        assert PowerState.SUSPENDING.is_transitional
        assert PowerState.RESUMING.is_transitional
        assert not PowerState.POWERED.is_transitional
        assert PowerState.POWERED.can_run_vms
        assert not PowerState.SLEEPING.can_run_vms


class TestPowerStateSetter:
    """The ``power_state`` setter is the one checked transition."""

    @pytest.mark.parametrize(
        "current, target",
        list(itertools.product(PowerState, repeat=2)),
        ids=lambda state: state.value,
    )
    def test_every_pair(self, current, target):
        host = host_in(current)
        calls = listen(host)
        if target in _LEGAL_TRANSITIONS[current]:
            host.power_state = target
            assert host.power_state is target
            assert calls == [(host, current, target)]
        else:
            with pytest.raises(PowerStateError):
                host.power_state = target
            assert host.power_state is current
            assert calls == []

    def test_start_asleep_fires_listener_without_a_transition(
        self, monkeypatch
    ):
        checked = []
        monkeypatch.setattr(
            host_module, "check_transition", lambda *edge: checked.append(edge)
        )
        host = make_host()
        calls = listen(host)
        host.start_asleep()
        assert host.is_sleeping
        assert calls == [(host, PowerState.POWERED, PowerState.SLEEPING)]
        assert checked == []

    def test_start_asleep_refuses_a_host_holding_a_vm(self):
        host = make_host()
        host.attach(make_vm())
        calls = listen(host)
        with pytest.raises(PowerStateError):
            host.start_asleep()
        assert host.is_powered
        assert calls == []

    @pytest.mark.parametrize(
        "state",
        [PowerState.SUSPENDING, PowerState.SLEEPING, PowerState.RESUMING],
        ids=lambda state: state.value,
    )
    def test_start_asleep_refuses_a_host_not_powered(self, state):
        host = host_in(state)
        calls = listen(host)
        with pytest.raises(PowerStateError):
            host.start_asleep()
        assert host.power_state is state
        assert calls == []


class TestPowerLintFixturesAtRunTime:
    """Positive fixtures of the retired lint rules SM101 and SM103, run
    against a real host: the setter rejects each.  SM103's third, the
    literal POWERED -> SLEEPING check, is the first case of
    ``TestPowerStateMachine.test_illegal_transitions``."""

    def test_unguarded_assignment_raises(self):
        # SM101's positive fixture.
        def sleep(host):
            host.power_state = PowerState.SLEEPING

        host = make_host()
        with pytest.raises(
            PowerStateError, match="illegal power transition powered -> sleeping"
        ):
            sleep(host)
        assert host.is_powered

    def test_guard_assign_mismatch_raises(self):
        # SM103's guard/assign mismatch: the guard passes, the assignment
        # does not.
        def suspend(host):
            check_transition(host.power_state, PowerState.SUSPENDING)
            host.power_state = PowerState.SLEEPING

        host = make_host()
        with pytest.raises(
            PowerStateError, match="illegal power transition powered -> sleeping"
        ):
            suspend(host)
        assert host.is_powered


class TestHostPowerCycle:
    def test_full_cycle(self):
        host = make_host()
        host.begin_suspend()
        assert host.power_state is PowerState.SUSPENDING
        host.complete_suspend()
        assert host.is_sleeping
        host.begin_resume()
        host.complete_resume()
        assert host.is_powered

    def test_suspend_blocked_by_running_vms(self):
        host = make_host()
        host.attach(make_vm())
        with pytest.raises(PowerStateError):
            host.begin_suspend()

    def test_served_images_do_not_block_suspend(self):
        # The whole point of the memory server (§3.3).
        host = make_host()
        host.add_served_image(7)
        host.begin_suspend()
        host.complete_suspend()
        assert host.is_sleeping
        assert host.served_image_count == 1


class TestMemoryAccounting:
    def test_attach_reserves_resident_size(self):
        host = make_host()
        host.attach(make_vm(memory=4096.0))
        assert host.used_mib == 4096.0
        assert host.free_mib == 8192.0

    def test_attach_rejects_overflow(self):
        host = make_host(capacity_mib=4096.0)
        host.attach(make_vm(1))
        with pytest.raises(CapacityError):
            host.attach(make_vm(2))

    def test_attach_rejects_duplicates(self):
        host = make_host()
        vm = make_vm()
        host.attach(vm)
        with pytest.raises(MigrationError):
            host.attach(vm)

    def test_detach_releases_memory(self):
        host = make_host()
        vm = make_vm()
        host.attach(vm)
        host.detach(vm.vm_id)
        assert host.used_mib == 0.0
        assert host.vm_count == 0

    def test_detach_unknown_vm(self):
        with pytest.raises(MigrationError):
            make_host().detach(99)

    def test_partial_vm_occupies_only_working_set(self):
        host = make_host()
        vm = make_vm(home=5)  # homed elsewhere so it can be partial here
        vm.become_partial(destination_id=0, working_set_mib=160.0)
        host.attach(vm)
        assert host.used_mib == pytest.approx(160.0)
        assert host.partial_vm_count == 1
        assert host.full_vm_count == 0
        assert host.partial_resident_fraction == pytest.approx(160.0 / 4096.0)

    def test_can_fit_tolerates_float_noise(self):
        host = make_host(capacity_mib=100.0)
        for _ in range(10):
            vm = make_vm(vm_id=_ + 1, home=5, memory=4096.0)
            vm.become_partial(0, 10.0)
            host.attach(vm)
        assert host.can_fit(0.0)

    def test_recompute_matches_incremental(self):
        host = make_host()
        full = make_vm(1)
        partial = make_vm(2, home=5)
        partial.become_partial(0, 200.0)
        host.attach(full)
        host.attach(partial)
        assert host.recompute_used_mib() == pytest.approx(host.used_mib)


class TestInPlaceTransitions:
    def _host_with_partial(self, capacity=12_288.0, ws=160.0):
        host = make_host(capacity)
        vm = make_vm(1, home=5)
        vm.become_partial(0, ws)
        host.attach(vm)
        return host, vm

    def test_convert_in_place_reserves_full_allocation(self):
        host, vm = self._host_with_partial()
        host.convert_vm_full_in_place(vm.vm_id)
        assert host.used_mib == pytest.approx(4096.0)
        assert host.full_vm_count == 1
        assert host.partial_resident_fraction == 0.0
        assert vm.home_id == 0  # the consolidation host is the new home

    def test_convert_in_place_requires_capacity(self):
        host, vm = self._host_with_partial(capacity=1024.0)
        with pytest.raises(CapacityError):
            host.convert_vm_full_in_place(vm.vm_id)
        # State must be untouched on failure.
        assert vm.is_partial
        assert host.used_mib == pytest.approx(160.0)

    def test_convert_rejects_full_vms(self):
        host = make_host()
        vm = make_vm(1)
        host.attach(vm)
        with pytest.raises(MigrationError):
            host.convert_vm_full_in_place(vm.vm_id)

    def test_grow_partial_vm(self):
        host, vm = self._host_with_partial()
        host.grow_partial_vm(vm.vm_id, 40.0)
        assert vm.working_set_mib == pytest.approx(200.0)
        assert host.used_mib == pytest.approx(200.0)
        assert host.partial_resident_fraction == pytest.approx(200.0 / 4096.0)

    def test_grow_respects_capacity(self):
        host, vm = self._host_with_partial(capacity=200.0)
        with pytest.raises(CapacityError):
            host.grow_partial_vm(vm.vm_id, 100.0)

    def test_grow_caps_at_allocation(self):
        host, vm = self._host_with_partial(capacity=8192.0, ws=4000.0)
        host.grow_partial_vm(vm.vm_id, 500.0)
        assert vm.working_set_mib == pytest.approx(4096.0)
        assert host.used_mib == pytest.approx(4096.0)


class TestServedImages:
    def test_add_remove(self):
        host = make_host()
        host.add_served_image(1)
        host.add_served_image(2)
        assert host.served_image_ids == {1, 2}
        host.remove_served_image(1)
        assert host.served_image_ids == {2}

    def test_remove_is_idempotent(self):
        host = make_host()
        host.remove_served_image(42)  # no error
        assert host.served_image_count == 0
