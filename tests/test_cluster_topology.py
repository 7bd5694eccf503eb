"""Cluster construction and aggregate queries."""

import pytest

from repro.cluster import Cluster, HostRole
from repro.errors import ConfigError
from repro.vm import VirtualMachine
from repro.vm.state import Residency


class TestConstruction:
    def test_host_counts_and_roles(self):
        cluster = Cluster(home_hosts=3, consolidation_hosts=2,
                          host_capacity_mib=1000.0)
        assert len(cluster) == 5
        assert len(cluster.home_hosts) == 3
        assert len(cluster.consolidation_hosts) == 2

    def test_dense_host_ids_homes_first(self):
        cluster = Cluster(3, 2, 1000.0)
        assert [h.host_id for h in cluster.home_hosts] == [0, 1, 2]
        assert [h.host_id for h in cluster.consolidation_hosts] == [3, 4]

    def test_memory_servers_only_on_compute_hosts(self):
        cluster = Cluster(2, 2, 1000.0)
        assert all(h.memory_server_enabled for h in cluster.home_hosts)
        assert not any(
            h.memory_server_enabled for h in cluster.consolidation_hosts
        )

    def test_validation(self):
        with pytest.raises(ConfigError):
            Cluster(0, 1, 1000.0)
        with pytest.raises(ConfigError):
            Cluster(1, 0, 1000.0)

    def test_unknown_host_lookup(self):
        with pytest.raises(ConfigError):
            Cluster(1, 1, 1000.0).host(99)


class TestAggregates:
    def test_powered_counts(self):
        cluster = Cluster(2, 2, 1000.0)
        cluster.host(3).start_asleep()
        assert cluster.powered_host_count() == 3
        assert cluster.powered_home_count() == 2
        assert cluster.powered_consolidation_count() == 1

    def test_total_running_vms(self):
        cluster = Cluster(2, 1, 10_000.0)
        cluster.host(0).attach(VirtualMachine(1, 0, 4096.0))
        cluster.host(1).attach(VirtualMachine(2, 1, 4096.0))
        assert cluster.total_running_vms() == 2

    def test_invariant_checker_passes_consistent_state(self):
        cluster = Cluster(1, 1, 10_000.0)
        cluster.host(0).attach(VirtualMachine(1, 0, 4096.0))
        cluster.check_invariants()

    def test_invariant_checker_catches_drift(self):
        cluster = Cluster(1, 1, 10_000.0)
        host = cluster.host(0)
        host.attach(VirtualMachine(1, 0, 4096.0))
        host._used_mib = 1.0  # corrupt the incremental accounting
        with pytest.raises(AssertionError):
            cluster.check_invariants()

    def test_roles_enum_values(self):
        assert HostRole.COMPUTE.value == "compute"
        assert HostRole.CONSOLIDATION.value == "consolidation"


def _placed(partial):
    """Two homes (0, 1) and two consolidation hosts (2, 3); VM 1 of home
    0 runs full there, or partial on host 2 with a 512 MiB working set."""
    cluster = Cluster(2, 2, 10_000.0)
    vm = VirtualMachine(1, 0, 4096.0)
    cluster.host(0).attach(vm)
    if partial:
        cluster.host(0).detach(1)
        vm.become_partial(2, 512.0)
        cluster.host(2).attach(vm)
        cluster.host(0).add_served_image(1)
    return cluster, vm


FULL, PARTIAL = Residency.FULL, Residency.PARTIAL


class TestMove:
    @pytest.mark.parametrize(
        "partial, source, destination, working_set, expected",
        [
            # expected: (host, home, residency, hosts serving the image)
            pytest.param(False, 0, 2, None, (2, 2, FULL, []),
                         id="full-to-full"),
            pytest.param(False, 0, 2, 512.0, (2, 0, PARTIAL, [0]),
                         id="full-to-partial"),
            pytest.param(True, 2, 3, 512.0, (3, 0, PARTIAL, [0]),
                         id="partial-to-partial"),
            pytest.param(True, 2, 0, None, (0, 0, FULL, []),
                         id="partial-to-home"),
            pytest.param(True, 2, 1, None, (1, 1, FULL, []),
                         id="partial-to-elsewhere"),
            pytest.param(True, 2, 2, None, (2, 2, FULL, []),
                         id="partial-in-place"),
        ],
    )
    def test_transition(
        self, partial, source, destination, working_set, expected
    ):
        cluster, vm = _placed(partial)
        cluster.move(
            vm, cluster.host(source), cluster.host(destination), working_set
        )
        serving = [
            host.host_id for host in cluster if 1 in host.served_image_ids
        ]
        assert (vm.host_id, vm.home_id, vm.residency, serving) == expected
        assert [host.host_id for host in cluster if host.has_vm(1)] == [
            expected[0]
        ]
        cluster.check_invariants()

    def test_partial_onto_its_home_lands_as_a_reintegration(self):
        moved, vm = _placed(partial=True)
        moved.move(vm, moved.host(2), moved.host(0))
        reintegrated, twin = _placed(partial=True)
        reintegrated.host(2).detach(1)
        twin.reintegrate()
        reintegrated.host(0).attach(twin)
        reintegrated.host(0).remove_served_image(1)
        assert repr(vm) == repr(twin)
        assert vm.working_set_mib is twin.working_set_mib is None
        assert [repr(host) for host in moved] == [
            repr(host) for host in reintegrated
        ]
