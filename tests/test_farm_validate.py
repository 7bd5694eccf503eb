"""The post-run validator itself: it must catch corrupted state."""

import pytest

from repro.core import FULL_TO_PARTIAL
from repro.errors import SimulationError
from repro.farm import FarmConfig, FarmSimulation, validate_simulation
from repro.traces import DayType, TraceEnsemble, UserDayTrace


@pytest.fixture
def finished_simulation():
    config = FarmConfig(home_hosts=2, consolidation_hosts=1, vms_per_host=2)
    ensemble = TraceEnsemble(
        DayType.WEEKDAY,
        tuple(UserDayTrace.all_idle(u, DayType.WEEKDAY) for u in range(4)),
    )
    simulation = FarmSimulation(config, FULL_TO_PARTIAL, ensemble, seed=0)
    simulation.run()
    return simulation


class TestValidator:
    def test_clean_run_passes(self, finished_simulation):
        validate_simulation(finished_simulation)

    def test_unfinished_run_rejected(self):
        config = FarmConfig(home_hosts=2, consolidation_hosts=1,
                            vms_per_host=2)
        ensemble = TraceEnsemble(
            DayType.WEEKDAY,
            tuple(UserDayTrace.all_idle(u, DayType.WEEKDAY)
                  for u in range(4)),
        )
        simulation = FarmSimulation(config, FULL_TO_PARTIAL, ensemble)
        with pytest.raises(SimulationError, match="not run"):
            validate_simulation(simulation)

    def test_catches_lost_vm(self, finished_simulation):
        vm = finished_simulation.vms[0]
        finished_simulation.cluster.host(vm.host_id).detach(vm.vm_id)
        with pytest.raises(SimulationError, match="conservation"):
            validate_simulation(finished_simulation)

    def test_catches_accounting_drift(self, finished_simulation):
        host = finished_simulation.cluster.host(2)
        host._used_mib += 123.0
        with pytest.raises(SimulationError, match="accounting"):
            validate_simulation(finished_simulation)

    def test_catches_orphan_served_image(self, finished_simulation):
        finished_simulation.cluster.host(0).add_served_image(999)
        with pytest.raises(SimulationError, match="image"):
            validate_simulation(finished_simulation)

    def test_catches_negative_delay(self, finished_simulation):
        finished_simulation.result.delays.record(1.0, 0, -1.0, "x")
        with pytest.raises(SimulationError, match="negative"):
            validate_simulation(finished_simulation)
