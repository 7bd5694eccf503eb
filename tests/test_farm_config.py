"""Farm configuration validation and derived quantities."""

import math

import pytest

from repro.errors import ConfigError
from repro.farm import FarmConfig
from repro.energy import MemoryServerProfile


class TestDefaults:
    def test_paper_standard_setup(self):
        config = FarmConfig()
        assert config.home_hosts == 30
        assert config.consolidation_hosts == 4
        assert config.vms_per_host == 30
        assert config.total_vms == 900
        assert config.vm_memory_mib == 4096.0

    def test_capacity_derived_from_vm_complement(self):
        assert FarmConfig().capacity_mib == 30 * 4096.0

    def test_capacity_scales_with_vms_per_host(self):
        config = FarmConfig(home_hosts=10, vms_per_host=90)
        assert config.capacity_mib == 90 * 4096.0
        assert config.total_vms == 900

    def test_explicit_capacity_override(self):
        config = FarmConfig(host_capacity_mib=200_000.0)
        assert config.capacity_mib == 200_000.0

    def test_overcommit_scales_capacity(self):
        config = FarmConfig(memory_overcommit=1.5)
        assert config.capacity_mib == pytest.approx(1.5 * 30 * 4096.0)

    def test_overcommit_bounds(self):
        with pytest.raises(ConfigError):
            FarmConfig(memory_overcommit=0.9)
        with pytest.raises(ConfigError):
            FarmConfig(memory_overcommit=2.5)


class TestValidation:
    def test_positive_counts(self):
        with pytest.raises(ConfigError):
            FarmConfig(home_hosts=0)
        with pytest.raises(ConfigError):
            FarmConfig(consolidation_hosts=0)
        with pytest.raises(ConfigError):
            FarmConfig(vms_per_host=0)

    def test_planning_interval_must_align_with_traces(self):
        with pytest.raises(ConfigError):
            FarmConfig(planning_interval_s=250.0)
        FarmConfig(planning_interval_s=600.0)  # multiples are fine

    def test_jitter_range(self):
        with pytest.raises(ConfigError):
            FarmConfig(activation_jitter_s=0.0)
        with pytest.raises(ConfigError):
            FarmConfig(activation_jitter_s=500.0)

    def test_hysteresis_at_least_one(self):
        with pytest.raises(ConfigError):
            FarmConfig(min_idle_intervals=0)

    def test_growth_non_negative(self):
        with pytest.raises(ConfigError):
            FarmConfig(working_set_growth_mib_per_h=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=str)
    @pytest.mark.parametrize("field_name", [
        "vm_memory_mib",
        "host_capacity_mib",
        "planning_interval_s",
        "working_set_growth_mib_per_h",
        "idle_page_request_gap_s",
    ])
    def test_non_finite_floats_rejected(self, field_name, value):
        with pytest.raises(ConfigError, match="finite"):
            FarmConfig(**{field_name: value}, memory_server_present=False)


class TestOverrides:
    def test_with_overrides_returns_new_config(self):
        base = FarmConfig()
        varied = base.with_overrides(consolidation_hosts=8)
        assert varied.consolidation_hosts == 8
        assert base.consolidation_hosts == 4

    def test_with_overrides_replaces_memory_server(self):
        varied = FarmConfig().with_overrides(
            memory_server=MemoryServerProfile.alternative(2.0)
        )
        assert varied.memory_server.total_w == 2.0
