"""Sweep helpers (small configurations to stay fast)."""

from dataclasses import replace

import pytest

from repro.core import FULL_TO_PARTIAL, ONLY_PARTIAL, policy_names
from repro.errors import ConfigError
from repro.farm import FarmConfig, SweepRunner
from repro.farm.sweep import (
    average_savings,
    cluster_shape_sweep,
    consolidation_host_sweep,
    gamma_sweep,
    memory_server_power_sweep,
    run_repetitions,
)
from repro.traces import DayType


def small_config():
    return FarmConfig(home_hosts=6, consolidation_hosts=2, vms_per_host=5)


class TestRepetitions:
    def test_runs_use_distinct_seeds(self):
        results = run_repetitions(
            small_config(), FULL_TO_PARTIAL, DayType.WEEKDAY, runs=3,
            base_seed=100,
        )
        assert [r.seed for r in results] == [100, 101, 102]
        savings = {round(r.savings_fraction, 6) for r in results}
        assert len(savings) > 1  # independent trace draws

    def test_at_least_one_run_required(self):
        with pytest.raises(ConfigError):
            run_repetitions(small_config(), FULL_TO_PARTIAL,
                            DayType.WEEKDAY, runs=0)


class TestAverageSavings:
    def test_point_carries_mean_and_std(self):
        point = average_savings(
            small_config(), FULL_TO_PARTIAL, DayType.WEEKDAY, runs=3,
        )
        assert point.runs == 3
        assert -1.0 < point.mean_savings < 1.0
        assert point.std_savings >= 0.0

    def test_single_run_has_zero_std(self):
        point = average_savings(
            small_config(), FULL_TO_PARTIAL, DayType.WEEKDAY, runs=1,
        )
        assert point.std_savings == 0.0

    def test_default_label(self):
        point = average_savings(
            small_config(), ONLY_PARTIAL, DayType.WEEKEND, runs=1,
        )
        assert "OnlyPartial" in point.label
        assert "weekend" in point.label


class TestSweeps:
    def test_consolidation_host_sweep_structure(self):
        sweep = consolidation_host_sweep(
            small_config(), [FULL_TO_PARTIAL], DayType.WEEKDAY,
            consolidation_counts=(1, 2), runs=1,
        )
        assert set(sweep) == {"FulltoPartial"}
        counts = [count for count, _point in sweep["FulltoPartial"]]
        assert counts == [1, 2]

    def test_memory_server_sweep_monotone_in_power(self):
        rows = memory_server_power_sweep(
            small_config(), FULL_TO_PARTIAL,
            watts_options=(42.2, 1.0), runs=1,
        )
        assert len(rows) == 2
        (heavy_w, heavy_wd, _), (light_w, light_wd, _) = rows
        assert heavy_w > light_w
        # A leaner memory server can only help.
        assert light_wd.mean_savings >= heavy_wd.mean_savings - 0.01

    def test_cluster_shape_sweep_keeps_total_vms(self):
        rows = cluster_shape_sweep(
            small_config(), FULL_TO_PARTIAL, DayType.WEEKDAY,
            shapes=((6, 2), (3, 2)), runs=1,
        )
        assert [label for label, _point in rows] == ["6+2", "3+2"]

    def test_cluster_shape_sweep_rejects_nondivisible(self):
        with pytest.raises(ConfigError):
            cluster_shape_sweep(
                small_config(), FULL_TO_PARTIAL, DayType.WEEKDAY,
                shapes=((7, 2),), runs=1,
            )


class TestRunnerIntegration:
    def test_helpers_share_an_explicit_runner(self):
        runner = SweepRunner()
        run_repetitions(small_config(), FULL_TO_PARTIAL, DayType.WEEKDAY,
                        runs=2, runner=runner)
        memory_server_power_sweep(
            small_config(), FULL_TO_PARTIAL, watts_options=(42.2,),
            runs=1, runner=runner,
        )
        assert len(runner.summaries) == 2
        assert runner.summaries[0].runs == 2
        assert runner.summaries[1].runs == 2  # weekday + weekend

    def test_explicit_runner_matches_default(self):
        baseline = average_savings(
            small_config(), FULL_TO_PARTIAL, DayType.WEEKDAY, runs=2,
        )
        explicit = average_savings(
            small_config(), FULL_TO_PARTIAL, DayType.WEEKDAY, runs=2,
            runner=SweepRunner(),
        )
        assert baseline == explicit


class TestStrategyRegistrySweeps:
    """The sweeps hold no closed four-policy enum: a custom spec that no
    name reaches sweeps end-to-end as an object."""

    def test_custom_spec_sweeps_end_to_end(self):
        custom = replace(FULL_TO_PARTIAL, name="SweepDummy")
        assert "SweepDummy" not in policy_names()
        sweep = consolidation_host_sweep(
            small_config(), [custom], DayType.WEEKDAY,
            consolidation_counts=(1, 2), runs=1,
        )
        assert set(sweep) == {"SweepDummy"}
        reference = consolidation_host_sweep(
            small_config(), [FULL_TO_PARTIAL], DayType.WEEKDAY,
            consolidation_counts=(1, 2), runs=1,
        )
        # Same switches, same seeds: only the labels may differ.
        assert len(sweep["SweepDummy"]) == len(reference["FulltoPartial"])
        for (count, dummy), (ref_count, ref) in zip(
            sweep["SweepDummy"], reference["FulltoPartial"]
        ):
            assert count == ref_count
            assert dummy.mean_savings == ref.mean_savings
            assert dummy.label == ref.label.replace(
                "FulltoPartial", "SweepDummy"
            )

    def test_policies_resolve_by_string_name(self):
        point = average_savings(
            small_config(), "FulltoPartial", DayType.WEEKDAY, runs=1,
        )
        via_spec = average_savings(
            small_config(), FULL_TO_PARTIAL, DayType.WEEKDAY, runs=1,
        )
        assert point == via_spec

    def test_gamma_sweep_rows_and_labels(self):
        rows = gamma_sweep(
            small_config(), (0, 2), DayType.WEEKDAY,
            baselines=[FULL_TO_PARTIAL], runs=1,
        )
        assert [name for name, _ in rows] == [
            "FulltoPartial", "GammaRobust@0", "GammaRobust@2",
        ]
        for name, point in rows:
            assert point.label == name
            assert point.runs == 1

    def test_gamma_sweep_rejects_negative_gamma(self):
        with pytest.raises(ConfigError):
            gamma_sweep(small_config(), (-1,), DayType.WEEKDAY, runs=1)
