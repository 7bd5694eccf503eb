"""Battery mechanics over synthetic fingerprints (no simulation runs).

Verifies the ensemble-vs-ensemble plumbing: verdict bookkeeping, paired
vs unpaired mode detection, Bonferroni thresholds, mixed-ensemble
validation, JSON round-trips, and the union-fill of per-state metrics.
"""

import json

import pytest

from repro.equiv.battery import (
    BatteryConfig,
    compare_fingerprints,
    report_from_dict,
)
from repro.equiv.fingerprint import (
    RunFingerprint,
    fingerprint_from_dict,
)
from repro.equiv.harness import (
    BASELINE_VERSION,
    baseline_config,
    ensemble_seeds,
    load_baseline,
)
from repro.errors import ConfigError


def _fp(seed, energy=1000.0, migrations=50.0, policy="Default",
        day_type="weekday", states=(("powered", 800.0), ("sleeping", 200.0)),
        sleep_hist=(0, 0, 1, 2, 1, 0, 0, 0)):
    return RunFingerprint(
        seed=seed,
        policy=policy,
        day_type=day_type,
        total_energy_j=energy,
        state_energy_j=tuple(states),
        state_time_s=(("powered", 70000.0), ("sleeping", 16400.0)),
        counters=(("partial_migrations", migrations),),
        faults=(("wake_failures", 2.0),),
        traffic_mib=(("memory_upload_sas", 120.0),),
        network_total_mib=150.0,
        mean_delay_s=1.5,
        zero_delay_fraction=0.8,
        sleep_hist=sleep_hist,
        mean_sleep_fraction=0.4,
    )


def _ensemble(seeds, bias=0.0, **kwargs):
    """Synthetic ensemble with per-seed spread (as real ensembles have).

    ``bias`` adds a constant to every member's energy — the shape of a
    systematic engine defect, small against the 10 J/member spread.
    """
    members = []
    for i, seed in enumerate(seeds):
        if "energy" in kwargs:
            members.append(_fp(seed, **kwargs))
        else:
            members.append(
                _fp(seed, energy=1000.0 + 10.0 * i + bias, **kwargs)
            )
    return members


SEEDS = ensemble_seeds(7, 20)
OTHER_SEEDS = ensemble_seeds(8, 20)


class TestEnsembleSeeds:
    def test_deterministic_and_distinct(self):
        assert ensemble_seeds(7, 20) == SEEDS
        assert len(set(SEEDS)) == 20

    def test_disjoint_roots_give_disjoint_seeds(self):
        assert not set(SEEDS) & set(OTHER_SEEDS)

    def test_prefix_stability(self):
        # Growing the ensemble keeps the existing members' seeds.
        assert ensemble_seeds(7, 5) == SEEDS[:5]

    def test_zero_members_rejected(self):
        with pytest.raises(ConfigError):
            ensemble_seeds(7, 0)


class TestCompare:
    def test_identical_ensembles_are_equivalent_and_paired(self):
        report = compare_fingerprints(_ensemble(SEEDS), _ensemble(SEEDS))
        assert report.paired
        assert report.equivalent
        assert report.failures() == []
        # Exact binomial enumeration can sum to 1 - epsilon in floats;
        # everything else is exactly 1.
        assert all(v.p_value > 0.999 for v in report.verdicts)

    def test_disjoint_seed_lists_compare_unpaired(self):
        report = compare_fingerprints(
            _ensemble(SEEDS), _ensemble(OTHER_SEEDS)
        )
        assert not report.paired
        assert report.equivalent
        assert not any(v.test == "sign" for v in report.verdicts)

    def test_pairing_can_be_disabled(self):
        config = BatteryConfig(paired=False)
        report = compare_fingerprints(
            _ensemble(SEEDS), _ensemble(SEEDS), config=config
        )
        assert not report.paired

    def test_small_systematic_bias_trips_the_sign_test(self):
        # +1 J on every seed, a tenth of the member spread: invisible
        # to KS at n=20, nailed by the exact paired sign test.
        report = compare_fingerprints(
            _ensemble(SEEDS), _ensemble(SEEDS, bias=1.0)
        )
        assert not report.equivalent
        failing = {(v.metric, v.test) for v in report.failures()}
        assert ("total_energy_j", "sign") in failing
        assert ("total_energy_j", "ks") not in failing

    def test_the_same_bias_survives_unpaired_comparison(self):
        # Statistical power honesty: without pairing, the same +1 J
        # shift is indistinguishable at n=20 — which is exactly why
        # baselines replay pinned seeds.
        report = compare_fingerprints(
            _ensemble(SEEDS), _ensemble(OTHER_SEEDS, bias=1.0)
        )
        assert not report.paired
        assert report.equivalent

    def test_bonferroni_threshold_divides_family_alpha(self):
        report = compare_fingerprints(_ensemble(SEEDS), _ensemble(SEEDS))
        total = len(report.verdicts)
        for verdict in report.verdicts:
            assert verdict.threshold == pytest.approx(0.05 / total)

    def test_vanished_state_reads_as_zero_and_rejects(self):
        # An engine that stops metering the sleeping state entirely:
        # union-fill turns the missing key into a zero column.
        broken = _ensemble(SEEDS, states=(("powered", 1000.0),))
        report = compare_fingerprints(_ensemble(SEEDS), broken)
        assert not report.equivalent
        metrics = {v.metric for v in report.failures()}
        assert "state_energy_j.sleeping" in metrics

    def test_mixed_ensemble_rejected(self):
        mixed = _ensemble(SEEDS[:10]) + _ensemble(
            SEEDS[10:], policy="NewHome"
        )
        with pytest.raises(ConfigError):
            compare_fingerprints(mixed, _ensemble(SEEDS))

    def test_cross_policy_comparison_rejected(self):
        with pytest.raises(ConfigError):
            compare_fingerprints(
                _ensemble(SEEDS), _ensemble(SEEDS, policy="NewHome")
            )

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ConfigError):
            compare_fingerprints([], _ensemble(SEEDS))

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ConfigError):
            BatteryConfig(family_alpha=0.0)


class TestSerialization:
    def test_fingerprint_round_trips_through_json(self):
        fingerprint = _fp(SEEDS[0])
        payload = json.loads(json.dumps(fingerprint.as_dict()))
        assert fingerprint_from_dict(payload) == fingerprint

    def test_fingerprint_missing_key_rejected(self):
        payload = _fp(SEEDS[0]).as_dict()
        del payload["total_energy_j"]
        with pytest.raises(ConfigError):
            fingerprint_from_dict(payload)

    def test_report_round_trips_through_json(self):
        report = compare_fingerprints(_ensemble(SEEDS), _ensemble(SEEDS))
        rebuilt = report_from_dict(json.loads(report.to_json()))
        assert rebuilt == report
        assert rebuilt.equivalent == report.equivalent

    def test_render_names_the_verdict(self):
        report = compare_fingerprints(_ensemble(SEEDS), _ensemble(SEEDS))
        text = report.render()
        assert "equivalent" in text
        broken = _ensemble(SEEDS, energy=2000.0)
        failing = compare_fingerprints(_ensemble(SEEDS), broken)
        assert "NOT EQUIVALENT" in failing.render()

    def test_render_verbose_lists_every_metric(self):
        report = compare_fingerprints(_ensemble(SEEDS), _ensemble(SEEDS))
        text = report.render(verbose=True)
        assert text.count("ok    ") == len(report.verdicts)


class TestBaselinePayload:
    @pytest.mark.parametrize("read", [load_baseline, baseline_config])
    def test_old_version_rejected(self, read):
        with pytest.raises(ConfigError, match="baseline version 1"):
            read({"version": 1, "policies": {}})

    def test_farm_shape_required(self):
        with pytest.raises(ConfigError, match="missing 'farm'"):
            baseline_config({"version": BASELINE_VERSION})
        with pytest.raises(ConfigError, match="missing 'vms_per_host'"):
            baseline_config({
                "version": BASELINE_VERSION,
                "farm": {"home_hosts": 4, "consolidation_hosts": 2},
            })

    @pytest.mark.parametrize("farm", [
        {"home_hosts": 4, "consolidation_hosts": 2, "vms_per_host": "four"},
        {"home_hosts": 4, "consolidation_hosts": 2, "vms_per_host": None},
        [4, 2, 4],
    ])
    def test_malformed_farm_shape_rejected(self, farm):
        with pytest.raises(ConfigError, match="malformed baseline farm"):
            baseline_config({"version": BASELINE_VERSION, "farm": farm})
