"""The committed equivalence baselines certify the current engine.

``tests/golden/equiv_baseline.json`` pins fingerprint ensembles for the
four paper policies plus ``GammaRobust@1`` at derived seeds, and
``tests/golden/equiv_baseline_rack.json`` pins the same ensembles on
the 900-VM paper rack.  The rack file's checks run no engine (a rack
ensemble takes a minute); CI's ``goldens`` job pins its bit-identity
by regenerating it, and its ``equiv-smoke`` job compares against it.  The
current engine, replayed at those seeds, must be *bit-identical* to the
committed fingerprints — not merely statistically accepted — because
the baseline was produced by this same engine.  A future engine variant
only has to pass the paired battery (``oasis-sim equiv compare``); the
reference engine itself has no excuse for any drift at all.
"""

import json
import os

import pytest

from repro.equiv import (
    baseline_config,
    baseline_seeds,
    compare_to_baseline,
    ensemble_seeds,
    load_baseline,
    read_baseline,
)
from repro.errors import ConfigError
from repro.farm import FarmConfig
from tests.golden.update_goldens import (
    EQUIV_BASELINE_PATH,
    EQUIV_ENSEMBLE_SIZE,
    EQUIV_POLICIES,
    EQUIV_RACK_BASELINE_PATH,
    EQUIV_RACK_SHAPE,
    EQUIV_ROOT_SEED,
    FARM_SHAPE,
)

pytestmark = [pytest.mark.equiv, pytest.mark.slow]


def _read_committed(path):
    assert os.path.exists(path), (
        f"missing {path}; run "
        "PYTHONPATH=src python tests/golden/update_goldens.py"
    )
    return read_baseline(path)


@pytest.fixture(scope="module")
def payload():
    return _read_committed(EQUIV_BASELINE_PATH)


@pytest.fixture(scope="module")
def rack_payload():
    return _read_committed(EQUIV_RACK_BASELINE_PATH)


class TestCommittedBaseline:
    def test_covers_the_committed_policies(self, payload):
        assert sorted(payload["policies"]) == sorted(EQUIV_POLICIES)

    def test_records_the_farm_shape(self, payload):
        assert baseline_config(payload) == FarmConfig(**FARM_SHAPE)

    def test_another_farm_shape_is_a_config_error(self, payload):
        wider = FarmConfig(**dict(FARM_SHAPE, vms_per_host=5))
        with pytest.raises(ConfigError) as raised:
            compare_to_baseline(payload, wider, "Default")
        message = str(raised.value)
        assert "'vms_per_host': 4" in message
        assert "'vms_per_host': 5" in message

    def test_seeds_match_the_derivation(self, payload):
        assert baseline_seeds(payload) == ensemble_seeds(
            EQUIV_ROOT_SEED, EQUIV_ENSEMBLE_SIZE
        )

    def test_every_ensemble_is_full_size(self, payload):
        for name, fingerprints in load_baseline(payload).items():
            assert len(fingerprints) == EQUIV_ENSEMBLE_SIZE, name
            assert [fp.seed for fp in fingerprints] == baseline_seeds(
                payload
            ), name

    def test_file_is_stably_formatted(self, payload):
        with open(EQUIV_BASELINE_PATH, encoding="utf-8") as handle:
            on_disk = handle.read()
        assert on_disk == json.dumps(
            payload, indent=2, sort_keys=True
        ) + "\n"

    @pytest.mark.parametrize("policy", ["FulltoPartial", "GammaRobust@1"])
    def test_current_engine_is_bit_identical_to_baseline(
        self, payload, policy
    ):
        report = compare_to_baseline(
            payload, FarmConfig(**FARM_SHAPE), policy
        )
        assert report.paired
        assert report.equivalent, report.render()
        assert all(v.p_value > 0.999 for v in report.verdicts), (
            "the reference engine drifted from its own committed baseline"
        )

    def test_compare_decodes_only_the_compared_policy(
        self, payload, monkeypatch
    ):
        from repro.equiv import harness

        decode = harness.fingerprint_from_dict
        calls = []

        def counting(entry):
            calls.append(entry)
            return decode(entry)

        monkeypatch.setattr(harness, "fingerprint_from_dict", counting)
        compare_to_baseline(payload, FarmConfig(**FARM_SHAPE), "Default")
        assert len(calls) == EQUIV_ENSEMBLE_SIZE
        assert calls == payload["policies"]["Default"]

    @pytest.mark.parametrize("field,value,words", [
        ("day_type", None, "missing 'day_type'"),
        ("day_type", "holiday", "day_type"),
        ("seeds", None, "missing 'seeds'"),
        ("seeds", ["x"], "seeds"),
        ("policies", None, "missing 'policies'"),
        ("policies", [], "policies"),
        ("policies.Default", 5, "'Default'"),
        ("policies.Default.total_energy_j", "abc",
         "'Default'.*'total_energy_j'"),
    ])
    def test_a_malformed_field_is_a_config_error_naming_it(
        self, payload, tmp_path, field, value, words
    ):
        broken = json.loads(json.dumps(payload))
        if field == "policies.Default":
            broken["policies"]["Default"] = value
        elif field == "policies.Default.total_energy_j":
            broken["policies"]["Default"][0]["total_energy_j"] = value
        elif value is None:
            del broken[field]
        else:
            broken[field] = value
        with pytest.raises(ConfigError, match=words):
            compare_to_baseline(broken, FarmConfig(**FARM_SHAPE), "Default")
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        with pytest.raises(ConfigError, match=words):
            read_baseline(str(path))


class TestCommittedRackBaseline:
    """The rack baseline's contents, checked without running the engine."""

    def test_covers_the_committed_policies(self, rack_payload):
        assert sorted(rack_payload["policies"]) == sorted(EQUIV_POLICIES)

    def test_records_the_paper_rack(self, rack_payload):
        assert baseline_config(rack_payload) == FarmConfig(**EQUIV_RACK_SHAPE)
        assert FarmConfig(**EQUIV_RACK_SHAPE) == FarmConfig()

    def test_is_a_weekday_baseline(self, rack_payload):
        assert rack_payload["day_type"] == "weekday"

    def test_seeds_match_the_derivation(self, rack_payload):
        assert rack_payload["root_seed"] == EQUIV_ROOT_SEED
        assert baseline_seeds(rack_payload) == ensemble_seeds(
            EQUIV_ROOT_SEED, EQUIV_ENSEMBLE_SIZE
        )

    def test_every_ensemble_is_full_size(self, rack_payload):
        for name, fingerprints in load_baseline(rack_payload).items():
            assert len(fingerprints) == EQUIV_ENSEMBLE_SIZE, name
            assert [fp.seed for fp in fingerprints] == baseline_seeds(
                rack_payload
            ), name
            assert {fp.policy for fp in fingerprints} == {name}

    def test_file_is_stably_formatted(self, rack_payload):
        with open(EQUIV_RACK_BASELINE_PATH, encoding="utf-8") as handle:
            on_disk = handle.read()
        assert on_disk == json.dumps(
            rack_payload, indent=2, sort_keys=True
        ) + "\n"

    def test_another_farm_shape_is_a_config_error(self, rack_payload):
        with pytest.raises(ConfigError, match="'vms_per_host': 30"):
            compare_to_baseline(
                rack_payload, FarmConfig(**FARM_SHAPE), "Default"
            )
