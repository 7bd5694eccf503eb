"""Policy names and resolution (`repro.core.policies`, `.strategies`).

A policy is a :class:`PolicySpec`; ``GammaRobust@Γ`` is a spec with a
``gamma``.  :func:`policy_by_name` is the one map from names to specs.
"""

import json
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ALL_POLICIES,
    DEFAULT,
    PolicySpec,
    gamma_robust,
    policy_by_name,
    policy_names,
    resolve_strategy,
)
from repro.errors import ConfigError
from tests.golden.update_goldens import (
    EQUIV_BASELINE_PATH,
    FAULT_GOLDEN_PATH,
    GAMMA_GOLDEN_PATH,
    GOLDEN_PATH,
    RACK_GOLDEN_PATH,
)


class TestRegistry:
    def test_paper_policies_are_registered_in_order(self):
        names = policy_names()
        assert names[:4] == [
            "OnlyPartial", "Default", "FulltoPartial", "NewHome",
        ]
        assert "GammaRobust" in names

    def test_lookup_is_case_insensitive(self):
        assert policy_by_name("fulltopartial") is (
            policy_by_name("FulltoPartial")
        )

    def test_registered_strategy_wraps_the_paper_spec(self):
        for policy in ALL_POLICIES:
            assert policy_by_name(policy.name) is policy
            assert policy.gamma is None

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ConfigError, match="unknown policy") as caught:
            policy_by_name("NoSuchPolicy")
        for name in policy_names():
            assert name in str(caught.value)


class TestFamilies:
    def test_family_lookup_parses_the_argument(self):
        policy = policy_by_name("GammaRobust@3")
        assert policy == gamma_robust(3)
        assert policy.gamma == 3
        assert policy.name == "GammaRobust@3"

    def test_bare_family_name_applies_the_default(self):
        policy = policy_by_name("GammaRobust")
        assert policy.gamma == 1
        assert policy.name == "GammaRobust@1"

    def test_family_lookup_is_case_insensitive(self):
        assert policy_by_name("gammarobust@2") == (
            policy_by_name("GammaRobust@2")
        )

    def test_bad_family_argument_is_rejected(self):
        with pytest.raises(ConfigError, match="integer"):
            policy_by_name("GammaRobust@two")
        with pytest.raises(ConfigError, match="gamma"):
            policy_by_name("GammaRobust@-1")

    def test_gamma_robust_handles_events_like_default(self):
        default = replace(gamma_robust(2), name="Default", gamma=None)
        assert default == DEFAULT


class TestBadGamma:
    @pytest.mark.parametrize("gamma", [-1, -7])
    def test_negative_gamma_is_a_config_error(self, gamma):
        message = f"gamma must be >= 0, got {gamma}"
        with pytest.raises(ConfigError, match=message):
            replace(DEFAULT, gamma=gamma)
        with pytest.raises(ConfigError, match="gamma must be >= 0"):
            gamma_robust(gamma)
        with pytest.raises(ConfigError, match="gamma must be >= 0"):
            policy_by_name(f"GammaRobust@{gamma}")

    @pytest.mark.parametrize("gamma", [1.5, "2"])
    def test_non_integer_gamma_is_a_config_error(self, gamma):
        with pytest.raises(ConfigError, match="gamma must be an integer"):
            replace(DEFAULT, gamma=gamma)

    @pytest.mark.parametrize("argument", ["two", "1.5", "", "3x"])
    def test_non_integer_name_argument_is_a_config_error(self, argument):
        with pytest.raises(ConfigError, match="must be an integer"):
            policy_by_name(f"GammaRobust@{argument}")


class TestResolution:
    def test_strategy_passes_through_unchanged(self):
        policy = policy_by_name("Default")
        assert resolve_strategy(policy) is policy
        assert resolve_strategy("Default") is policy

    def test_unregistered_custom_spec_still_resolves(self):
        custom = PolicySpec(
            name="Bespoke",
            full_migrate_active=False,
            convert_in_place=True,
            exchange_idle_full=False,
            rehome_on_exhaustion=False,
        )
        assert resolve_strategy(custom) is custom

    def test_non_policy_value_is_rejected(self):
        with pytest.raises(ConfigError, match="cannot resolve"):
            resolve_strategy(42)


class TestPicklability:
    """Sweeps ship policies to worker processes inside RunSpecs."""

    @pytest.mark.parametrize(
        "name", ["Default", "GammaRobust@0", "GammaRobust@4"]
    )
    def test_strategies_survive_pickling(self, name):
        policy = policy_by_name(name)
        clone = pickle.loads(pickle.dumps(policy))
        assert clone == policy
        assert clone.name == name


def _recorded_names():
    """Every policy name the goldens and the equivalence baseline key
    their records by."""
    def load(path):
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    names = set(load(GOLDEN_PATH)["policies"])
    names |= set(load(GAMMA_GOLDEN_PATH)["policies"])
    rack_days = load(RACK_GOLDEN_PATH)["days"]
    names |= {key.partition("/")[0] for key in rack_days}
    names |= set(load(FAULT_GOLDEN_PATH)["days"])
    names |= set(load(EQUIV_BASELINE_PATH)["policies"])
    return sorted(names)


class TestGoldenNames:
    """Renaming a policy cannot silently orphan a golden."""

    def test_goldens_record_every_paper_policy_and_a_gamma(self):
        names = _recorded_names()
        assert {policy.name for policy in ALL_POLICIES} <= set(names)
        assert any(name.startswith("GammaRobust@") for name in names)

    @pytest.mark.parametrize("name", _recorded_names())
    def test_recorded_name_resolves_to_itself(self, name):
        assert policy_by_name(name).name == name


#: Names built from the grammar's pieces, so that the search reaches the
#: valid ones as well as arbitrary text.
_NAMES = st.one_of(
    st.text(max_size=24),
    st.sampled_from(policy_names()),
    st.builds(
        lambda family, argument: f"{family}@{argument}",
        st.sampled_from(["GammaRobust", "gammarobust", "GAMMAROBUST",
                         "Default"]),
        st.one_of(st.integers(-5, 50).map(str), st.text(max_size=6)),
    ),
)


class TestNameProperties:
    @settings(max_examples=100, deadline=None)
    @given(_NAMES)
    def test_a_name_resolves_to_a_fixed_point_or_a_config_error(self, name):
        try:
            policy = policy_by_name(name)
        except ConfigError:
            return
        assert policy_by_name(policy.name) == policy

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_every_non_negative_gamma_resolves(self, gamma):
        policy = policy_by_name(f"GammaRobust@{gamma}")
        assert policy.gamma == gamma
        assert policy == gamma_robust(gamma)

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(ALL_POLICIES),
        st.one_of(st.none(), st.integers(min_value=0, max_value=64)),
        st.text(min_size=1, max_size=12),
    )
    def test_specs_survive_a_pickle_round_trip(self, base, gamma, name):
        policy = replace(base, name=name, gamma=gamma)
        assert pickle.loads(pickle.dumps(policy)) == policy
