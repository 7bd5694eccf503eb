"""Ensemble runner and self-test harness for the equivalence battery.

Three layers:

* **Ensembles** — :func:`ensemble_seeds` derives member seeds from one
  root via the repo's SHA-256 substream derivation, and
  :func:`run_reference_ensemble` / :func:`run_mutant_ensemble` turn a
  seed list into fingerprints.  Reference ensembles ride the existing
  :class:`~repro.farm.runner.SweepRunner` (so they parallelize like any
  sweep); mutant ensembles run serially because a mutant is applied by
  object surgery on a constructed simulation, which does not pickle.
  Both paths derive the trace seed through
  :attr:`~repro.farm.runner.RunSpec.trace_seed`, so a mutant sees the
  *exact* trace ensemble its reference counterpart saw.

* **Baselines** — :func:`build_baseline` captures reference ensembles
  for a set of policies into a JSON-serializable payload
  (``tests/golden/equiv_baseline.json``) that records the farm shape,
  day type and seeds they ran at; :func:`load_baseline` /
  :func:`compare_to_baseline` replay a candidate engine on that farm at
  the baseline's pinned seeds and run the battery *paired*, which is
  the certification workflow for an engine variant.

* **Self-test** — :func:`run_selftest` proves the battery's power: every
  registered mutant must be rejected at the committed ensemble size,
  the identity mutant and a disjoint-seed reference re-run must be
  accepted.  CI runs a small-ensemble version of this on every push.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.strategies import PolicyLike, resolve_strategy
from repro.equiv.battery import (
    COMMITTED_ENSEMBLE_SIZE,
    BatteryConfig,
    EquivalenceReport,
    compare_fingerprints,
)
from repro.equiv.fingerprint import (
    RunFingerprint,
    fingerprint_from_dict,
    fingerprint_from_result,
)
from repro.equiv.mutants import MUTANTS, Mutant, apply_mutant
from repro.errors import ConfigError
from repro.farm.config import FarmConfig
from repro.farm.runner import RunSpec, SweepRunner
from repro.farm.simulation import FarmSimulation
from repro.simulator.randomness import derive_seed
from repro.traces.model import DayType
from repro.traces.sampler import generate_ensemble

__all__ = [
    "BASELINE_VERSION",
    "ensemble_seeds",
    "run_reference_ensemble",
    "run_mutant_ensemble",
    "MutantTrial",
    "SelftestReport",
    "run_selftest",
    "build_baseline",
    "load_baseline",
    "baseline_seeds",
    "baseline_config",
    "compare_to_baseline",
    "write_baseline",
    "read_baseline",
]

#: Schema version of the committed baseline payload.
BASELINE_VERSION = 2

#: The FarmConfig fields a baseline records as the farm it ran on.
_FARM_SHAPE_FIELDS = ("home_hosts", "consolidation_hosts", "vms_per_host")


def ensemble_seeds(root_seed: int, count: int) -> List[int]:
    """Derive ``count`` member seeds from one root.

    Uses the repo-wide SHA-256 substream derivation
    (:func:`~repro.simulator.randomness.derive_seed`), so member seeds
    are stable across platforms, collision-free in practice, and two
    distinct roots yield disjoint seed lists.
    """
    if count < 1:
        raise ConfigError(f"ensemble needs at least one member, got {count}")
    return [derive_seed(root_seed, f"member.{i}") for i in range(count)]


def run_reference_ensemble(
    config: FarmConfig,
    policy: PolicyLike,
    day_type: DayType,
    seeds: Sequence[int],
    runner: Optional[SweepRunner] = None,
) -> List[RunFingerprint]:
    """Fingerprint the reference engine at every seed (sweep-parallel)."""
    if not seeds:
        raise ConfigError("reference ensemble needs at least one seed")
    runner = runner or SweepRunner(backend="serial")
    specs = [
        RunSpec(config, policy, day_type, seed, label="equiv")
        for seed in seeds
    ]
    return [
        fingerprint_from_result(result)
        for result in runner.run_results(specs)
    ]


def run_mutant_ensemble(
    config: FarmConfig,
    policy: PolicyLike,
    day_type: DayType,
    seeds: Sequence[int],
    mutant: Mutant,
) -> List[RunFingerprint]:
    """Fingerprint a perturbed engine at every seed (serial).

    Replicates the reference path exactly — same trace-seed derivation
    via :attr:`RunSpec.trace_seed`, same constructor — then applies the
    mutant's object surgery before running.
    """
    if not seeds:
        raise ConfigError("mutant ensemble needs at least one seed")
    fingerprints = []
    for seed in seeds:
        spec = RunSpec(config, policy, day_type, seed, label="equiv-mutant")
        ensemble = generate_ensemble(
            config.total_vms,
            day_type,
            seed=spec.trace_seed,
            config=config.traces,
        )
        sim = FarmSimulation(config, policy, ensemble, seed=seed)
        apply_mutant(sim, mutant)
        fingerprints.append(fingerprint_from_result(sim.run()))
    return fingerprints


# ----------------------------------------------------------------------
# self-test
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MutantTrial:
    """One mutant's battery run within a self-test."""

    mutant: str
    description: str
    should_reject: bool
    report: EquivalenceReport

    @property
    def rejected(self) -> bool:
        return not self.report.equivalent

    @property
    def passed(self) -> bool:
        """Did the battery do what this mutant demands of it?"""
        return self.rejected == self.should_reject

    def as_dict(self) -> dict:
        return {
            "mutant": self.mutant,
            "description": self.description,
            "should_reject": self.should_reject,
            "rejected": self.rejected,
            "passed": self.passed,
            "report": self.report.as_dict(),
        }


@dataclass(frozen=True)
class SelftestReport:
    """The battery's full power self-test."""

    policy: str
    day_type: str
    ensemble_size: int
    trials: Tuple[MutantTrial, ...]
    #: Reference vs reference across disjoint seed roots — must accept.
    disjoint_report: EquivalenceReport

    @property
    def passed(self) -> bool:
        return (
            all(trial.passed for trial in self.trials)
            and self.disjoint_report.equivalent
        )

    def as_dict(self) -> dict:
        return {
            "policy": self.policy,
            "day_type": self.day_type,
            "ensemble_size": self.ensemble_size,
            "passed": self.passed,
            "trials": [trial.as_dict() for trial in self.trials],
            "disjoint_report": self.disjoint_report.as_dict(),
        }

    def render(self) -> str:
        lines = [
            f"equivalence self-test: policy={self.policy} "
            f"day={self.day_type} n={self.ensemble_size}",
        ]
        for trial in self.trials:
            want = "reject" if trial.should_reject else "accept"
            got = "rejected" if trial.rejected else "accepted"
            flag = "ok    " if trial.passed else "FAIL  "
            lines.append(f"  {flag} {trial.mutant}: want {want}, {got}")
        flag = "ok    " if self.disjoint_report.equivalent else "FAIL  "
        lines.append(
            f"  {flag} disjoint-seed reference re-run: "
            f"{'accepted' if self.disjoint_report.equivalent else 'rejected'}"
        )
        lines.append(
            "SELFTEST PASSED" if self.passed else "SELFTEST FAILED"
        )
        return "\n".join(lines)


def run_selftest(
    config: FarmConfig,
    policy: PolicyLike,
    day_type: DayType,
    root_seed: int = 2016,
    ensemble_size: int = COMMITTED_ENSEMBLE_SIZE,
    battery_config: Optional[BatteryConfig] = None,
    mutants: Optional[Sequence[str]] = None,
    runner: Optional[SweepRunner] = None,
) -> SelftestReport:
    """Prove the battery's power against the registered mutants.

    Runs the reference once on the shared seed list, compares every
    requested mutant against it paired, then re-runs the reference on a
    disjoint seed list (root ``derive_seed(root_seed, "disjoint")``) and
    requires unpaired acceptance.  A mutant pinned to a specific policy
    (:attr:`~repro.equiv.mutants.Mutant.policy` — its perturbation is a
    no-op elsewhere) is trialled under that policy, against a reference
    ensemble built for it on the same seeds.
    """
    battery_config = battery_config or BatteryConfig()
    seeds = ensemble_seeds(root_seed, ensemble_size)
    references: Dict[str, List[RunFingerprint]] = {}

    def reference_for(pol: PolicyLike) -> List[RunFingerprint]:
        name = resolve_strategy(pol).name
        if name not in references:
            references[name] = run_reference_ensemble(
                config, pol, day_type, seeds, runner=runner
            )
        return references[name]

    reference = reference_for(policy)

    names = list(mutants) if mutants is not None else sorted(MUTANTS)
    trials = []
    for name in names:
        mutant = MUTANTS.get(name)
        if mutant is None:
            raise ConfigError(
                f"unknown mutant {name!r}; choose from {sorted(MUTANTS)}"
            )
        trial_policy = mutant.policy if mutant.policy is not None else policy
        perturbed = run_mutant_ensemble(
            config, trial_policy, day_type, seeds, mutant
        )
        report = compare_fingerprints(
            reference_for(trial_policy),
            perturbed,
            config=battery_config,
            label_a="reference",
            label_b=f"mutant:{mutant.name}",
        )
        trials.append(
            MutantTrial(
                mutant=mutant.name,
                description=mutant.description,
                should_reject=mutant.should_reject,
                report=report,
            )
        )

    disjoint_seeds = ensemble_seeds(
        derive_seed(root_seed, "disjoint"), ensemble_size
    )
    disjoint = run_reference_ensemble(
        config, policy, day_type, disjoint_seeds, runner=runner
    )
    disjoint_report = compare_fingerprints(
        reference,
        disjoint,
        config=battery_config,
        label_a="reference",
        label_b="reference-disjoint-seeds",
    )

    first = reference[0]
    return SelftestReport(
        policy=first.policy,
        day_type=first.day_type,
        ensemble_size=ensemble_size,
        trials=tuple(trials),
        disjoint_report=disjoint_report,
    )


# ----------------------------------------------------------------------
# baselines
# ----------------------------------------------------------------------


def build_baseline(
    config: FarmConfig,
    policies: Sequence[PolicyLike],
    day_type: DayType,
    root_seed: int,
    ensemble_size: int = COMMITTED_ENSEMBLE_SIZE,
    runner: Optional[SweepRunner] = None,
) -> dict:
    """Capture reference ensembles for ``policies`` as a JSON payload."""
    if not policies:
        raise ConfigError("baseline needs at least one policy")
    seeds = ensemble_seeds(root_seed, ensemble_size)
    entries = {}
    for policy in policies:
        name = resolve_strategy(policy).name
        if name in entries:
            raise ConfigError(f"duplicate baseline policy {name!r}")
        fingerprints = run_reference_ensemble(
            config, policy, day_type, seeds, runner=runner
        )
        entries[name] = [fp.as_dict() for fp in fingerprints]
    return {
        "version": BASELINE_VERSION,
        "farm": _farm_shape(config),
        "day_type": day_type.value,
        "root_seed": root_seed,
        "ensemble_size": ensemble_size,
        "seeds": seeds,
        "policies": entries,
    }


def _check_version(payload: Mapping) -> None:
    version = payload.get("version")
    if version != BASELINE_VERSION:
        raise ConfigError(
            f"unsupported baseline version {version!r}; "
            f"expected {BASELINE_VERSION}"
        )


def _field(payload: Mapping, name: str) -> object:
    if name not in payload:
        raise ConfigError(f"baseline payload missing {name!r}")
    return payload[name]


def _baseline_policies(payload: Mapping) -> Mapping:
    policies = _field(payload, "policies")
    if not isinstance(policies, Mapping):
        raise ConfigError(
            "baseline policies must map policy names to fingerprints, "
            f"got {type(policies).__name__}"
        )
    return policies


def _baseline_day_type(payload: Mapping) -> DayType:
    value = _field(payload, "day_type")
    try:
        return DayType(value)
    except ValueError:
        raise ConfigError(
            f"baseline day_type must be one of "
            f"{[day.value for day in DayType]}, got {value!r}"
        ) from None


def _decode_policy(name: str, entries: object) -> List[RunFingerprint]:
    """One policy's fingerprint ensemble; a malformed entry is a
    :class:`ConfigError` naming the policy and field."""
    if not isinstance(entries, list):
        raise ConfigError(
            f"baseline policy {name!r} must list fingerprints, "
            f"got {type(entries).__name__}"
        )
    try:
        return [fingerprint_from_dict(entry) for entry in entries]
    except ConfigError as error:
        raise ConfigError(f"baseline policy {name!r}: {error}") from None


def load_baseline(payload: Mapping) -> Dict[str, List[RunFingerprint]]:
    """Decode a baseline payload into fingerprint ensembles per policy; a
    malformed entry is a :class:`ConfigError` naming its policy and
    field."""
    _check_version(payload)
    return {
        name: _decode_policy(name, entries)
        for name, entries in _baseline_policies(payload).items()
    }


def baseline_seeds(payload: Mapping) -> List[int]:
    """The pinned member seeds a baseline's ensembles were run at."""
    seeds = _field(payload, "seeds")
    try:
        return [int(seed) for seed in seeds]
    except (TypeError, ValueError) as error:
        raise ConfigError(f"malformed baseline seeds: {error}") from None


def _farm_shape(config: FarmConfig) -> Dict[str, int]:
    return {name: getattr(config, name) for name in _FARM_SHAPE_FIELDS}


def baseline_config(payload: Mapping) -> FarmConfig:
    """The farm a baseline was recorded on (other settings default)."""
    _check_version(payload)
    try:
        farm = payload["farm"]
        shape = {name: int(farm[name]) for name in _FARM_SHAPE_FIELDS}
    except KeyError as missing:
        raise ConfigError(f"baseline payload missing {missing}") from None
    except (TypeError, ValueError) as error:
        raise ConfigError(f"malformed baseline farm shape: {error}") from None
    return FarmConfig(**shape)


def compare_to_baseline(
    payload: Mapping,
    config: FarmConfig,
    policy: PolicyLike,
    battery_config: Optional[BatteryConfig] = None,
    runner: Optional[SweepRunner] = None,
) -> EquivalenceReport:
    """Certify the current engine against a committed baseline.

    Re-runs the engine at the baseline's pinned seeds and compares
    *paired* — the highest-power configuration, since any systematic
    per-seed drift trips the sign tests.  ``config`` must have the farm
    shape the baseline was recorded on; another shape is a different
    farm, not a variant of the engine.
    """
    name = resolve_strategy(policy).name
    recorded = _farm_shape(baseline_config(payload))
    if _farm_shape(config) != recorded:
        raise ConfigError(
            f"baseline was recorded on farm {recorded}; "
            f"the config's farm is {_farm_shape(config)}"
        )
    policies = _baseline_policies(payload)
    if name not in policies:
        raise ConfigError(
            f"baseline has no policy {name!r}; it covers {sorted(policies)}"
        )
    baseline = _decode_policy(name, policies[name])
    day_type = _baseline_day_type(payload)
    seeds = baseline_seeds(payload)
    current = run_reference_ensemble(
        config, policy, day_type, seeds, runner=runner
    )
    return compare_fingerprints(
        baseline,
        current,
        config=battery_config,
        label_a="baseline",
        label_b="current-engine",
    )


def write_baseline(path: str, payload: Mapping) -> None:
    """Write a baseline payload with stable formatting (golden-friendly)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_baseline(path: str) -> dict:
    """Read a baseline payload written by :func:`write_baseline`; a
    malformed field is a :class:`ConfigError` naming it."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError("a baseline payload is a JSON object")
    baseline_config(payload)
    _baseline_day_type(payload)
    baseline_seeds(payload)
    load_baseline(payload)
    return payload
