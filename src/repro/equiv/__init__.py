"""Statistical engine-equivalence battery (DESIGN.md §16).

Certifies that two simulation engines are *statistically equivalent*:
over an ensemble of pinned seeds their run fingerprints — total and
per-state energy, migration/fault counters, per-category traffic, and
sleep-duration histograms — are indistinguishable under a
Bonferroni-controlled battery of pure-stdlib two-sample tests.  The
battery proves its own power by mutation self-tests: deliberately
defective engines it must reject, and the reference engine it must
accept against itself across disjoint seed ranges.

Entry points: ``repro equiv selftest|baseline|compare`` on the CLI, or
:func:`~repro.equiv.harness.run_selftest` /
:func:`~repro.equiv.harness.compare_to_baseline` from code.
"""

from repro.equiv.battery import (
    COMMITTED_ENSEMBLE_SIZE,
    BatteryConfig,
    EquivalenceReport,
    MetricVerdict,
    compare_fingerprints,
    report_from_dict,
)
from repro.equiv.fingerprint import (
    SLEEP_HIST_BINS,
    RunFingerprint,
    continuous_metrics,
    counter_metrics,
    fingerprint_from_dict,
    fingerprint_from_result,
)
from repro.equiv.harness import (
    BASELINE_VERSION,
    MutantTrial,
    SelftestReport,
    baseline_config,
    baseline_seeds,
    build_baseline,
    compare_to_baseline,
    ensemble_seeds,
    load_baseline,
    read_baseline,
    run_mutant_ensemble,
    run_reference_ensemble,
    run_selftest,
    write_baseline,
)
from repro.equiv.mutants import (
    IDENTITY,
    MUTANTS,
    Mutant,
    apply_mutant,
    mutant_by_name,
    mutant_names,
)
from repro.equiv.stats import (
    TestResult,
    binom_two_sided_p,
    chi_square_homogeneity,
    chi_square_p_value,
    count_split_p_value,
    ks_p_value,
    ks_statistic,
    ks_two_sample,
    sign_test_p_value,
)

__all__ = [
    "COMMITTED_ENSEMBLE_SIZE",
    "BatteryConfig",
    "EquivalenceReport",
    "MetricVerdict",
    "compare_fingerprints",
    "report_from_dict",
    "SLEEP_HIST_BINS",
    "RunFingerprint",
    "continuous_metrics",
    "counter_metrics",
    "fingerprint_from_dict",
    "fingerprint_from_result",
    "BASELINE_VERSION",
    "MutantTrial",
    "SelftestReport",
    "baseline_config",
    "baseline_seeds",
    "build_baseline",
    "compare_to_baseline",
    "ensemble_seeds",
    "load_baseline",
    "read_baseline",
    "run_mutant_ensemble",
    "run_reference_ensemble",
    "run_selftest",
    "write_baseline",
    "IDENTITY",
    "MUTANTS",
    "Mutant",
    "apply_mutant",
    "mutant_by_name",
    "mutant_names",
    "TestResult",
    "binom_two_sided_p",
    "chi_square_homogeneity",
    "chi_square_p_value",
    "count_split_p_value",
    "ks_p_value",
    "ks_statistic",
    "ks_two_sample",
    "sign_test_p_value",
]
