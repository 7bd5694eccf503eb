"""The perfbench regression gate (``perfbench --check``).

The gate fails on a large slowdown of a shared case and on any change
to a shared case's fingerprint, naming the case and the first key, in
sorted order, at which the fingerprints differ.
"""

import copy

from repro.perfbench import check_regression, load_report
from tests.test_cli import BENCH_HOTPATH_PATH

ZONED = "zoned/Default/5k-8z"


def _committed():
    return load_report(BENCH_HOTPATH_PATH)


def test_committed_report_passes_against_itself():
    report = _committed()
    assert check_regression(report, report) == []


def test_changed_fingerprint_fails_naming_case_and_first_key():
    baseline = _committed()
    report = copy.deepcopy(baseline)
    fingerprint = report["cases"][ZONED]["fingerprint"]
    fingerprint["counters"]["suspends"] += 1
    fingerprint["equiv"]["mean_delay_s"] += 1e-12
    fingerprint["equiv"]["state_energy_j"]["powered"] += 1.0
    assert check_regression(report, baseline) == [
        f"{ZONED}: result differs from the baseline at "
        "fingerprint.counters.suspends"
    ]


def test_key_present_on_one_side_only_is_a_difference():
    baseline = _committed()
    report = copy.deepcopy(baseline)
    del report["cases"][ZONED]["fingerprint"]["equiv"]["faults"]
    assert check_regression(report, baseline) == [
        f"{ZONED}: result differs from the baseline at "
        "fingerprint.equiv.faults"
    ]
    assert check_regression(baseline, report) == [
        f"{ZONED}: result differs from the baseline at "
        "fingerprint.equiv.faults"
    ]


def test_slowdown_and_result_change_are_both_reported():
    baseline = _committed()
    report = copy.deepcopy(baseline)
    case = report["cases"][ZONED]
    case["timing"]["best_s"] *= 3.0
    case["fingerprint"]["equiv"]["sleep_hist"][0] += 1
    failures = check_regression(report, baseline)
    assert len(failures) == 2
    assert failures[0].startswith(f"{ZONED}: ")
    assert "x limit" in failures[0]
    assert failures[1] == (
        f"{ZONED}: result differs from the baseline at "
        "fingerprint.equiv.sleep_hist"
    )


def test_only_shared_cases_are_compared():
    baseline = _committed()
    report = copy.deepcopy(baseline)
    report["cases"]["extra/case"] = copy.deepcopy(report["cases"][ZONED])
    report["cases"]["extra/case"]["fingerprint"]["seed"] = 1
    assert check_regression(report, baseline) == []
