"""Typed per-run fingerprints: what "the same engine" must reproduce.

A :class:`RunFingerprint` compresses one day's
:class:`~repro.farm.metrics.FarmResult` into the distributional facts
engine equivalence is judged on — total and per-state energy, the
migration/fault counters, per-category traffic, delay statistics, and
the home-host sleep-duration histogram.  It deliberately drops
trajectory detail (event timings, per-interval series): a statistically
equivalent engine is free to reorder work within a day, but over a seed
ensemble these marginals must match.

Fingerprints are frozen, hashable, and JSON round-trippable
(:meth:`RunFingerprint.as_dict` / :func:`fingerprint_from_dict`) so
reference ensembles can be committed as goldens
(``tests/golden/equiv_baseline.json``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.errors import ConfigError
from repro.farm.metrics import FarmResult

__all__ = [
    "SLEEP_HIST_BINS",
    "RunFingerprint",
    "fingerprint_from_result",
    "fingerprint_from_dict",
    "continuous_metrics",
    "counter_metrics",
]

#: Bin count of the home-host sleep-fraction histogram (equal-width
#: bins over [0, 1]; a host asleep the whole day lands in the last bin).
SLEEP_HIST_BINS = 8

Pairs = Tuple[Tuple[str, float], ...]


def _pairs(mapping: Mapping[str, float]) -> Pairs:
    return tuple(sorted((str(k), float(v)) for k, v in mapping.items()))


@dataclass(frozen=True)
class RunFingerprint:
    """The equivalence-relevant marginals of one simulated day."""

    seed: int
    policy: str
    day_type: str

    #: Total managed energy over the day (Figure 8's numerator).
    total_energy_j: float
    #: Energy per power state plus the lump-surcharge bucket.
    state_energy_j: Pairs
    #: Residence seconds per power state, summed over hosts.
    state_time_s: Pairs
    #: Migration/operation counters (``MigrationCounters`` fields).
    counters: Pairs
    #: Fault counters (``FaultCounters.as_dict`` fields).
    faults: Pairs
    #: Traffic MiB per ledger category.
    traffic_mib: Pairs
    #: All bytes that crossed the datacenter network.
    network_total_mib: float
    #: Mean idle-to-active delay and the zero-delay fraction (§5.5).
    mean_delay_s: float
    zero_delay_fraction: float
    #: Home-host sleep fractions binned into :data:`SLEEP_HIST_BINS`
    #: equal-width bins over [0, 1] (one entry per home host).
    sleep_hist: Tuple[int, ...]
    #: Mean home-host sleep fraction (the histogram's scalar shadow).
    mean_sleep_fraction: float

    def as_dict(self) -> dict:
        """A JSON-serializable snapshot (keys sorted for stable diffs)."""
        return {
            "seed": self.seed,
            "policy": self.policy,
            "day_type": self.day_type,
            "total_energy_j": self.total_energy_j,
            "state_energy_j": dict(self.state_energy_j),
            "state_time_s": dict(self.state_time_s),
            "counters": dict(self.counters),
            "faults": dict(self.faults),
            "traffic_mib": dict(self.traffic_mib),
            "network_total_mib": self.network_total_mib,
            "mean_delay_s": self.mean_delay_s,
            "zero_delay_fraction": self.zero_delay_fraction,
            "sleep_hist": list(self.sleep_hist),
            "mean_sleep_fraction": self.mean_sleep_fraction,
        }


def _sleep_histogram(
    home_sleep_s: Mapping[int, float], horizon_s: float
) -> Tuple[Tuple[int, ...], float]:
    if horizon_s <= 0.0:
        raise ConfigError("fingerprint needs a positive horizon")
    bins = [0] * SLEEP_HIST_BINS
    fractions = []
    for host_id in sorted(home_sleep_s):
        fraction = home_sleep_s[host_id] / horizon_s
        fraction = min(max(fraction, 0.0), 1.0)
        fractions.append(fraction)
        index = min(int(fraction * SLEEP_HIST_BINS), SLEEP_HIST_BINS - 1)
        bins[index] += 1
    mean_fraction = sum(fractions) / len(fractions) if fractions else 0.0
    return tuple(bins), mean_fraction


def fingerprint_from_result(result: FarmResult) -> RunFingerprint:
    """Extract the fingerprint of one finished run."""
    if result.energy is None:
        raise ConfigError("result has no energy report; did the run finish?")
    delays = result.delay_values()
    mean_delay = sum(delays) / len(delays) if delays else 0.0
    sleep_hist, mean_sleep = _sleep_histogram(
        result.home_sleep_s, result.horizon_s
    )
    return RunFingerprint(
        seed=result.seed,
        policy=result.policy_name,
        day_type=result.day_type,
        total_energy_j=result.energy.managed_joules,
        state_energy_j=_pairs(result.state_energy_j),
        state_time_s=_pairs(result.state_time_s),
        counters=_pairs(dataclasses.asdict(result.counters)),
        faults=_pairs(result.faults.as_dict()),
        traffic_mib=_pairs(result.traffic.as_dict()),
        network_total_mib=result.traffic.network_total_mib(),
        mean_delay_s=mean_delay,
        zero_delay_fraction=result.zero_delay_fraction(),
        sleep_hist=sleep_hist,
        mean_sleep_fraction=mean_sleep,
    )


#: Field -> decoder, for every field of a fingerprint payload.
_FIELD_DECODERS = (
    ("seed", int),
    ("policy", str),
    ("day_type", str),
    ("total_energy_j", float),
    ("state_energy_j", _pairs),
    ("state_time_s", _pairs),
    ("counters", _pairs),
    ("faults", _pairs),
    ("traffic_mib", _pairs),
    ("network_total_mib", float),
    ("mean_delay_s", float),
    ("zero_delay_fraction", float),
    ("sleep_hist", lambda values: tuple(int(v) for v in values)),
    ("mean_sleep_fraction", float),
)


def fingerprint_from_dict(payload: Mapping) -> RunFingerprint:
    """Rebuild a fingerprint from :meth:`RunFingerprint.as_dict` output;
    a missing or malformed field is a :class:`ConfigError` naming it."""
    if not isinstance(payload, Mapping):
        raise ConfigError(
            f"a fingerprint payload is a mapping, got {type(payload).__name__}"
        )
    fields = {}
    for name, decode in _FIELD_DECODERS:
        if name not in payload:
            raise ConfigError(f"fingerprint payload missing {name!r}")
        try:
            fields[name] = decode(payload[name])
        except (AttributeError, TypeError, ValueError) as error:
            raise ConfigError(
                f"malformed fingerprint field {name!r}: {error}"
            ) from None
    return RunFingerprint(**fields)


def continuous_metrics(fingerprint: RunFingerprint) -> Dict[str, float]:
    """The fingerprint's continuous metrics, flat and namespaced."""
    metrics = {
        "total_energy_j": fingerprint.total_energy_j,
        "network_total_mib": fingerprint.network_total_mib,
        "mean_delay_s": fingerprint.mean_delay_s,
        "zero_delay_fraction": fingerprint.zero_delay_fraction,
        "mean_sleep_fraction": fingerprint.mean_sleep_fraction,
    }
    for state, joules in fingerprint.state_energy_j:
        metrics[f"state_energy_j.{state}"] = joules
    for state, seconds in fingerprint.state_time_s:
        metrics[f"state_time_s.{state}"] = seconds
    for category, mib in fingerprint.traffic_mib:
        metrics[f"traffic_mib.{category}"] = mib
    return metrics


def counter_metrics(fingerprint: RunFingerprint) -> Dict[str, float]:
    """The fingerprint's event-count metrics, flat and namespaced."""
    metrics = {}
    for name, value in fingerprint.counters:
        metrics[f"counters.{name}"] = value
    for name, value in fingerprint.faults:
        metrics[f"faults.{name}"] = value
    return metrics
