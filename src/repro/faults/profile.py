"""Fault-rate configuration: how unreliable is the simulated datacenter.

A :class:`FaultProfile` parameterizes every fault class the injector can
produce.  All rates are *per exposure*: a migration-abort probability
applies to each migration operation, a wake-failure probability to each
resume attempt, a memory-server crash probability to each home host per
simulated day, and a page-timeout probability to each consolidation
episode's demand-fetch burst.

The defaults are all zero — the infallible cluster the paper simulates.
Named profiles (``none``, ``light``, ``heavy``) give the CLI and the
fault-rate sweeps shared reference points; :meth:`FaultProfile.scaled`
interpolates between them for sweep curves.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ConfigError

__all__ = [
    "FaultProfile",
    "FAULT_PROFILES",
    "fault_profile_by_name",
]


@dataclass(frozen=True)
class FaultProfile:
    """Per-exposure fault rates plus retry/abort semantics knobs."""

    name: str = "custom"

    # -- migration aborts ------------------------------------------------
    #: Probability that any one migration operation (full, partial,
    #: relocation, conversion, reintegration) aborts mid-flight.
    migration_abort_prob: float = 0.0
    #: The abort fires at a progress fraction drawn uniformly from this
    #: window; the traffic and bottleneck occupancy already spent up to
    #: that fraction are charged even though the VM rolls back.
    abort_progress_min: float = 0.05
    abort_progress_max: float = 0.95

    # -- host wake failures ----------------------------------------------
    #: Probability that one resume attempt of a sleeping host fails (the
    #: Wake-on-LAN packet is lost, or the host hangs and is watchdogged
    #: back to sleep).  Each failed attempt still pays the full resume
    #: transition at resume power.
    wake_failure_prob: float = 0.0
    #: Retries after the first failed attempt before the wake is declared
    #: dead and the policy reroutes the waiting VM instead.
    wake_retry_cap: int = 3
    #: Backoff before retry ``i`` (0-based) is ``base * 2**i`` seconds.
    wake_backoff_base_s: float = 4.0

    # -- memory-server crashes -------------------------------------------
    #: Probability that a home host's memory server crashes at some point
    #: during the day (at most once per host; the crash instant is drawn
    #: uniformly over the day by the fault plan).
    memserver_crash_prob: float = 0.0

    # -- transient page-fetch timeouts -----------------------------------
    #: Probability that a consolidation episode's demand-fetch burst hits
    #: at least one timeout on the shared link.
    page_timeout_prob: float = 0.0
    #: After a first timeout, each further timeout in the same episode
    #: occurs with the same probability, capped here.
    page_timeout_retries_max: int = 3
    #: Pages re-fetched per timeout (the timed-out burst is re-sent).
    page_retry_mib: float = 8.0

    def __post_init__(self) -> None:
        for field_name in (
            "migration_abort_prob",
            "wake_failure_prob",
            "memserver_crash_prob",
            "page_timeout_prob",
        ):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{field_name} must be in [0, 1], got {value}")
        if not 0.0 < self.abort_progress_min <= self.abort_progress_max < 1.0:
            raise ConfigError(
                "abort progress window must satisfy "
                "0 < min <= max < 1, got "
                f"[{self.abort_progress_min}, {self.abort_progress_max}]"
            )
        if self.wake_retry_cap < 0:
            raise ConfigError("wake_retry_cap must be non-negative")
        if not 0.0 < self.wake_backoff_base_s < math.inf:
            raise ConfigError("wake_backoff_base_s must be positive and finite")
        if self.page_timeout_retries_max < 1:
            raise ConfigError("page_timeout_retries_max must be >= 1")
        if not 0.0 <= self.page_retry_mib < math.inf:
            raise ConfigError("page_retry_mib must be non-negative and finite")

    @property
    def is_null(self) -> bool:
        """True when no fault of any class can ever fire."""
        return (
            self.migration_abort_prob == 0.0
            and self.wake_failure_prob == 0.0
            and self.memserver_crash_prob == 0.0
            and self.page_timeout_prob == 0.0
        )

    # -- derived profiles ------------------------------------------------

    def scaled(self, factor: float, name: str = "") -> "FaultProfile":
        """Every fault probability multiplied by ``factor`` (capped at 1).

        The retry/abort semantics knobs are preserved; this is the
        fault-rate sweep primitive.
        """
        if factor < 0.0:
            raise ConfigError(f"scale factor must be non-negative, got {factor}")

        def scale(p: float) -> float:
            return min(1.0, p * factor)

        return dataclasses.replace(
            self,
            name=name or f"{self.name}x{factor:g}",
            migration_abort_prob=scale(self.migration_abort_prob),
            wake_failure_prob=scale(self.wake_failure_prob),
            memserver_crash_prob=scale(self.memserver_crash_prob),
            page_timeout_prob=scale(self.page_timeout_prob),
        )

    @classmethod
    def none(cls) -> "FaultProfile":
        """The infallible cluster of the paper's simulator."""
        return cls(name="none")

    @classmethod
    def light(cls) -> "FaultProfile":
        """Occasional failures: a well-run production cluster."""
        return cls(
            name="light",
            migration_abort_prob=0.02,
            wake_failure_prob=0.05,
            memserver_crash_prob=0.02,
            page_timeout_prob=0.05,
        )

    @classmethod
    def heavy(cls) -> "FaultProfile":
        """Frequent failures: flaky power control and a saturated link."""
        return cls(
            name="heavy",
            migration_abort_prob=0.10,
            wake_failure_prob=0.20,
            memserver_crash_prob=0.25,
            page_timeout_prob=0.20,
        )


def _registry() -> Dict[str, FaultProfile]:
    return {
        profile.name: profile
        for profile in (
            FaultProfile.none(),
            FaultProfile.light(),
            FaultProfile.heavy(),
        )
    }


#: The named profiles the CLI exposes via ``--fault-profile``.
FAULT_PROFILES: Dict[str, FaultProfile] = _registry()

#: Stable CLI ordering.
FAULT_PROFILE_NAMES: Tuple[str, ...] = ("none", "light", "heavy")


def fault_profile_by_name(name: str) -> FaultProfile:
    """Resolve a named profile; raises :class:`ConfigError` when unknown."""
    try:
        return FAULT_PROFILES[name]
    except KeyError:
        raise ConfigError(
            f"unknown fault profile {name!r}; choose from "
            f"{sorted(FAULT_PROFILES)}"
        )
