"""Idle-VM page access processes (Figure 1 and Figure 2 inputs).

An idle VM's page traffic has two visible signatures:

* the *unique footprint* curve — cumulative distinct memory touched
  since the idle period began.  Background services (mail polls, cron,
  heartbeats, IM keep-alives) re-reference a core set quickly and then
  keep discovering new pages at a slow, roughly linear rate.  We model
  it as ``unique(t) = core * (1 - exp(-t / tau)) + rate * t``;
* the *request process* — page-fault bursts: background timers fire in
  clusters (a mail poll touches tens of pages back to back), so
  requests arrive in Poisson bursts with geometric sizes.

Profiles are calibrated so one hour of idling reproduces the paper's
unique footprints (desktop 188.2 / web 37.6 / database 30.6 MiB) and the
paper's request statistics (a single database VM sees ~3.9 min mean
inter-request gaps; five database + five web VMs aggregate to ~5.8 s).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List

from repro.errors import ConfigError


@dataclass(frozen=True)
class VmProfile:
    """Idle behaviour of one VM type."""

    name: str
    #: Fast-referenced core working set, MiB.
    core_mib: float
    #: Time constant for touching the core, seconds.
    core_tau_s: float
    #: Slow discovery of new pages, MiB per second.
    discovery_mib_per_s: float
    #: Mean gap between page-fault *bursts*, seconds.
    burst_gap_s: float
    #: Mean number of page requests per burst (geometric).
    burst_pages_mean: float

    def __post_init__(self) -> None:
        if self.core_mib < 0.0 or self.discovery_mib_per_s < 0.0:
            raise ConfigError(f"{self.name}: footprint terms must be >= 0")
        if self.core_tau_s <= 0.0 or self.burst_gap_s <= 0.0:
            raise ConfigError(f"{self.name}: time constants must be positive")
        if self.burst_pages_mean < 1.0:
            raise ConfigError(f"{self.name}: bursts contain >= 1 page")

    def unique_mib(self, t_s: float) -> float:
        """Expected unique memory touched after ``t_s`` seconds idle."""
        if t_s < 0.0:
            raise ConfigError("time must be non-negative")
        core = self.core_mib * (1.0 - math.exp(-t_s / self.core_tau_s))
        return core + self.discovery_mib_per_s * t_s


#: Desktop VM (GNOME + office apps + browser): many background services
#: keep a sizeable core warm; 1 h of idling touches ~188.2 MiB.
DESKTOP_PROFILE = VmProfile(
    name="desktop",
    core_mib=60.0,
    core_tau_s=900.0,
    discovery_mib_per_s=(188.2 - 60.0) / 3600.0,
    burst_gap_s=40.0,
    burst_pages_mean=18.0,
)

#: Web server (RUBiS front end): periodic health checks and log flushes
#: emit near-isolated requests; ~37.6 MiB over an idle hour.  Chattier
#: than the database — one request every ~33 s.
WEB_PROFILE = VmProfile(
    name="web",
    core_mib=14.0,
    core_tau_s=600.0,
    discovery_mib_per_s=(37.6 - 14.0) / 3600.0,
    burst_gap_s=33.1,
    burst_pages_mean=1.0,
)

#: Database server (RUBiS MySQL): ~30.6 MiB over an idle hour; one
#: request roughly every four minutes, giving the paper's 3.9 min mean
#: page-request inter-arrival for a lone database VM.
DATABASE_PROFILE = VmProfile(
    name="database",
    core_mib=12.0,
    core_tau_s=600.0,
    discovery_mib_per_s=(30.6 - 12.0) / 3600.0,
    burst_gap_s=234.0,
    burst_pages_mean=1.0,
)


class IdleAccessModel:
    """Samples page-request arrival times for one idle VM."""

    def __init__(self, profile: VmProfile, rng: random.Random) -> None:
        self.profile = profile
        self._rng = rng

    def request_times(self, horizon_s: float) -> List[float]:
        """Page-request instants over ``[0, horizon_s)``.

        Bursts arrive as a Poisson process with mean gap
        ``profile.burst_gap_s``; each burst contains a geometric number
        of page requests spaced milliseconds apart.
        """
        if horizon_s <= 0.0:
            raise ConfigError("horizon must be positive")
        rng = self._rng
        profile = self.profile
        times: List[float] = []
        t = rng.expovariate(1.0 / profile.burst_gap_s)
        while t < horizon_s:
            pages = self._geometric(profile.burst_pages_mean)
            for index in range(pages):
                instant = t + index * 0.002
                if instant < horizon_s:
                    times.append(instant)
            t += rng.expovariate(1.0 / profile.burst_gap_s)
        return times

    def unique_curve(self, horizon_s: float, step_s: float = 60.0):
        """(time, expected unique MiB) samples of the footprint curve."""
        if step_s <= 0.0:
            raise ConfigError("step must be positive")
        samples = []
        t = 0.0
        while t <= horizon_s:
            samples.append((t, self.profile.unique_mib(t)))
            t += step_s
        return samples

    def _geometric(self, mean: float) -> int:
        success = 1.0 / mean
        count = 1
        while self._rng.random() > success:
            count += 1
        return count


def merge_request_streams(streams: List[List[float]]) -> List[float]:
    """Merge per-VM request instants into one sorted aggregate stream."""
    merged: List[float] = []
    for stream in streams:
        merged.extend(stream)
    merged.sort()
    return merged


def mean_interarrival_s(times: List[float]) -> float:
    """Mean gap between consecutive request instants."""
    if len(times) < 2:
        raise ConfigError("need at least two requests")
    return (times[-1] - times[0]) / (len(times) - 1)
