"""Idle working-set sampling.

The paper's simulator samples each partial VM's memory consumption from
the distribution measured by Jettison: idle desktop VMs with 4 GiB of RAM
had working sets of 165.63 +/- 91.38 MiB, under 4% of the allocation
(§5.1).  We model this as a normal distribution truncated to a sane
range (a working set is at least a few MiB of kernel-resident state and
never exceeds the allocation).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ConfigError

#: Moments reported in §5.1 (from the Jettison trace analysis).
JETTISON_MEAN_MIB = 165.63
JETTISON_STD_MIB = 91.38


@dataclass(frozen=True)
class WorkingSetSampler:
    """Truncated-normal sampler for idle working-set sizes (MiB)."""

    mean_mib: float = JETTISON_MEAN_MIB
    std_mib: float = JETTISON_STD_MIB
    min_mib: float = 16.0
    max_mib: float = 1024.0

    def __post_init__(self) -> None:
        if self.mean_mib <= 0.0 or self.std_mib < 0.0:
            raise ConfigError("working-set mean must be positive, std >= 0")
        if not self.min_mib <= self.mean_mib <= self.max_mib:
            raise ConfigError("working-set mean must lie within [min, max]")

    def sample(self, rng: random.Random) -> float:
        """Draw one working-set size, MiB.

        Uses rejection against the truncation bounds; with the default
        parameters fewer than ~4% of draws are rejected, so this
        terminates fast.  Falls back to clamping after a bounded number
        of rejections to stay total even for pathological configs.

        The vacate planner calls this once per idle VM it tries to
        place, so the bounds and ``rng.gauss`` are bound to locals.
        """
        gauss = rng.gauss
        mean = self.mean_mib
        std = self.std_mib
        low = self.min_mib
        high = self.max_mib
        for _ in range(64):
            value = gauss(mean, std)
            if low <= value <= high:
                return value
        return min(max(gauss(mean, std), low), high)

    def expected_mib(self) -> float:
        """The (approximate) mean of the truncated distribution.

        With the default parameters truncation is mild, so the untruncated
        mean is an adequate expectation for capacity planning.
        """
        return self.mean_mib

