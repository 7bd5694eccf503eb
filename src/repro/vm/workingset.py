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


class LazyWorkingSet:
    """Closed-form lazy working-set growth with exact eager replay.

    The eager model bumps a partial VM's resident size once per trace
    interval: ``size = min(size + delta, cap)``.  This class stores only
    ``(anchor interval, size at anchor, delta, cap)`` and materializes
    the size at any later interval on demand — no per-interval sweep.

    Materialization **replays the float recurrence step by step** rather
    than evaluating ``size + n * delta``: repeated float addition and
    the closed-form product differ in the last ulp, and the simulator's
    determinism contract is bit-for-bit.  The replay is still closed
    form in cost: ``min(size + delta, cap)`` pins at ``cap``, so at most
    ``ceil((cap - size) / delta)`` steps ever run no matter how far the
    clock jumped — quiet VMs cost O(steps-to-cap) once, not O(elapsed
    intervals).
    """

    __slots__ = ("delta_mib", "cap_mib", "_size_mib", "_anchor")

    def __init__(
        self,
        initial_mib: float,
        delta_mib: float,
        cap_mib: float,
        anchor_index: int = 0,
    ) -> None:
        if not 0.0 <= initial_mib <= cap_mib:
            raise ConfigError(
                f"initial working set {initial_mib} MiB outside "
                f"[0, {cap_mib}]"
            )
        if delta_mib < 0.0:
            raise ConfigError("working-set growth must be non-negative")
        self.delta_mib = delta_mib
        self.cap_mib = cap_mib
        self._size_mib = initial_mib
        self._anchor = anchor_index

    @property
    def anchor_index(self) -> int:
        """Interval index of the last materialization."""
        return self._anchor

    def size_at(self, index: int) -> float:
        """Size after ``index`` (MiB) without re-anchoring."""
        return self._replay(index)

    def advance_to(self, index: int) -> float:
        """Materialize at ``index``, re-anchor there, return the size."""
        size = self._replay(index)
        self._size_mib = size
        self._anchor = index
        return size

    def _replay(self, index: int) -> float:
        anchor = self._anchor
        if index < anchor:
            raise ConfigError(
                f"cannot materialize interval {index}: already anchored "
                f"at {anchor}"
            )
        size = self._size_mib
        delta = self.delta_mib
        if delta <= 0.0:
            return size
        cap = self.cap_mib
        for _ in range(index - anchor):
            if size >= cap:
                break
            size += delta
            if size > cap:
                size = cap
        return size
