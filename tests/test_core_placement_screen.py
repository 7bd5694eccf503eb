"""The vacate screen skips only hosts whose attempt would roll back.

Every planning pass of a seeded small-farm day is audited.  The audit
walks the pass's candidates (powered compute hosts with VMs) in the
planner's cheapest-first order and, at each host's turn, computes the
screen's three verdicts itself:

* ``blocked``: an active VM under a policy that moves none, or an idle
  VM idle for fewer than ``min_idle_intervals`` intervals;
* ``largest``: the largest active VM exceeds every host's spare memory;
* ``bound``: the VMs' least total size exceeds all spare memory.

A host's spare memory is its free memory; under Γ-robust planning it
is its free memory less the sum of its Γ largest spike rooms, which
every robust placement leaves free.  The least size counts active VMs
in full and idle ones at the sampler's least working set, or, under Γ,
at the demand model's nominal, the size a Γ plan places them at.

For a host the planner skips, the unscreened vacate loop, run on copies
of the shadow and of the planner's RNG as they stood at its turn, must
return None, and the real shadow and RNG must be as the previous attempt
left them.  Every skipped host has a verdict, and a host the audit would
screen out but the planner attempts must fail too.  The counts of
skipped hosts show each check had work to do; for Γ planners, the
``gamma`` counts show the Γ-aware checks skipping hosts the
point-estimate checks would have let through.
"""

import copy
import heapq
from collections import Counter

import pytest

from repro.core import policy_by_name
from repro.core.placement import GreedyVacatePlanner, _ShadowCapacity
from repro.farm import FarmConfig, simulate_day
from repro.traces import DayType
from repro.vm import VmActivity

FARM = dict(home_hosts=8, consolidation_hosts=2, vms_per_host=30)


def _shadow_state(shadow):
    return (
        list(shadow.free), list(shadow.effective), set(shadow.woken),
        [list(rooms) for rooms in shadow.rooms],
    )


def _demand(planner, host):
    """The planner's sort key, summed the way the planner sums it."""
    expected = planner.working_sets.expected_mib()
    demand = 0.0
    for vm in host.vms():
        memory = vm.memory_mib
        if vm.activity is VmActivity.ACTIVE:
            demand += memory
        else:
            demand += expected if expected < memory else memory
    return demand


def _spare(shadow, gamma):
    """Per host, free memory, less the sum of its Γ largest spike rooms
    under a Γ."""
    if gamma is None:
        return list(shadow.free)
    return [
        free - sum(heapq.nlargest(gamma, [-negated for negated in rooms]))
        for free, rooms in zip(shadow.free, shadow.rooms)
    ]


def _verdict(planner, host, shadow, gamma):
    """Which screen check, under the fit rule of ``gamma``, rejects
    ``host`` against ``shadow``, or None."""
    least = planner.working_sets.min_mib
    largest = bound = 0.0
    for vm in host.vms():
        memory = vm.memory_mib
        if vm.activity is VmActivity.ACTIVE:
            if not planner.policy.full_migrate_active:
                return "blocked"
            largest = max(largest, memory)
            bound += memory
        else:
            if vm.idle_intervals < planner.min_idle_intervals:
                return "blocked"
            if gamma is None:
                bound += min(least, memory)
            else:
                bound += planner._idle_demand(vm)[0]
    spare = _spare(shadow, gamma)
    positive = [room for room in spare if room > 0.0]
    if largest > max(spare) + 1e-9:
        return "largest"
    if bound > sum(positive) + 1e-9 * (len(spare) + sum(positive)):
        return "bound"
    return None


class ScreenAudit:
    """Wraps ``plan``, both vacate loops and compaction to audit every
    pass."""

    def __init__(self, monkeypatch):
        #: verdicts of the hosts the planner skipped.
        self.skipped = Counter()
        self.plan = GreedyVacatePlanner.plan
        self.compaction = GreedyVacatePlanner._plan_compaction
        self.loops = {
            "_try_vacate": GreedyVacatePlanner._try_vacate,
            "_try_vacate_robust": GreedyVacatePlanner._try_vacate_robust,
        }
        # Plain functions, so the planner binds as their first argument.
        def plan(planner, cluster, compact_consolidation=True):
            return self._plan(planner, cluster, compact_consolidation)

        def compaction(planner, cluster, shadow):
            self._assert_untouched(planner, shadow)
            return self.compaction(planner, cluster, shadow)

        monkeypatch.setattr(GreedyVacatePlanner, "plan", plan)
        monkeypatch.setattr(
            GreedyVacatePlanner, "_plan_compaction", compaction
        )
        for name in self.loops:
            monkeypatch.setattr(
                GreedyVacatePlanner, name, self._attempt_with(name)
            )

    def _loop(self, planner):
        name = "_try_vacate" if planner.gamma is None else "_try_vacate_robust"
        return self.loops[name]

    def _rng_state(self, planner):
        return None if planner.rng is None else planner.rng.getstate()

    def _assert_untouched(self, planner, shadow):
        """Every host since the last attempt was skipped with no shadow
        write and no draw."""
        assert _shadow_state(shadow) == _shadow_state(self.shadow)
        assert self._rng_state(planner) == self.rng_state

    def _plan(self, planner, cluster, compact_consolidation=True):
        self.planner = planner
        self.turns = sorted(
            (
                host for host in cluster.home_hosts
                if host.is_powered and host.vm_count > 0
            ),
            key=lambda host: _demand(planner, host),
        )
        if planner.gamma is None:
            self.shadow = _ShadowCapacity(cluster)
        else:
            self.shadow = _ShadowCapacity(
                cluster, planner.gamma, planner._resident_room
            )
        self.rng_state = self._rng_state(planner)
        plan = self.plan(planner, cluster, compact_consolidation)
        for host in self.turns:
            self._skip(host)
        return plan

    def _attempt_with(self, name):
        def attempt(planner, host, shadow):
            self._assert_untouched(planner, shadow)
            while self.turns[0] is not host:
                self._skip(self.turns.pop(0))
            self.turns.pop(0)
            verdict = _verdict(planner, host, shadow, planner.gamma)
            migrations = self.loops[name](planner, host, shadow)
            if verdict is not None:
                assert migrations is None, (host.host_id, verdict)
            self.shadow = copy.deepcopy(shadow)
            self.rng_state = self._rng_state(planner)
            return migrations
        return attempt

    def _skip(self, host):
        """Run the unscreened attempt the planner skipped, on copies."""
        planner = self.planner
        verdict = _verdict(planner, host, self.shadow, planner.gamma)
        assert verdict is not None, host.host_id
        self.skipped[verdict] += 1
        if planner.gamma is not None and (
            _verdict(planner, host, self.shadow, None) is None
        ):
            self.skipped[f"gamma {verdict}"] += 1
        rng = planner.rng
        if rng is not None:
            planner.rng = copy.deepcopy(rng)
            planner.rng.setstate(self.rng_state)
        try:
            result = self._loop(planner)(
                planner, host, copy.deepcopy(self.shadow)
            )
        finally:
            planner.rng = rng
        assert result is None, host.host_id


@pytest.mark.parametrize("policy,min_idle,seed,checks", [
    ("Default", 1, 3, {"largest", "bound"}),
    ("OnlyPartial", 1, 4, {"blocked"}),
    ("Default", 3, 5, {"blocked"}),
    ("GammaRobust@1", 1, 6, {"gamma largest", "gamma bound"}),
    # Under Γ = 0 the spare is the free memory, so only the bound at
    # the nominal can skip more than the point-estimate checks.
    ("GammaRobust@0", 1, 6, {"largest", "bound", "gamma bound"}),
    ("GammaRobust@3", 1, 7, {"gamma largest", "gamma bound"}),
])
def test_screen_skips_only_hosts_that_cannot_be_vacated(
    monkeypatch, policy, min_idle, seed, checks
):
    audit = ScreenAudit(monkeypatch)
    config = FarmConfig(**FARM, min_idle_intervals=min_idle)
    simulate_day(config, policy_by_name(policy), DayType.WEEKDAY, seed=seed)
    for check in checks:
        assert audit.skipped[check] > 0, audit.skipped
