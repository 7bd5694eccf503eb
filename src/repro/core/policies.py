"""Consolidation policy specifications (§3.2).

The four policies evaluated by the paper differ along three axes, so a
policy here is a small immutable specification rather than a class
hierarchy:

* may active VMs be migrated in full? (``OnlyPartial``: no — it is the
  pure partial-migration baseline);
* may an activating partial VM be converted to a full VM in place when
  the consolidation host has room? (``OnlyPartial``: no — it always
  returns home, as Jettison did for desktops);
* are consolidated full VMs that turn idle exchanged for partial ones?
  (``FulltoPartial`` and ``NewHome``: yes);
* on capacity exhaustion, is any other powered host tried before waking
  the VM's home? (``NewHome``: yes).

One more field picks the planner.  Without a ``gamma`` the manager plans
with the paper's greedy vacate planner; with one it plans Γ-robustly
(:mod:`repro.policies.gamma`).  :func:`gamma_robust` builds such a spec,
and :func:`policy_by_name` maps every name in the CLI, the sweeps and
the goldens to its spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError


@dataclass(frozen=True)
class PolicySpec:
    """One consolidation policy as a set of behavioural switches."""

    name: str
    #: Vacating a home may live-migrate its active VMs to consolidation
    #: hosts.  False makes the policy partial-migration-only.
    full_migrate_active: bool
    #: An activating partial VM converts to full in place when the
    #: consolidation host has capacity (otherwise it must return home).
    convert_in_place: bool
    #: Consolidated full VMs that become idle are pushed back to their
    #: home and immediately re-consolidated as partial VMs.
    exchange_idle_full: bool
    #: On capacity exhaustion, try any powered host as a new home before
    #: waking the VM's home host.
    rehome_on_exhaustion: bool
    #: Γ of the Γ-robust planner: placements must still fit when any Γ
    #: of a host's VMs spike.  ``None`` plans with the paper's planner.
    gamma: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("policy needs a name")
        if self.gamma is not None:
            if not isinstance(self.gamma, int):
                raise ConfigError(
                    f"gamma must be an integer, got {self.gamma!r}"
                )
            if self.gamma < 0:
                raise ConfigError(f"gamma must be >= 0, got {self.gamma}")
        if self.exchange_idle_full and not self.full_migrate_active:
            raise ConfigError(
                "exchange_idle_full requires full migrations "
                "(there are no consolidated full VMs without them)"
            )


ONLY_PARTIAL = PolicySpec(
    name="OnlyPartial",
    full_migrate_active=False,
    convert_in_place=False,
    exchange_idle_full=False,
    rehome_on_exhaustion=False,
)

DEFAULT = PolicySpec(
    name="Default",
    full_migrate_active=True,
    convert_in_place=True,
    exchange_idle_full=False,
    rehome_on_exhaustion=False,
)

FULL_TO_PARTIAL = PolicySpec(
    name="FulltoPartial",
    full_migrate_active=True,
    convert_in_place=True,
    exchange_idle_full=True,
    rehome_on_exhaustion=False,
)

NEW_HOME = PolicySpec(
    name="NewHome",
    full_migrate_active=True,
    convert_in_place=True,
    exchange_idle_full=True,
    rehome_on_exhaustion=True,
)

ALL_POLICIES: Tuple[PolicySpec, ...] = (
    ONLY_PARTIAL,
    DEFAULT,
    FULL_TO_PARTIAL,
    NEW_HOME,
)

#: The Γ-robust family's name; ``GammaRobust@Γ`` names one member.
GAMMA_ROBUST = "GammaRobust"


def gamma_robust(gamma: int = 1) -> PolicySpec:
    """``GammaRobust@Γ``: Default's switches, so that only Γ-robust
    placement sets it apart."""
    return PolicySpec(
        name=f"{GAMMA_ROBUST}@{gamma}",
        full_migrate_active=True,
        convert_in_place=True,
        exchange_idle_full=False,
        rehome_on_exhaustion=False,
        gamma=gamma,
    )


_BY_NAME: Dict[str, PolicySpec] = {
    policy.name.lower(): policy for policy in ALL_POLICIES
}


def policy_names() -> List[str]:
    """The names :func:`policy_by_name` accepts (``GammaRobust`` also
    takes ``@Γ``)."""
    return [policy.name for policy in ALL_POLICIES] + [GAMMA_ROBUST]


def policy_by_name(name: str) -> PolicySpec:
    """Look up a policy case-insensitively: one of the paper's four,
    ``GammaRobust`` (Γ = 1) or ``GammaRobust@Γ``."""
    found = _BY_NAME.get(name.lower())
    if found is not None:
        return found
    family, separator, argument = name.partition("@")
    if family.lower() == GAMMA_ROBUST.lower():
        if not separator:
            return gamma_robust()
        try:
            gamma = int(argument)
        except ValueError:
            raise ConfigError(
                f"{GAMMA_ROBUST} parameter must be an integer Γ, "
                f"got {argument!r}"
            ) from None
        return gamma_robust(gamma)
    raise ConfigError(
        f"unknown policy {name!r}; choose from {policy_names()}"
    )
