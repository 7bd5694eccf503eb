"""What every entry point accepts as a policy.

A policy is a :class:`PolicySpec` or its name.  The manager, the farm
engine, the sweeps, the zoned runner and the equivalence harness take
either and call :func:`resolve_strategy`; a name goes through
:func:`~repro.core.policies.policy_by_name`, so a custom spec that no
name reaches works wherever a name does.
"""

from __future__ import annotations

from typing import Union

from repro.core.policies import PolicySpec, policy_by_name
from repro.errors import ConfigError

__all__ = ["PolicyLike", "resolve_strategy"]

PolicyLike = Union[PolicySpec, str]


def resolve_strategy(policy: PolicyLike) -> PolicySpec:
    """The spec itself, or the spec a name resolves to."""
    if isinstance(policy, PolicySpec):
        return policy
    if isinstance(policy, str):
        return policy_by_name(policy)
    raise ConfigError(
        f"cannot resolve {policy!r} to a policy; expected a PolicySpec "
        "or a policy name"
    )
