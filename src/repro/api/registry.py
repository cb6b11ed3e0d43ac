"""String-keyed strategy registry for the client API.

The paper's evaluation compares four rebalancing approaches; client code
should be able to name them (``strategy="dynahash"``) rather than import and
construct strategy classes.  The registry itself lives next to the strategy
classes (:mod:`repro.rebalance.strategies`); this module is the public face:

* :func:`resolve_strategy` — turn ``None`` / a name / an instance into a
  strategy object (what :class:`repro.api.Database` calls),
* :func:`strategy_by_name` — name -> fresh instance, with factory kwargs,
* :func:`register_strategy` — plug in custom strategies,
* :func:`available_strategies` — the valid names for error messages and CLIs.
"""

from __future__ import annotations

from typing import Any, Optional

from ..common.errors import ConfigError
from ..rebalance.strategies import (
    RebalancingStrategy,
    available_strategies,
    register_strategy,
    strategy_by_name,
)

__all__ = [
    "available_strategies",
    "register_strategy",
    "resolve_strategy",
    "strategy_by_name",
]


def resolve_strategy(
    strategy: "Optional[str | RebalancingStrategy]", **kwargs: Any
) -> Optional[RebalancingStrategy]:
    """Resolve a strategy given as ``None``, a registered name, or an instance.

    ``None`` passes through (the cluster then defaults to DynaHash-style
    directory routing and requires a strategy before any resize).  A string is
    looked up in the registry, forwarding ``kwargs`` to the factory.  Anything
    else must already look like a strategy: have the ``rebalance_cluster_steps``
    generator, the one hook the cluster calls for every resize (drained for
    run-to-completion, stepped under an event scheduler).
    """
    if strategy is None:
        if kwargs:
            raise ConfigError("strategy options given without a strategy name")
        return None
    if isinstance(strategy, str):
        return strategy_by_name(strategy, **kwargs)
    if kwargs:
        raise ConfigError("strategy options are only valid with a strategy name")
    if not hasattr(strategy, "rebalance_cluster_steps"):
        raise ConfigError(
            f"{strategy!r} is not a rebalancing strategy (missing the "
            "rebalance_cluster_steps generator); pass an instance or one of: "
            f"{', '.join(available_strategies())}"
        )
    # A run-to-completion override more derived than the generator it is
    # drained from would never be called: reject it here, not mid-run.
    mro = type(strategy).__mro__

    def defined_at(name: str) -> int:
        return next((depth for depth, cls in enumerate(mro) if name in vars(cls)), len(mro))

    if defined_at("rebalance_cluster") < defined_at("rebalance_cluster_steps"):
        raise ConfigError(
            f"{strategy!r} overrides rebalance_cluster, which the cluster never calls; "
            "override the rebalance_cluster_steps generator instead "
            "(rebalance_cluster is that generator drained)"
        )
    return strategy
