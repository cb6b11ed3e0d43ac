"""Registry-key rules: strategy/policy string literals must name real
registry entries.

``strategy="dynahash"`` and ``policy="cost_aware"`` are string-keyed lookups
into the strategy registry (:mod:`repro.rebalance.strategies`) and the
autopilot policy registry (:mod:`repro.control.policy`).  A typo fails at
runtime — deep inside a scenario, or not until CI runs the one example using
it.  These rules fail it at lint time instead:

* ``reg-unknown-strategy`` / ``reg-unknown-policy`` — a ``strategy=`` /
  ``policy=`` keyword literal (or the first argument of
  ``strategy_by_name``/``resolve_strategy``/``policy_by_name``/
  ``resolve_policy``) that is not a registered name or alias.
* ``reg-spec-key`` — a committed TOML scenario spec whose
  ``[cluster] strategy`` or ``[autopilot] policy`` is unregistered.

Names registered *in the same file* via ``register_strategy``/
``register_policy`` literal calls are allowed (tests and cookbook examples
plug in custom entries before using them); lookups are case-insensitive,
matching the registries.
"""

from __future__ import annotations

import ast
import re
import tomllib
from typing import FrozenSet, List, Optional, Set, Tuple

from .context import FileContext
from .violations import Violation

__all__ = ["check", "check_toml", "known_policy_names", "known_strategy_names"]


def known_strategy_names() -> FrozenSet[str]:
    """Every accepted strategy name and alias (lowercase), from the live registry."""
    from ..rebalance.strategies import _STRATEGY_ALIASES

    return frozenset(_STRATEGY_ALIASES)


def known_policy_names() -> FrozenSet[str]:
    """Every accepted policy name and alias (lowercase), from the live registry."""
    from ..control.policy import _POLICY_ALIASES

    return frozenset(_POLICY_ALIASES)


_STRATEGY_RESOLVERS = frozenset({"strategy_by_name", "resolve_strategy"})
_POLICY_RESOLVERS = frozenset({"policy_by_name", "resolve_policy"})
_REGISTER_FUNCS = {"register_strategy": "strategy", "register_policy": "policy"}


def _call_name(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _literal_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _local_registrations(tree: ast.Module) -> Tuple[Set[str], Set[str]]:
    """Names registered by literal register_* calls in this file."""
    strategies: Set[str] = set()
    policies: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        kind = _REGISTER_FUNCS.get(_call_name(node) or "")
        if kind is None:
            continue
        names: Set[str] = set()
        if node.args:
            name = _literal_str(node.args[0])
            if name:
                names.add(name.lower())
        for kw in node.keywords:
            if kw.arg == "aliases" and isinstance(kw.value, (ast.Tuple, ast.List)):
                names.update(
                    alias.lower()
                    for alias in map(_literal_str, kw.value.elts)
                    if alias is not None
                )
        (strategies if kind == "strategy" else policies).update(names)
    return strategies, policies


class _Visitor(ast.NodeVisitor):
    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.found: List[Violation] = []
        local_strategies, local_policies = _local_registrations(ctx.tree)
        self.strategies = known_strategy_names() | local_strategies
        self.policies = known_policy_names() | local_policies

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        self.found.append(
            Violation(
                self.ctx.relpath,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0) + 1,
                rule,
                message,
            )
        )

    def _check_name(self, node: ast.AST, kind: str, value: str) -> None:
        known = self.strategies if kind == "strategy" else self.policies
        if value.strip().lower() in known:
            return
        rule = "reg-unknown-strategy" if kind == "strategy" else "reg-unknown-policy"
        self._report(
            node,
            rule,
            f"{value!r} is not a registered {kind} "
            f"(known: {', '.join(sorted(known))})",
        )

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if name in _REGISTER_FUNCS:
            self.generic_visit(node)
            return
        if name in _STRATEGY_RESOLVERS and node.args:
            literal = _literal_str(node.args[0])
            if literal is not None:
                self._check_name(node.args[0], "strategy", literal)
        elif name in _POLICY_RESOLVERS and node.args:
            literal = _literal_str(node.args[0])
            if literal is not None:
                self._check_name(node.args[0], "policy", literal)
        for kw in node.keywords:
            if kw.arg not in ("strategy", "policy"):
                continue
            literal = _literal_str(kw.value)
            if literal is not None:
                self._check_name(kw.value, kw.arg, literal)
        self.generic_visit(node)


def check(ctx: FileContext) -> List[Violation]:
    visitor = _Visitor(ctx)
    visitor.visit(ctx.tree)
    return visitor.found


# ------------------------------------------------------------------- TOML


def _key_line(text: str, key: str, value: str) -> int:
    """Best-effort line number of ``key = "value"`` in TOML source."""
    pattern = re.compile(
        rf"^\s*{re.escape(key)}\s*=\s*['\"]{re.escape(value)}['\"]", re.MULTILINE
    )
    match = pattern.search(text)
    return text.count("\n", 0, match.start()) + 1 if match else 1


def check_toml(relpath: str, text: str) -> List[Violation]:
    """Validate strategy/policy keys of one committed scenario spec."""
    try:
        document = tomllib.loads(text)
    except tomllib.TOMLDecodeError:
        return []  # not a scenario spec (or covered by the spec test suite)
    found: List[Violation] = []
    cluster = document.get("cluster")
    if isinstance(cluster, dict):
        strategy = cluster.get("strategy")
        if isinstance(strategy, str) and strategy.lower() not in known_strategy_names():
            found.append(
                Violation(
                    relpath,
                    _key_line(text, "strategy", strategy),
                    1,
                    "reg-spec-key",
                    f"spec names unregistered strategy {strategy!r} "
                    f"(known: {', '.join(sorted(known_strategy_names()))})",
                )
            )
    autopilot = document.get("autopilot")
    if isinstance(autopilot, dict):
        policy = autopilot.get("policy")
        if isinstance(policy, str) and policy.lower() not in known_policy_names():
            found.append(
                Violation(
                    relpath,
                    _key_line(text, "policy", policy),
                    1,
                    "reg-spec-key",
                    f"spec names unregistered policy {policy!r} "
                    f"(known: {', '.join(sorted(known_policy_names()))})",
                )
            )
    return found
