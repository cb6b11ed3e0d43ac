"""Loading scenario specs from disk: TOML or JSON into :class:`ScenarioSpec`.

The format is chosen by file extension (``.toml`` / ``.json``); anything else
is tried as TOML first (the canonical authoring format), then JSON.  Parse
errors and validation errors both surface as
:class:`~repro.scenario.spec.ScenarioSpecError` carrying the file path, so
``python -m repro run broken.toml`` prints one actionable line instead of a
traceback.
"""

from __future__ import annotations

import json
import tomllib
from pathlib import Path
from typing import Any, Dict, Union

from .spec import ScenarioSpec, ScenarioSpecError

__all__ = ["load_scenario", "parse_scenario"]


def parse_scenario(text: str, format: str = "toml", source: str = "<string>") -> ScenarioSpec:
    """Parse scenario ``text`` in the given format (``"toml"`` or ``"json"``)."""
    if format == "toml":
        try:
            document: Dict[str, Any] = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ScenarioSpecError(f"{source}: invalid TOML: {exc}") from exc
    elif format == "json":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioSpecError(f"{source}: invalid JSON: {exc}") from exc
    else:
        raise ScenarioSpecError(f"unknown scenario format {format!r}; use 'toml' or 'json'")
    try:
        return ScenarioSpec.from_mapping(document)
    except ScenarioSpecError as exc:
        raise ScenarioSpecError(f"{source}: {exc}") from exc


def load_scenario(path: Union[str, Path]) -> ScenarioSpec:
    """Load and validate the scenario spec at ``path``."""
    path = Path(path)
    if not path.exists():
        raise ScenarioSpecError(f"scenario spec not found: {path}")
    text = path.read_text()
    suffix = path.suffix.lower()
    if suffix == ".json":
        return parse_scenario(text, "json", str(path))
    if suffix == ".toml":
        return parse_scenario(text, "toml", str(path))
    try:
        return parse_scenario(text, "toml", str(path))
    except ScenarioSpecError:
        try:
            return parse_scenario(text, "json", str(path))
        except ScenarioSpecError:
            raise ScenarioSpecError(
                f"{path}: could not parse as TOML or JSON; use a .toml or .json extension"
            ) from None
