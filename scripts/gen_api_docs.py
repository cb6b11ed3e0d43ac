#!/usr/bin/env python3
"""Generate the API reference under docs/api/ from the live public surface.

The reference is *derived*, never hand-edited: every symbol in
``repro.api.__all__`` and ``repro.scenario.__all__`` gets a section built
from its signature and docstring, so the docs cannot list a symbol that no
longer exists, and a new public symbol without a docs entry fails CI.  The
``repro.scenario`` page also carries the *spec key reference*: one row per key
a scenario document may carry, rendered from the same field declarations the
validator walks (``repro.scenario.spec``), so the table cannot drift from what
``ScenarioSpec.from_mapping`` accepts.

Usage::

    python scripts/gen_api_docs.py            # (re)write docs/api/*.md
    python scripts/gen_api_docs.py --check    # exit 1 if docs/api/ is stale

``--check`` is the CI sync gate: it regenerates the pages in memory and
diffs them against the committed files.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from functools import cached_property
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

#: The documented modules, in index order.
MODULES = ("repro.api", "repro.chaos", "repro.report", "repro.scenario", "repro.trace")

API_DIR = ROOT / "docs" / "api"

GENERATED_MARKER = "<!-- generated by scripts/gen_api_docs.py — do not edit by hand -->"


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _anchor(name: str) -> str:
    """GitHub's anchor for a ``### `name` `` heading (underscores survive
    slugification, so this is just the lowercased symbol name)."""
    return name.lower()


def _kind_of(obj: object) -> str:
    if inspect.isclass(obj):
        if isinstance(obj, type) and issubclass(obj, BaseException):
            return "exception"
        return "class"
    if inspect.isfunction(obj) or inspect.isbuiltin(obj):
        return "function"
    return "constant"


def _signature_of(name: str, obj: object) -> str:
    try:
        if inspect.isclass(obj):
            return f"{name}{inspect.signature(obj)}"
        if callable(obj):
            return f"{name}{inspect.signature(obj)}"
    except (TypeError, ValueError):
        pass
    return name


def _summary_of(obj: object) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return ""
    return doc.splitlines()[0].strip()


def _docstring_block(obj: object) -> List[str]:
    doc = inspect.getdoc(obj)
    if not doc:
        return []
    # Docstrings are reST-flavoured; fence them so tables and indentation
    # survive markdown rendering untouched.
    return ["```text", *doc.splitlines(), "```"]


def _public_methods(cls: type) -> List[str]:
    lines: List[str] = []
    # A private base class has no entry of its own, so what it gives the
    # class (every spec section's from_mapping/to_mapping) is listed here.
    members = {}
    for base in reversed(cls.__mro__):
        if base is cls or base.__name__.startswith("_"):
            members.update(vars(base))
    for method_name, member in sorted(members.items()):
        if method_name.startswith("_"):
            continue
        if isinstance(member, (property, cached_property)):
            summary = _summary_of(member)
            lines.append(f"- `{method_name}` *(property)*{' — ' + summary if summary else ''}")
            continue
        if isinstance(member, classmethod):
            member = member.__func__
            prefix = "classmethod "
        elif isinstance(member, staticmethod):
            member = member.__func__
            prefix = "staticmethod "
        else:
            prefix = ""
        if not (inspect.isfunction(member) or inspect.ismethod(member)):
            continue
        summary = _summary_of(member)
        try:
            signature = str(inspect.signature(member))
        except (TypeError, ValueError):
            signature = "(...)"
        lines.append(
            f"- `{prefix}{method_name}{signature}`{' — ' + summary if summary else ''}"
        )
    return lines


def render_module(module_name: str) -> str:
    module = importlib.import_module(module_name)
    exported: List[str] = sorted(module.__all__)
    lines: List[str] = [
        f"# `{module_name}` — API reference",
        "",
        GENERATED_MARKER,
        "",
        f"{len(exported)} public symbols, from `{module_name}.__all__`. "
        "Regenerate with `python scripts/gen_api_docs.py`.",
        "",
        "## Index",
        "",
        "| symbol | kind | summary |",
        "|---|---|---|",
    ]
    objects = {name: getattr(module, name) for name in exported}
    for name in exported:
        obj = objects[name]
        summary = _summary_of(obj) if _kind_of(obj) != "constant" else ""
        summary = summary.replace("|", "\\|")
        lines.append(f"| [`{name}`](#{_anchor(name)}) | {_kind_of(obj)} | {summary} |")
    lines.append("")

    for name in exported:
        obj = objects[name]
        kind = _kind_of(obj)
        lines.append(f"### `{name}`")
        lines.append("")
        if kind == "constant":
            value = repr(obj)
            if len(value) > 200:
                value = value[:197] + "..."
            lines.append(f"*{type(obj).__name__} constant*")
            lines.append("")
            lines.append("```python")
            lines.append(f"{name} = {value}")
            lines.append("```")
        else:
            lines.append(f"*{kind}* — defined in `{obj.__module__}`")
            lines.append("")
            lines.append("```python")
            lines.append(_signature_of(name, obj))
            lines.append("```")
            lines.extend(_docstring_block(obj))
            if kind in ("class", "exception"):
                methods = _public_methods(obj)
                if methods:
                    lines.append("")
                    lines.append("**Public methods and properties:**")
                    lines.append("")
                    lines.extend(methods)
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _spec_key_rows(keys, path: str):
    """``(section path, key, declaration)`` for ``keys`` and everything nested
    under them, in canonical order; array sections are written ``path[]``."""
    from repro.scenario.spec import _keys

    for name, key in keys.items():
        yield path, name, key
        child = f"{path}.{name}" if path else name
        if key.kind.keys is not None:
            yield from _spec_key_rows(key.kind.keys, child)
        for cls in key.kind.classes:
            tag = "[]" if key.kind.many else ""
            if len(key.kind.classes) > 1:
                tag += f' (kind = "{cls.kind}")'
            yield from _spec_key_rows(_keys(cls), child + tag)


def render_spec_keys() -> str:
    """The "Spec key reference" table appended to the ``repro.scenario`` page."""
    from repro.scenario import ScenarioSpec

    header, body = ScenarioSpec._header_and_body()
    rows = [*_spec_key_rows(header, "scenario"), *_spec_key_rows(body, "")]
    lines = [
        "## Spec key reference",
        "",
        f"{len(rows)} keys, from the field declarations in `repro.scenario.spec` — the "
        "same ones `ScenarioSpec.from_mapping` validates against.  A key with no "
        "default is required; `[]` marks an array of tables (`[[...]]` in TOML); "
        "a `[[steps]]` entry has the keys of its `kind` (`recover` has none).",
        "",
        "| section | key | type | default | required | allowed values |",
        "|---|---|---|---|---|---|",
    ]
    for path, name, key in rows:
        if key.required:
            default = ""
        elif key.kind.classes or key.default is None:
            default = "—"
        else:
            default = f"`{key.kind.emit(key.default)!r}`"
        allowed = ", ".join(f"`{choice}`" for choice in key.kind.allowed())
        lines.append(
            f"| `{path or '(top level)'}` | `{name}` | {key.kind.label} | {default} "
            f"| {'yes' if key.required else ''} | {allowed} |"
        )
    return "\n".join(lines) + "\n"


def render_index() -> str:
    lines = [
        "# API reference",
        "",
        GENERATED_MARKER,
        "",
        "Generated from the live `__all__` of each public module; the CI "
        "`docs` job regenerates these pages and fails on drift, so the "
        "reference and the code cannot disagree.",
        "",
    ]
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        count = len(module.__all__)
        summary = (inspect.getdoc(module) or "").splitlines()[0]
        lines.append(f"- [`{module_name}`]({module_name}.md) — {count} symbols. {summary}")
    lines.append("")
    lines.append("Regenerate with `python scripts/gen_api_docs.py`; check freshness with `--check`.")
    return "\n".join(lines) + "\n"


def generate() -> Dict[str, str]:
    """filename -> content for every page the reference consists of."""
    pages = {f"{module_name}.md": render_module(module_name) for module_name in MODULES}
    pages["repro.scenario.md"] += "\n" + render_spec_keys()
    pages["index.md"] = render_index()
    return pages


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify docs/api/ matches the live public surface; exit 1 on drift",
    )
    args = parser.parse_args(argv)

    pages = generate()
    if args.check:
        stale: List[str] = []
        for filename, content in sorted(pages.items()):
            committed = API_DIR / filename
            if not committed.exists():
                stale.append(f"{committed}: missing")
            elif committed.read_text() != content:
                stale.append(f"{committed}: out of date with the live __all__/docstrings")
        extras = {p.name for p in API_DIR.glob("*.md")} - set(pages)
        for extra in sorted(extras):
            stale.append(f"{API_DIR / extra}: not generated by this script (remove it)")
        if stale:
            print("API reference is stale; run `python scripts/gen_api_docs.py`:")
            for line in stale:
                print(f"  {line}")
            return 1
        print(f"API reference in sync ({len(pages)} pages, modules: {', '.join(MODULES)})")
        return 0

    API_DIR.mkdir(parents=True, exist_ok=True)
    for filename, content in sorted(pages.items()):
        (API_DIR / filename).write_text(content)
        print(f"wrote {API_DIR / filename}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
