"""Gate: every committed golden is regenerable and reachable from a test.

A golden that no test reads is dead weight that silently drifts; a golden
that ``scripts/regen_goldens.py`` does not know how to produce cannot be
refreshed after a deliberate behaviour change.  This scans the committed
golden inventory (any ``*golden*.json`` fixture or file under a ``goldens/``
directory in ``tests/``) and pins both properties.
"""

import importlib.util
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
ROOT = TESTS.parent


def _golden_inventory():
    files = set()
    for path in TESTS.rglob("*.json"):
        if "__pycache__" in path.parts:
            continue
        if "golden" in path.name or "goldens" in path.parts:
            files.add(path)
    return sorted(files)


def _load_regen_module():
    spec = importlib.util.spec_from_file_location(
        "regen_goldens", ROOT / "scripts" / "regen_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_inventory_is_nonempty():
    assert _golden_inventory(), "no committed goldens found — scan is broken"


def test_every_golden_is_referenced_by_a_test():
    sources = "\n".join(
        path.read_text() for path in TESTS.rglob("test_*.py") if "__pycache__" not in path.parts
    )
    unreachable = []
    for golden in _golden_inventory():
        # Reachable = a test names the file, or a test globs its parent
        # directory (the goldens/ pattern).
        if golden.name not in sources and f'"{golden.parent.name}"' not in sources:
            unreachable.append(str(golden.relative_to(ROOT)))
    assert not unreachable, f"goldens no test reads: {unreachable}"


def test_regen_goldens_covers_the_entire_inventory():
    module = _load_regen_module()
    regenerable = {path for path in module.generators()}
    inventory = set(_golden_inventory())
    missing = {str(p.relative_to(ROOT)) for p in inventory - regenerable}
    assert not missing, (
        f"goldens scripts/regen_goldens.py cannot regenerate: {sorted(missing)}"
    )


def test_stale_goldens_report_the_head_of_their_diff():
    module = _load_regen_module()
    committed = "".join(f'"counter_{i}": {i},\n' for i in range(200))
    regenerated = committed.replace('"counter_7": 7,', '"counter_7": 8,')
    head = module.diff_head(committed, regenerated, "tests/x.json")
    assert '-"counter_7": 7,' in head and '+"counter_7": 8,' in head
    assert "tests/x.json (committed)" in head
    # Capped: a wholesale rewrite prints only the head.
    rewritten = module.diff_head(committed, committed.replace("counter", "gauge"), "tests/x.json")
    assert len(rewritten.splitlines()) == 20
