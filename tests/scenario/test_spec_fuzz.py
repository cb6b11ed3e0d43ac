"""Generated documents through ``ScenarioSpec.from_mapping``: the only way
out is a located :class:`ScenarioSpecError` or a spec that round-trips."""

import copy
import dataclasses
import re
import tomllib
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.scenario import ScenarioSpec, ScenarioSpecError

SCENARIO_DIR = Path(__file__).resolve().parents[2] / "examples" / "scenarios"
COMMITTED = {
    path.stem: tomllib.loads(path.read_text()) for path in sorted(SCENARIO_DIR.glob("*.toml"))
}
SECTIONS = ["scenario", *(field.name for field in dataclasses.fields(ScenarioSpec))]
#: Every error names where it happened: a top-level section, optionally
#: followed by ``.key`` / ``[index]`` segments, then a colon.
LOCATED = re.compile(rf"^(scenario document|{'|'.join(SECTIONS)})\b[^:]*: ")

# NaN is left out on purpose: it is unequal to itself, so no document carrying
# one can satisfy ``from_mapping(to_mapping()) == spec`` whatever the parser does.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.sampled_from(["rebalance", "recover", "query", "q1", "A", "zipfian", "dynahash", "32 KiB"]),
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
#: Documents that get past the top-level key check, so the sections are reached.
sectioned_documents = st.dictionaries(st.sampled_from(SECTIONS), json_values, max_size=6)


def check(document):
    """The property: a located ScenarioSpecError, or a spec whose canonical
    form is a fixed point."""
    try:
        spec = ScenarioSpec.from_mapping(document)
    except ScenarioSpecError as exc:
        assert LOCATED.match(str(exc)), f"error without a section path: {exc}"
        return
    mapping = spec.to_mapping()
    again = ScenarioSpec.from_mapping(mapping)
    assert again == spec
    assert again.to_mapping() == mapping


def paths_of(node, path=()):
    """Every ``(path, value)`` below ``node``, containers included."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield (*path, key), value
        if isinstance(value, (dict, list)):
            yield from paths_of(value, (*path, key))


def mutate(document, path, mutation, replacement):
    """One edit at ``path``: the five ways a hand-written spec goes wrong."""
    document = copy.deepcopy(document)
    parent = document
    for segment in path[:-1]:
        parent = parent[segment]
    value = parent[path[-1]]
    if mutation == "drop":
        del parent[path[-1]]
    elif mutation == "extra" and isinstance(value, dict):
        value["zzz_not_a_key"] = replacement
    elif mutation == "bool":
        parent[path[-1]] = True
    elif mutation == "negative" and isinstance(value, (int, float)):
        parent[path[-1]] = -abs(value) - 1
    else:
        parent[path[-1]] = replacement
    return document


@st.composite
def mutated_specs(draw):
    document = COMMITTED[draw(st.sampled_from(sorted(COMMITTED)))]
    path, _ = draw(st.sampled_from(list(paths_of(document))))
    mutation = draw(st.sampled_from(["replace", "drop", "extra", "bool", "negative"]))
    return mutate(document, path, mutation, draw(json_values))


@settings(max_examples=300, deadline=None)
@given(st.one_of(json_values, sectioned_documents))
# Shrunk counterexamples, kept as regressions: each was a bare TypeError,
# IndexError or OverflowError out of from_mapping, or an unlocated message.
@example({"scenario": {"name": "x"}, "steps": [{"kind": []}]})
@example({"scenario": {"name": "x"}, "steps": [{"kind": {}}]})
@example({"scenario": {"name": "x"}, "datasets": [{"name": "d", "primary_key": []}]})
@example({"scenario": {"name": "x"}, "workload": {"payload_bytes": "1e999KB"}})
@example({"scenario": {"name": "x"}, "cluster": {"lsm": {"page_bytes": "1e999 B"}}})
def test_arbitrary_documents_fail_located_or_round_trip(document):
    check(document)


@settings(max_examples=400, deadline=None)
@given(mutated_specs())
def test_single_edits_of_committed_specs_fail_located_or_round_trip(document):
    check(document)


@pytest.mark.parametrize("name", sorted(COMMITTED))
def test_committed_specs_satisfy_the_property_unmutated(name):
    check(COMMITTED[name])
