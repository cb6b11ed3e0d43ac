"""Registry-key rules: strategy/policy literals must name registered entries."""

from pathlib import Path

from repro.analysis import lint_file
from repro.analysis.registry_rules import known_policy_names, known_strategy_names

FIXTURES = Path(__file__).parent / "fixtures"


class TestKnownNames:
    def test_strategy_names_come_from_live_registry(self):
        names = known_strategy_names()
        assert {"dynahash", "statichash", "hashing", "consistenthash"} <= names
        assert {"dyna", "static", "modulo", "consistent"} <= names

    def test_policy_names_come_from_live_registry(self):
        names = known_policy_names()
        assert {"cost_aware", "cost-aware"} <= names
        assert "threshold" not in names and "scheduled" not in names


class TestResolverCalls:
    def test_known_names_and_aliases_clean(self, rules_of):
        assert rules_of(
            """
            from repro.rebalance.strategies import strategy_by_name
            from repro.control.policy import policy_by_name

            a = strategy_by_name("dynahash")
            b = strategy_by_name("DynaHash")
            c = policy_by_name("cost-aware")
            """
        ) == set()

    def test_unknown_strategy_flagged(self, rules_of):
        assert "reg-unknown-strategy" in rules_of(
            """
            from repro.rebalance.strategies import strategy_by_name
            a = strategy_by_name("raft")
            """
        )

    def test_unknown_policy_flagged(self, rules_of):
        assert "reg-unknown-policy" in rules_of(
            """
            from repro.control.policy import policy_by_name
            a = policy_by_name("paxos")
            """
        )


class TestKeywordLiterals:
    def test_strategy_keyword_on_any_call(self, rules_of):
        assert "reg-unknown-strategy" in rules_of(
            "db = open_database(strategy='paxos')\n"
        )
        assert rules_of("db = open_database(strategy='modulo')\n") == set()

    def test_policy_keyword_on_any_call(self, rules_of):
        assert "reg-unknown-policy" in rules_of(
            "pilot = db.autopilot(policy='nope')\n"
        )
        assert rules_of("pilot = db.autopilot(policy='Cost_Aware')\n") == set()


class TestLocalRegistrations:
    def test_same_file_registration_allows_the_name(self, rules_of):
        assert rules_of(
            """
            from repro.rebalance.strategies import register_strategy, strategy_by_name

            register_strategy("noop-test", object, aliases=("noop",))
            a = strategy_by_name("noop")
            b = strategy_by_name("noop-test")
            """
        ) == set()


class TestTomlSpecs:
    def test_bad_spec_fixture_flagged_twice(self, tmp_path):
        violations = lint_file(FIXTURES / "known_bad_spec.toml", tmp_path)
        assert [v.rule for v in violations] == ["reg-spec-key", "reg-spec-key"]
        messages = " ".join(v.message for v in violations)
        assert "dynohash" in messages and "treshold" in messages

    def test_line_numbers_point_at_the_keys(self, tmp_path):
        text = (FIXTURES / "known_bad_spec.toml").read_text()
        violations = lint_file(FIXTURES / "known_bad_spec.toml", tmp_path)
        lines = text.splitlines()
        for violation in violations:
            assert "dynohash" in lines[violation.line - 1] or "treshold" in lines[violation.line - 1]

    def test_good_spec_clean(self, tmp_path):
        spec = tmp_path / "good.toml"
        spec.write_text(
            '[scenario]\nname = "ok"\n\n'
            '[cluster]\nnodes = 2\nstrategy = "dynahash"\n\n'
            '[autopilot]\npolicy = "cost_aware"\n'
        )
        assert lint_file(spec, tmp_path) == []

    def test_committed_example_specs_are_clean(self, tmp_path):
        repo_root = Path(__file__).resolve().parents[2]
        for spec in sorted((repo_root / "examples" / "scenarios").glob("*.toml")):
            assert lint_file(spec, repo_root) == [], spec.name
