"""CheckStats / CheckResult serialization round-trips (property-based)."""

import json

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.checking.result import CheckResult, CheckStats
from repro.logic.ctl import AX, EF, AG, Atom, Not
from repro.logic.parser import parse_ctl
from repro.logic.restriction import Restriction

counts = st.integers(min_value=0, max_value=10**9)

op_counter = st.fixed_dictionaries(
    {
        "lookups": counts,
        "hits": counts,
        "inserts": counts,
        "hit_rate": st.floats(
            min_value=0, max_value=1, allow_nan=False, width=32
        ),
    }
)

stats_strategy = st.builds(
    CheckStats,
    user_time=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    fixpoint_iterations=counts,
    subformulas_evaluated=counts,
    bdd_nodes_allocated=counts,
    transition_nodes=counts,
    bdd_cache_lookups=counts,
    bdd_cache_hits=counts,
    bdd_mk_calls=counts,
    bdd_peak_unique_nodes=counts,
    bdd_op_counters=st.dictionaries(
        st.sampled_from(["and", "or", "exists", "relprod", "not"]),
        op_counter,
        max_size=5,
    ),
)

atom_names = st.sampled_from(["x", "y", "tok", "x.0", "c1'", "req_2"])
atoms = st.builds(Atom, atom_names)

formulas = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(AX, inner),
        st.builds(EF, inner),
        st.builds(AG, inner),
        st.builds(lambda a, b: a & b, inner, inner),
        st.builds(lambda a, b: a | b, inner, inner),
    ),
    max_leaves=6,
)

states = st.frozensets(atom_names, max_size=4)

results = st.builds(
    CheckResult,
    formula=formulas,
    restriction=st.builds(
        Restriction,
        init=formulas,
        fairness=st.tuples(formulas),
    ),
    holds=st.booleans(),
    failing_states=st.tuples(states, states),
    num_failing=counts,
    stats=stats_strategy,
)


class TestCheckStatsSerde:
    @settings(max_examples=60, deadline=None)
    @given(stats=stats_strategy)
    def test_round_trip(self, stats):
        assert CheckStats.from_dict(stats.to_dict()) == stats

    @settings(max_examples=60, deadline=None)
    @given(stats=stats_strategy)
    def test_json_safe(self, stats):
        # survives an actual JSON encode/decode, not just dict copying
        data = json.loads(json.dumps(stats.to_dict()))
        assert CheckStats.from_dict(data) == stats

    @settings(max_examples=30, deadline=None)
    @given(stats=stats_strategy)
    def test_op_counters_are_copies(self, stats):
        # mutating the serialized form must not reach back into the stats
        data = stats.to_dict()
        for counter in data["bdd_op_counters"].values():
            counter["lookups"] = -1
        assert all(
            counter["lookups"] >= 0
            for counter in stats.bdd_op_counters.values()
        )

    def test_unknown_keys_ignored(self):
        stats = CheckStats.from_dict({"user_time": 1.0, "from_the_future": 9})
        assert stats.user_time == 1.0

    def test_missing_keys_default(self):
        assert CheckStats.from_dict({}) == CheckStats()


class TestCheckResultSerde:
    @settings(max_examples=60, deadline=None)
    @given(result=results)
    def test_round_trip(self, result):
        back = CheckResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert back.formula == result.formula
        assert back.restriction.init == result.restriction.init
        assert back.restriction.fairness == result.restriction.fairness
        assert back.holds == result.holds
        assert set(back.failing_states) == set(result.failing_states)
        assert back.num_failing == result.num_failing
        assert back.stats == result.stats

    @settings(max_examples=60, deadline=None)
    @given(formula=formulas)
    def test_formula_text_round_trips(self, formula):
        # the serde's foundation: str() output re-parses to the same tree
        assert parse_ctl(str(formula)) == formula

    def test_bool_preserved(self):
        result = CheckResult(
            formula=Atom("x"),
            restriction=Restriction(init=Atom("x")),
            holds=False,
        )
        assert not CheckResult.from_dict(result.to_dict())


class TestReplayed:
    """``CheckResult.replayed``: a record bound to the check in hand."""

    def _result(self):
        return CheckResult(
            formula=AG(Atom("x")),
            restriction=Restriction(init=Atom("x"), fairness=(Not(Atom("y")),)),
            holds=False,
            failing_states=(frozenset({"x"}),),
            num_failing=3,
            stats=CheckStats(user_time=0.5, fixpoint_iterations=4),
        )

    def test_match_carries_the_objects_in_hand(self, monkeypatch):
        import repro.logic.parser as parser

        result = self._result()
        data = json.loads(json.dumps(result.to_dict()))

        def no_parse(text):
            raise AssertionError(f"replay re-parsed {text!r}")

        monkeypatch.setattr(parser, "parse_ctl", no_parse)
        formula = AG(Atom("x"))
        restriction = Restriction(
            init=Atom("x"), fairness=(Not(Atom("y")),)
        )
        back = CheckResult.replayed(data, formula, restriction)
        assert back == result
        assert back.formula is formula and back.restriction is restriction
        assert back.to_dict() == result.to_dict()

    def test_mismatch_is_a_miss(self):
        result = self._result()
        data = result.to_dict()
        r = result.restriction
        assert CheckResult.replayed(data, AX(Atom("x")), r) is None
        assert (
            CheckResult.replayed(
                data, result.formula, Restriction(init=Atom("y"), fairness=r.fairness)
            )
            is None
        )
        assert (
            CheckResult.replayed(
                data, result.formula, Restriction(init=r.init)
            )
            is None
        )

    def test_prerendered_text_is_used(self):
        from repro.checking.result import bound_text

        result = self._result()
        data = result.to_dict()
        text = bound_text(result.formula, result.restriction)
        assert text == {k: data[k] for k in ("formula", "restriction")}
        other = dict(text, formula="x")
        assert (
            CheckResult.replayed(data, result.formula, result.restriction, other)
            is None
        )
