"""The prepared-prefix check of a solved constraint.

``SolvedConstraint.holds`` evaluates ``C_i``'s formulas (which mention
only earlier variables) once per :class:`SolvedPrefix` and compares each
candidate against them.  These tests pin that down against the direct
evaluation it replaced, written out below as the oracle, and count
formula evaluations in a real plan.  CI replays this module under the
property-test seed matrix.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from repro.algebra import Region, RegionAlgebra
from repro.boolean import FALSE, TRUE, And, Or, Var, evaluate
from repro.boxes import Box
from repro.constraints import Disequation, SolvedConstraint, triangular_form
from repro.constraints import solved as solved_module
from repro.datagen import smugglers_query
from repro.engine import build_physical_plan, compile_query
from repro.errors import UniverseMismatchError
from tests.conftest import CONSTS, UNIVERSE, VARS, constraint_systems
from tests.strategies import BITS8, bitvec_elements, region_elements
from tests.test_boolean_semantics import formulas

ALG = RegionAlgebra(UNIVERSE)

#: A region poking out of ``UNIVERSE``: ``complement`` rejects it.
OUTSIDE = Region.from_box(Box((24.0, 24.0), (40.0, 40.0)))


def oracle_holds(c, algebra, value, env, test_vacuous_upper=True):
    """``C_i`` evaluated directly, every formula once per call."""
    lo = evaluate(c.lower, algebra, env)
    if not algebra.le(lo, value):
        return False
    hi = evaluate(c.upper, algebra, env)
    if test_vacuous_upper and not algebra.le(value, hi):
        return False
    for r in c.disequations:
        pv = evaluate(r.p, algebra, env)
        if not algebra.is_zero(algebra.meet(value, pv)):
            continue
        qv = evaluate(r.q, algebra, env)
        if algebra.is_zero(algebra.meet(algebra.complement(value), qv)):
            return False
    return True


def outcome(fn, *args, **kwargs):
    """The call's result, or the type of the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except (KeyError, UniverseMismatchError) as exc:
        return type(exc)


def assert_rows_agree(c, algebra, env, candidates):
    """One prefix shared by every candidate row, as the executor does.

    The one intended difference: ``x ⊆ 1`` is no longer tested, and a
    value outside the universe (not an element of the algebra) was
    rejected by that test alone.  Such a value now reaches the
    disequations, whose ``¬x ∧ q`` half raises as ``complement`` does.
    """
    prefix = c.prepare(algebra, env)
    for value in candidates:
        skipped = value is OUTSIDE and c.upper == TRUE
        want = outcome(
            oracle_holds, c, algebra, value, env, test_vacuous_upper=not skipped
        )
        event(f"outcome: {getattr(want, '__name__', want)}")
        assert outcome(c.holds, algebra, value, prefix=prefix) == want
        assert outcome(c.holds, algebra, value, env) == want


@given(constraint_systems(), st.permutations(VARS), st.data())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_triangular_steps_match_oracle(system, order, data):
    tri = triangular_form(system, order)
    region = region_elements(ALG)
    env = {name: data.draw(region, label=name) for name in CONSTS}
    for c in tri.constraints:
        earlier = sorted(c.earlier_variables())
        step_env = dict(env)
        if earlier and data.draw(st.booleans(), label="drop"):
            del step_env[data.draw(st.sampled_from(earlier), label="gone")]
        candidates = data.draw(st.lists(region, min_size=1, max_size=5))
        if data.draw(st.booleans(), label="outside"):
            candidates.insert(
                data.draw(st.integers(0, len(candidates))), OUTSIDE
            )
        assert_rows_agree(c, ALG, step_env, candidates)
        env[c.variable] = candidates[0]


def solved_constraints():
    """Solved forms with vacuous bounds and zero coefficients favoured."""
    names = ["y", "z", "w"]
    part = formulas(names=names, max_leaves=4)
    diseq = st.builds(
        Disequation,
        p=st.one_of(st.just(FALSE), part),
        q=st.one_of(st.just(FALSE), part),
    )
    return st.builds(
        SolvedConstraint,
        variable=st.just("x"),
        lower=st.one_of(st.just(FALSE), part),
        upper=st.one_of(st.just(TRUE), part),
        disequations=st.lists(diseq, max_size=3).map(tuple),
    )


@given(solved_constraints(), st.data())
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_vacuous_and_zero_parts_match_oracle(c, data):
    region = region_elements(ALG)
    # An earlier variable bound outside the universe lets an outside
    # candidate pass ``x ⊆ t`` and reach the disequations.
    earlier = st.one_of(region, st.just(OUTSIDE))
    env = {n: data.draw(earlier, label=n) for n in ("y", "z", "w")}
    if data.draw(st.booleans(), label="drop"):
        del env[data.draw(st.sampled_from(sorted(env)), label="gone")]
    candidates = data.draw(st.lists(region, min_size=1, max_size=5))
    if data.draw(st.booleans(), label="outside"):
        candidates.append(OUTSIDE)
    assert_rows_agree(c, ALG, env, candidates)


@given(solved_constraints(), st.data())
@settings(max_examples=100, deadline=None)
def test_generic_carrier_matches_oracle(c, data):
    env = {n: data.draw(bitvec_elements(), label=n) for n in ("y", "z")}
    candidates = data.draw(st.lists(bitvec_elements(), min_size=1, max_size=5))
    assert_rows_agree(c, BITS8, env, candidates)


class TestExplicitCases:
    def test_unbound_earlier_variable_raises_on_first_use(self):
        c = SolvedConstraint("x", lower=FALSE, upper=Var("y"))
        prefix = c.prepare(ALG, {})
        for _ in range(2):  # nothing is memoised on failure
            with pytest.raises(KeyError):
                c.holds(ALG, ALG.bot, prefix=prefix)

    def test_unbound_variable_behind_a_deciding_check_is_not_evaluated(self):
        c = SolvedConstraint(
            "x",
            lower=FALSE,
            upper=TRUE,
            disequations=(Disequation(p=TRUE, q=Var("y")),),
        )
        inside = Region.from_box(Box((0.0, 0.0), (1.0, 1.0)))
        assert c.holds(ALG, inside, {})

    def test_value_outside_universe_raises_in_q_branch(self):
        c = SolvedConstraint(
            "x",
            lower=FALSE,
            upper=TRUE,
            disequations=(Disequation(p=FALSE, q=FALSE),),
        )
        with pytest.raises(UniverseMismatchError):
            c.holds(ALG, OUTSIDE, {})

    def test_vacuous_range_bills_no_comparison(self):
        c = SolvedConstraint("x", lower=FALSE, upper=TRUE)
        alg = RegionAlgebra(UNIVERSE)
        assert c.holds(alg, alg.top, {})
        assert alg.ops.total == 0


class TestEvaluateBilling:
    def test_binary_and_bills_one_meet(self):
        alg = RegionAlgebra(UNIVERSE)
        env = {"a": alg.top, "b": alg.bot}
        evaluate(And((Var("a"), Var("b"))), alg, env)
        assert alg.ops.snapshot()["total"] == alg.ops.meet == 1

    def test_binary_or_bills_one_join(self):
        alg = RegionAlgebra(UNIVERSE)
        env = {"a": alg.top, "b": alg.bot}
        evaluate(Or((Var("a"), Var("b"))), alg, env)
        assert alg.ops.snapshot()["total"] == alg.ops.join == 1

    def test_empty_connectives_are_top_and_bot(self):
        alg = RegionAlgebra(UNIVERSE)
        assert evaluate(And(()), alg, {}) == alg.top
        assert evaluate(Or(()), alg, {}) == alg.bot
        assert alg.ops.total == 0


class TestOncePerParent:
    """In a real plan the prefix is evaluated once per distinct parent."""

    def test_prefix_once_per_parent_and_not_shared_across_runs(
        self, monkeypatch
    ):
        q, _m = smugglers_query(
            seed=7, n_towns=16, n_roads=16, states_grid=(2, 2)
        )
        plan = compile_query(q)
        physical = build_physical_plan(plan, "exact", estimate=False)

        # Each check is attributed to its step and parent: the parent is
        # the identity of the earlier variables' regions.
        current = [None]
        rows = Counter()  # (step, parent) -> candidates checked
        evals = Counter()  # (step, parent, formula) -> evaluations
        real_holds = SolvedConstraint.holds
        real_evaluate = solved_module.evaluate

        def parent_of(c, env):
            return tuple(id(env[n]) for n in sorted(c.earlier_variables()))

        def holds(self, algebra, value, env=None, prefix=None):
            current[0] = self
            rows[(self.variable, parent_of(self, prefix.env))] += 1
            return real_holds(self, algebra, value, env, prefix)

        def counting_evaluate(f, algebra, env):
            c = current[0]
            evals[(c.variable, parent_of(c, env), f)] += 1
            return real_evaluate(f, algebra, env)

        monkeypatch.setattr(SolvedConstraint, "holds", holds)
        monkeypatch.setattr(solved_module, "evaluate", counting_evaluate)

        first = list(physical.execute_iter())
        assert max(rows.values()) >= 5
        for c in plan.triangular.constraints:
            slots = Counter(prefix_formulas(c))
            first_formula = prefix_formulas(c)[first_reached(c)]
            for step, parent in rows:
                if step != c.variable:
                    continue
                # Per parent, each formula slot is evaluated at most once
                # and the check every candidate reaches exactly once.
                for f, n in slots.items():
                    assert evals[(step, parent, f)] <= n
                assert evals[(step, parent, first_formula)] >= 1

        first_evals = dict(evals)
        evals.clear()
        second = list(physical.execute_iter())
        assert len(second) == len(first)
        assert dict(evals) == first_evals


def prefix_formulas(c):
    """``lower, upper, p_1, q_1, ...`` — the prefix's formula order."""
    out = [c.lower, c.upper]
    for r in c.disequations:
        out += [r.p, r.q]
    return out


def first_reached(c):
    """Index of the first formula every check of ``c`` evaluates."""
    if c.lower != FALSE:
        return 0
    if c.upper != TRUE:
        return 1
    return 2
