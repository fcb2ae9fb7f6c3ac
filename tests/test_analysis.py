"""The static-analysis subsystem: hand-checked mod/ref facts, interval
fixpoints and Newton-stall candidate predicates, and the cross-iteration
abstraction reuse."""

import pytest

from repro.analysis import WILDCARD, ModRefSummaries, TouchOracle, location_keyset
from repro.analysis.intervals import (
    FunctionIntervals,
    IntervalDischarger,
    interval_candidate_predicates,
)
from repro.boolprog.printer import print_bool_program
from repro.cfront import parse_c_program
from repro.cfront.cfg import build_program_cfgs
from repro.cfront.parser import parse_expression
from repro.cfront.pretty import pretty_expr
from repro.core import C2bp, C2bpOptions, parse_predicate_file
from repro.engine import EngineContext
from repro.programs import get_driver
from repro.slam import SafetySpec, check_property
from repro.slam.cegar import _interval_fallback_predicates, cegar_loop


def _abstract(source, predicate_text, **options):
    program = parse_c_program(source, name="test")
    predicates = parse_predicate_file(predicate_text, program)
    context = EngineContext(options=C2bpOptions(**options))
    tool = C2bp(program, predicates, context=context)
    return program, tool, tool.run()


# -- mod/ref ------------------------------------------------------------------------

MODREF_SOURCE = """
int g;
int helper(int p, int *q) {
    *q = p;
    g = g + 1;
    return 0;
}
void main(void) {
    int a, b;
    a = 0;
    b = helper(1, &a);
}
"""


def test_modref_assignment_summary():
    program = parse_c_program(MODREF_SOURCE, name="modref")
    summaries = ModRefSummaries(program)
    helper = program.functions["helper"]
    increment = helper.body[1]  # g = g + 1
    summary = summaries.statement_summary(increment, "helper")
    assert set(summary.mod) == {"g"}
    assert "g" in summary.ref
    assert not summary.has_call


def test_modref_call_folds_callee_effects():
    program = parse_c_program(MODREF_SOURCE, name="modref")
    summaries = ModRefSummaries(program)
    main = program.functions["main"]
    call = main.body[1]  # b = helper(1, &a)
    summary = summaries.statement_summary(call, "main")
    assert summary.has_call and summary.callees == {"helper"}
    # The callee's global write is caller-visible by name; its store
    # through the pointer argument is only representable as a wildcard.
    assert "g" in summary.mod
    assert WILDCARD in summary.mod
    assert "b" in summary.mod
    # helper's function-level summary records the pointer store itself.
    assert "*q" in summaries.function_mod["helper"]


def test_touch_oracle_matches_pairwise_semantics():
    calls = []

    def may_alias(a, b):
        calls.append((pretty_expr(a), pretty_expr(b)))
        return "*p" in (pretty_expr(a), pretty_expr(b))

    oracle = TouchOracle(may_alias)
    left = location_keyset(parse_expression("x + 1"))
    right = location_keyset(parse_expression("x * y"))
    assert oracle.touch(left, right)  # text-equal fast path, no oracle call
    assert not calls
    assert not oracle.touch({}, right)  # empty sets never touch
    starred = location_keyset(parse_expression("*p"))
    other = location_keyset(parse_expression("y"))
    assert oracle.touch(starred, other)
    first_calls = len(calls)
    assert first_calls > 0
    assert oracle.touch(starred, other)  # memoized: no new oracle calls
    assert len(calls) == first_calls
    # Without an alias oracle, nonempty keysets conservatively touch.
    assert TouchOracle(None).touch(starred, other)


# -- intervals ----------------------------------------------------------------------

LOOP_SOURCE = """
void main(void) {
    int i;
    i = 0;
    while (i < 10) {
        i = i + 1;
    }
    assert(i >= 10);
}
"""


def test_interval_fixpoint_bounds_loop_counter():
    program = parse_c_program(LOOP_SOURCE, name="loop")
    cfg = build_program_cfgs(program)["main"]
    intervals = FunctionIntervals(cfg)
    facts = intervals.loop_head_facts()
    assert facts, "the while loop must produce a loop-head fact"
    # Widening then narrowing should recover i ∈ [0, 10] at the head.
    bounds = {
        name: interval
        for _node, env in facts
        for name, interval in env.items()
    }
    assert bounds["i"][0] == 0
    assert bounds["i"][1] == 10

    candidates = [
        pretty_expr(e) for e in interval_candidate_predicates(cfg)
    ]
    assert "i >= 0" in candidates
    assert "i <= 10" in candidates


def test_interval_discharger_units():
    # The discharger is off every production path (see its docstring);
    # its unit test stays with it.
    discharger = IntervalDischarger()

    def decide(antecedent_texts, goal_text):
        return discharger.decide(
            [parse_expression(t) for t in antecedent_texts],
            parse_expression(goal_text),
        )

    assert decide(["x > 5"], "x > 1")
    assert not decide(["x > 0"], "x > 5")
    # Contradictory antecedents discharge any goal (the cube is empty).
    assert decide(["x > 2", "x < 1"], "x == 99")
    # `!=` goals are non-convex: an unconstrained box must NOT entail
    # them (regression: the constraint translation models `!=` as
    # no-information, which is vacuously true when read back as a goal).
    assert not decide([], "x != 0")
    assert not decide(["y > 0"], "x != 0")
    # ... but integer tightening can put the box on one side.
    assert decide(["x > 0"], "x != 0")
    # Zero coefficients (`0 * y` is affine with an empty form) must not
    # reach the propagator's divisions (regression: fuzz-found
    # ZeroDivisionError in constraint propagation).
    assert decide(["x > 0 * y", "x < 2"], "x == 1")
    assert not decide(["x <= 0 * y"], "x < 0")


def test_newton_stall_interval_fallback_predicates():
    program, tool, _ = _abstract(LOOP_SOURCE, "main\ni == 99\n")
    predicates = tool.predicates
    fallback = _interval_fallback_predicates(program, tool, predicates)
    texts = {pretty_expr(p.expr) for p in fallback}
    assert "i >= 0" in texts
    assert "i <= 10" in texts
    for predicate in fallback:
        predicates.add(predicate)
    # Deduplication: a second stall must not re-propose the same bounds.
    assert _interval_fallback_predicates(program, tool, predicates) == []


# -- cross-iteration abstraction reuse ----------------------------------------------

REFINE_SOURCE = """
void main(int x) {
    int i, z;
    z = 7;
    z = z + 1;
    i = 0;
    if (x > 0) {
        i = 1;
    }
    if (x > 0) {
        assert(i == 1);
    }
}
"""


@pytest.mark.parametrize("syntactic_heuristics", [True, False])
@pytest.mark.parametrize("jobs", [1, 2])
def test_reuse_across_cegar_iterations(jobs, syntactic_heuristics):
    # The pool path ships enforce computations to the workers too, and
    # records their results on the way back.  Syntactic heuristics are
    # part of the statement key: with them off every predicate update is
    # a real cube search, and the replayed translations must still match.
    program = parse_c_program(REFINE_SOURCE, name="refine")
    options = C2bpOptions(jobs=jobs, syntactic_heuristics=syntactic_heuristics)
    with EngineContext(options=options) as context:
        result = cegar_loop(program, max_iterations=6, context=context)
    assert result.verdict == "safe"
    assert result.iterations >= 2
    stats = context.analysis_stats
    # The z-statements' mod/ref closures never meet the discovered
    # predicates, so later iterations replay their translations.
    assert stats.c2bp_stmts_reused > 0
    assert stats.c2bp_stmts_retranslated > 0

    # The last iteration, assembled partly from cached statements, prints
    # the bytes of a fresh serial abstraction over the same predicates.
    fresh_options = C2bpOptions(jobs=1, syntactic_heuristics=syntactic_heuristics)
    with EngineContext(options=fresh_options) as fresh_context:
        fresh = C2bp(program, result.predicates, context=fresh_context).run()
    assert print_bool_program(result.boolean_program) == print_bool_program(fresh)


def test_reuse_engages_on_floppy_irp():
    # The multi-iteration Table-1 run: unchanged statements are replayed
    # from the cache and the mod/ref touch memo answers repeat queries.
    driver = get_driver("floppy")
    spec = SafetySpec.complete_exactly_once("IoCompleteRequest")
    with EngineContext(options=C2bpOptions(jobs=1)) as context:
        result = check_property(
            driver.source, spec, entry=driver.entry, max_iterations=8,
            context=context,
        )
    assert result.verdict == driver.expected["irp"]
    assert result.iterations >= 2
    assert context.analysis_stats.c2bp_stmts_reused > 0
    assert context.analysis_stats.modref_summary_hits > 0
