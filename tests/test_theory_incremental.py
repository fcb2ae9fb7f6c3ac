"""The incremental theory engine against the stateless reference.

- **Differential** — a stateful :class:`IncrementalTheory` session fed a
  stream of overlapping literal sets (hypothesis-generated push/pop
  interleavings: grow, shrink, replace, reshuffle) answers every query
  exactly like a fresh ``check_literals`` call: verdict, ``exact`` flag,
  and (for fragment queries) the entailed-equality pairs against a
  ``LinearSolver.implies_eq`` reference.
- **Order independence** — verdicts are a pure function of the literal
  *set*: any permutation of the query stream, and any permutation of the
  literals inside a query, produce the same answers (the sweep-order
  property the AllSAT catalog relies on).
- **DBM units** — incremental closure equals from-scratch closure,
  push/pop restores every bound, negative cycles flip the flag.
- **Wiring** — the engine's counters engage on a real abstraction, auto
  ``--jobs`` resolution, and an
  injected-engine-bug meta-test proving the fuzz oracle's one-shot
  reference comparison (whose theory checks are the stateless
  ``check_literals``) catches a corrupted fast path.
"""

import itertools
import random

from hypothesis import given, settings, strategies as st

from repro import C2bp, parse_c_program, parse_predicate_file
from repro.core import C2bpOptions
from repro.core import pool as pool_module
from repro.engine import EngineContext
from repro.fuzz.gen import ProgramGenerator
from repro.fuzz.oracle import KIND_ABSTRACTION, SoundnessOracle
from repro.programs import get_program
from repro.prover import theory as theory_module
from repro.prover.dbm import ZERO, DifferenceBounds
from repro.prover.linarith import LinearSolver, linearize
from repro.prover.theory import (
    IncrementalTheory,
    canonical_literals,
    check_literals,
)

# -- literal generators --------------------------------------------------------------

_VARS = [("var", name) for name in "wxyz"]


@st.composite
def fragment_terms(draw):
    """Terms whose atoms stay in the difference-bound fragment."""
    base = draw(st.sampled_from(_VARS + [("num", draw(st.integers(-3, 3)))]))
    if draw(st.booleans()):
        return ("app", "+", (base, ("num", draw(st.integers(-2, 2)))))
    return base


@st.composite
def mixed_terms(draw):
    """Fragment terms plus uninterpreted applications (fallback path)."""
    if draw(st.integers(0, 3)) == 0:
        return ("app", "f", (draw(st.sampled_from(_VARS)),))
    return draw(fragment_terms())


def _literals(terms):
    return st.tuples(
        st.tuples(st.sampled_from(["le", "eq"]), terms, terms),
        st.booleans(),
    ).map(lambda pair: ((pair[0][0], pair[0][1], pair[0][2]), pair[1]))


@st.composite
def literal_streams(draw, terms, max_sets=6, max_literals=6):
    """A stream of overlapping literal sets: each set is the previous one
    grown, shrunk, or replaced — the push/pop shapes the engine sees."""
    stream = []
    current = draw(st.lists(_literals(terms), min_size=1, max_size=max_literals))
    stream.append(list(current))
    for _ in range(draw(st.integers(1, max_sets - 1))):
        move = draw(st.integers(0, 3))
        if move == 0 or not current:
            current = draw(
                st.lists(_literals(terms), min_size=1, max_size=max_literals)
            )
        elif move == 1 and len(current) > 1:
            current = list(current)
            del current[draw(st.integers(0, len(current) - 1))]
        else:
            current = list(current) + [draw(_literals(terms))]
        shuffled = list(current)
        draw(st.randoms(use_true_random=False)).shuffle(shuffled)
        stream.append(shuffled)
    return stream


# -- the hypothesis differentials -----------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(literal_streams(fragment_terms()))
def test_incremental_matches_stateless_on_fragment_streams(stream):
    session = IncrementalTheory()
    for literals in stream:
        incremental = session.check(literals)
        stateless = check_literals(literals)
        assert incremental.consistent == stateless.consistent, literals
        assert incremental.exact == stateless.exact, literals
    # Every query classified into the fragment: no fallbacks taken.
    assert session.fallback_queries == 0
    assert session.delta_queries == len(stream)


@settings(max_examples=80, deadline=None)
@given(literal_streams(mixed_terms()))
def test_incremental_matches_stateless_on_mixed_streams(stream):
    """Uninterpreted applications push queries down the fallback path;
    answers must still match the stateless reference (including cache
    hits on repeated sets)."""
    session = IncrementalTheory()
    for literals in stream:
        for probe in (literals, literals):  # repeat: exercises the cache
            incremental = session.check(probe)
            stateless = check_literals(probe)
            assert incremental.consistent == stateless.consistent, literals
            assert incremental.exact == stateless.exact, literals


def _reference_equalities(literals):
    """Entailed equalities over the literal set's difference-bound nodes,
    computed by the stateless ``LinearSolver`` (disequalities excluded —
    the engine's documented equality scope)."""
    solver = LinearSolver()
    nodes = set()
    for (kind, t1, t2), polarity in canonical_literals(literals):
        diff = linearize(t1).minus(linearize(t2))
        nodes |= set(diff.coeffs)
        if kind == "le":
            if polarity:
                solver.assert_le_terms(t1, t2)
            else:
                solver.assert_lt_terms(t2, t1)
        elif polarity:
            solver.assert_eq_terms(t1, t2)
    pairs = set()
    ordered = sorted(nodes)
    for i, u in enumerate(ordered):
        for v in ordered[i + 1 :]:
            if solver.implies_eq(u, v):
                pairs.add((u, v))
    return frozenset(pairs)


@settings(max_examples=80, deadline=None)
@given(literal_streams(fragment_terms(), max_sets=4, max_literals=5))
def test_entailed_equalities_match_linear_solver(stream):
    session = IncrementalTheory()
    for literals in stream:
        result = session.check(literals, want_equalities=True)
        if not result.consistent:
            continue
        reference = _reference_equalities(literals)
        assert result.equalities == reference, literals


@settings(max_examples=60, deadline=None)
@given(
    literal_streams(fragment_terms(), max_sets=4, max_literals=5),
    st.randoms(use_true_random=False),
)
def test_sweep_order_independence(stream, rng):
    """Answers are independent of both the order of queries in the
    stream and the literal order inside each query — two sessions fed
    permuted streams agree set-by-set (the property that makes the
    AllSAT sweep's model order irrelevant to the theory verdicts)."""
    forward = IncrementalTheory()
    shuffled_session = IncrementalTheory()
    answers = {}
    for literals in stream:
        key = canonical_literals(literals)
        result = forward.check(literals)
        answers[key] = (result.consistent, result.exact)
    permuted = list(stream)
    rng.shuffle(permuted)
    for literals in permuted:
        shuffled = list(literals)
        rng.shuffle(shuffled)
        result = shuffled_session.check(shuffled)
        key = canonical_literals(literals)
        assert (result.consistent, result.exact) == answers[key]


# -- targeted engine cases ------------------------------------------------------------


def test_fragment_unsat_chains():
    session = IncrementalTheory()
    x, y, z = ("var", "x"), ("var", "y"), ("var", "z")
    # x <= y, y <= z, z <= x-1: negative cycle.
    lits = [
        (("le", x, y), True),
        (("le", y, z), True),
        (("le", z, ("app", "+", (x, ("num", -1)))), True),
    ]
    assert not session.check(lits).consistent
    # Drop the cycle-closing edge: satisfiable again (pop path).
    assert session.check(lits[:2]).consistent
    # Disequality against a pinned difference: x==y via bounds, x != y.
    lits = [
        (("le", x, y), True),
        (("le", y, x), True),
        (("eq", x, y), False),
    ]
    result = session.check(lits)
    assert not result.consistent and result.exact
    # The stateless reference agrees on all of it.
    assert not check_literals(lits).consistent


def test_fragment_entailed_equalities_through_constants():
    session = IncrementalTheory()
    x, y = ("var", "x"), ("var", "y")
    lits = [
        (("eq", x, ("num", 3)), True),
        (("le", y, ("num", 3)), True),
        (("le", ("num", 3), y), True),
    ]
    result = session.check(lits, want_equalities=True)
    assert result.consistent
    assert (x, y) in result.equalities


def test_session_counters_track_delta_and_cache_paths():
    session = IncrementalTheory()
    x = ("var", "x")
    f_x = ("app", "f", (x,))
    session.check([(("le", x, ("num", 3)), True)])
    assert session.delta_queries == 1
    fallback = [(("eq", f_x, ("num", 1)), True)]
    session.check(fallback)
    session.check(fallback)
    counters = session.counters()
    assert session.fallback_queries == 2
    assert counters["theory_cache_hits"] == 1
    assert counters["theory_delta_queries"] == 1
    assert counters["time_in_theory_closure"] >= 0.0
    assert counters["time_in_theory_fallback"] > 0.0


# -- DBM units ------------------------------------------------------------------------


def _random_edges(rng, nodes, count):
    return [
        (rng.choice(nodes), rng.choice(nodes), rng.randint(-4, 4))
        for _ in range(count)
    ]


def test_dbm_incremental_closure_matches_floyd_warshall():
    rng = random.Random(7)
    nodes = [("var", name) for name in "abcd"] + [ZERO]
    inf = float("inf")
    for _ in range(60):
        edges = _random_edges(rng, nodes, rng.randint(1, 8))
        dbm = DifferenceBounds()
        dbm.push()
        for u, v, c in edges:
            dbm.add(u, v, c)
        # From-scratch Floyd-Warshall over the same edge set.
        dist = {(i, j): 0 if i == j else inf for i in nodes for j in nodes}
        for u, v, c in edges:
            dist[(u, v)] = min(dist[(u, v)], c)
        for k in nodes:
            for i in nodes:
                for j in nodes:
                    through = dist[(i, k)] + dist[(k, j)]
                    if through < dist[(i, j)]:
                        dist[(i, j)] = through
        negative = any(dist[(i, i)] < 0 for i in nodes)
        assert dbm.inconsistent == negative, edges
        if not negative:
            for i in nodes:
                for j in nodes:
                    if i == j:
                        continue
                    expected = None if dist[(i, j)] == inf else dist[(i, j)]
                    assert dbm.bound(i, j) == expected, (edges, i, j)


def test_dbm_push_pop_restores_bounds_and_flag():
    x, y = ("var", "x"), ("var", "y")
    dbm = DifferenceBounds()
    dbm.push()
    dbm.add(x, y, 3)
    before = dict(dbm._dist)
    dbm.push()
    dbm.add(y, x, -5)  # negative cycle: 3 + (-5) < 0
    assert dbm.inconsistent
    dbm.pop()
    assert not dbm.inconsistent
    assert dict(dbm._dist) == before
    dbm.push()
    dbm.add(y, x, -3)  # tight cycle: forces x - y == 3
    assert not dbm.inconsistent
    assert dbm.bound(x, y) == 3 and dbm.bound(y, x) == -3
    assert not dbm.entailed_eq(x, y)
    dbm.add(x, y, 0)
    assert dbm.inconsistent
    dbm.pop()
    assert dict(dbm._dist) == before


def test_dbm_entailed_eq():
    x, y = ("var", "x"), ("var", "y")
    dbm = DifferenceBounds()
    dbm.push()
    dbm.add(x, y, 0)
    assert not dbm.entailed_eq(x, y)
    dbm.add(y, x, 0)
    assert dbm.entailed_eq(x, y)
    assert dbm.entailed_eq(x, x)


# -- end-to-end wiring ----------------------------------------------------------------


def _prover_stats(study, **option_kwargs):
    program = parse_c_program(study.source, study.name)
    predicates = parse_predicate_file(study.predicate_text, program)
    with EngineContext(options=C2bpOptions(**option_kwargs)) as context:
        C2bp(program, predicates, context=context).run()
        return context.prover.stats


def test_abstraction_counters_engage():
    study = get_program("partition")
    stats = _prover_stats(study, jobs=1)
    assert stats.theory_delta_queries > 0
    assert stats.time_in_theory_closure > 0.0
    snapshot = stats.snapshot()
    for key in (
        "theory_delta_queries",
        "theory_cache_hits",
        "allsat_sweep_theory_deltas",
        "time_in_theory_closure",
        "time_in_theory_fallback",
    ):
        assert key in snapshot
    assert "time_in_theory_cache" not in snapshot


# -- auto jobs ------------------------------------------------------------------------


def test_auto_jobs_resolution(monkeypatch):
    monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 1)
    assert pool_module.auto_jobs() == 1
    monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 2)
    assert pool_module.auto_jobs() == 2
    monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 16)
    assert pool_module.auto_jobs() == pool_module.MAX_AUTO_JOBS
    monkeypatch.setattr(pool_module.os, "cpu_count", lambda: None)
    assert pool_module.auto_jobs() == 1


def test_engine_context_resolves_auto_jobs(monkeypatch):
    monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 8)
    with EngineContext(options=C2bpOptions(jobs=0)) as context:
        assert context.options.jobs == pool_module.MAX_AUTO_JOBS
    # Explicit job counts pass through untouched.
    with EngineContext(options=C2bpOptions(jobs=1)) as context:
        assert context.options.jobs == 1
    monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 1)
    with EngineContext(options=C2bpOptions(jobs=0)) as context:
        assert context.options.jobs == 1
    assert C2bpOptions().jobs == 0  # the default asks for auto-selection


# -- oracle coverage ------------------------------------------------------------------


def test_oracle_catches_injected_theory_bug(monkeypatch):
    """A fast path that misreports fragment UNSAT as SAT corrupts the
    sweep catalog and the cube verdicts; the oracle's one-shot reference
    (stateless ``check_literals``, untouched by the bug) must flag it."""
    real = theory_module.IncrementalTheory._decide_fragment

    def lying_decide(self, want_equalities):
        result = real(self, want_equalities)
        if not result.consistent:
            return theory_module.TheoryResult(True, True)
        return result

    monkeypatch.setattr(
        theory_module.IncrementalTheory, "_decide_fragment", lying_decide
    )
    oracle = SoundnessOracle()
    for seed in range(8):
        case = ProgramGenerator("theory").generate(seed)
        report = oracle.check(case, check_jobs=False)
        if report.kind == KIND_ABSTRACTION and "reference" in report.detail:
            return
    raise AssertionError("no generated case exposed the injected theory bug")
