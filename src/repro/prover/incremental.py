"""The incremental assumption-based cube decision engine.

One ``F_V(φ)`` strengthening call tests up to ``3^k`` cubes against a
*fixed* goal: "does ``E(c) => φ`` hold?" for every candidate cube ``c``.
The from-scratch pipeline re-translates, re-encodes (Tseitin), rebuilds a
SAT solver, and rediscovers the same theory lemmas for every single cube.
An :class:`IncrementalCubeSession` does the shared work once per
strengthening call:

- ``¬goal``, the definitional side constraints, and the address axioms are
  translated and CNF-encoded **once** on a persistent
  :class:`~repro.prover.sat.SatSolver`;
- every candidate predicate literal (both polarities) is encoded once and
  guarded by a fresh *selector* variable ``s`` with the clause
  ``s -> literal``;
- a cube is decided by ``solve(assumptions=[selectors of its literals])``
  — UNSAT means the cube's concretization implies the goal;
- the DPLL(T) lemma loop lives in the session: theory-refutation blocking
  clauses are added to the *same* solver, so lemmas (and the CDCL core's
  learned clauses) accumulate across all cubes of the call instead of
  being rediscovered per cube.

On an UNSAT answer the solver's assumption core is mapped back to cube
literals, giving the *sub-cube* that already forces the implication — the
caller can record the smaller cube and prune strictly more supersets
without further queries.

Theory consistency is checked only over the atoms *relevant* to the
current cube (the base encoding's atoms plus the active literals'), so an
assignment to the atoms of inactive candidate literals — present in the
solver because the whole candidate set is encoded up front — cannot
perturb the theory verdict relative to a one-shot per-cube query.  The
persisted blocking clauses get the same treatment: each is guarded by a
selector that :meth:`decide` assumes only when the lemma's atoms all lie
inside the current query's relevant set.  An unguarded lemma base would
let earlier cubes' lemmas case-split over atoms a later query never asked
about (e.g. an exhaustive split over comparison atoms whose
integer-tightened cells jointly refute a query that is satisfiable over
the rationals), making answers depend on query order — and diverge from
the one-shot ``check_implication`` reference.  With the guards, every ``decide`` answer
is a pure function of ``(candidates, goal, cube)``.
"""

import time

from repro.prover import terms as T
from repro.prover.cnf import CnfEncoder
from repro.prover.sat import SatSolver
from repro.prover.smt import Satisfiability, _minimize_core
from repro.prover.theory import IncrementalTheory


class IncrementalCubeSession:
    """Assumption-based cube decisions against one fixed goal formula.

    ``candidates`` is the ordered list of candidate predicate C
    expressions (positive forms); ``goal`` is the goal C expression.  A
    *cube* is an iterable of ``(candidate index, polarity)`` pairs;
    :meth:`decide` answers whether the cube's concretization implies the
    goal, together with the assumption core as a sub-cube.

    Every theory consistency check — model validation in :meth:`decide`
    and :meth:`enumerate_models`, and each probe of the greedy core
    minimizer — runs through one persistent
    :class:`~repro.prover.theory.IncrementalTheory` session, so the
    near-identical literal sets of an AllSAT sweep pay only for their
    deltas.  The engine answers exactly like the stateless
    ``check_literals`` (that equivalence is hypothesis-tested, and the
    fuzz oracle compares whole abstractions against one-shot queries
    that use ``check_literals`` directly), so verdicts, cores, and
    ``TheoryResult.exact`` licensing are those of the reference."""

    def __init__(self, candidates, goal, max_rounds=400):
        self.max_rounds = max_rounds
        self._theory = IncrementalTheory()
        # Counters mirrored into ProverStats by the session's owner.
        self.assumption_solves = 0
        self.lemmas_learned = 0
        self.lemma_reuse_hits = 0
        self.decides = 0
        # Per-phase wall-clock attribution (seconds).
        self.time_in_encode = 0.0
        self.time_in_solve = 0.0
        self.time_in_generalize = 0.0

        encode_started = time.perf_counter()
        ctx = T.TranslationContext()
        goal_formula = T.translate_formula(goal, ctx)
        positive = [T.translate_formula(expr, ctx) for expr in candidates]
        literal_formulas = {}
        for index, formula in enumerate(positive):
            literal_formulas[(index, True)] = formula
            literal_formulas[(index, False)] = T.lnot(formula)
        # Address axioms are true facts; computing them over the whole
        # candidate set (not per cube) keeps them query-independent.
        scope = T.land(T.lnot(goal_formula), *positive, *ctx.defs)
        axioms = list(ctx.defs) + T.address_axioms(scope)
        base = T.land(T.lnot(goal_formula), *axioms)

        self.encoder = CnfEncoder()
        self.solver = SatSolver()
        self._atom_map = self.encoder.atom_map
        clauses = []
        self._trivially_valid = base == T.FALSE
        self._base_atom_vars = set()
        if not self._trivially_valid:
            root = self.encoder.encode(base, clauses)
            clauses.append([root])
            self._base_atom_vars = {
                self._atom_map.var_for(atom) for atom in T.formula_atoms(base)
            }
        # Relevance-guarded theory lemmas: guard selector -> atom vars.
        self._lemmas = {}
        # One selector per candidate literal: assuming it asserts the literal.
        self._selectors = {}
        self._selector_literal = {}
        self._literal_atom_vars = {}
        # Tseitin root of each literal's formula (the encoding is
        # biconditional, so the root's value in any model *is* the
        # literal's truth value); True/False stand in for the constant
        # literals.  Used by the AllSAT sweep to project models onto the
        # candidate set.
        self._literal_roots = {}
        for key, formula in literal_formulas.items():
            selector = self._atom_map.fresh_var()
            self._selectors[key] = selector
            self._selector_literal[selector] = key
            if formula == T.FALSE:
                # The literal is constantly false: any cube containing it
                # has an unsatisfiable concretization, so the implication
                # holds vacuously — assuming the selector must conflict.
                clauses.append([-selector])
                self._literal_atom_vars[key] = frozenset()
                self._literal_roots[key] = False
            elif formula == T.TRUE:
                # Constantly true: assuming the selector constrains nothing.
                self._literal_atom_vars[key] = frozenset()
                self._literal_roots[key] = True
            else:
                literal_root = self.encoder.encode(formula, clauses)
                clauses.append([-selector, literal_root])
                self._literal_atom_vars[key] = frozenset(
                    self._atom_map.var_for(atom)
                    for atom in T.formula_atoms(formula)
                )
                self._literal_roots[key] = literal_root
        for clause in clauses:
            self.solver.add_clause(clause)
        # The full relevance scope: every atom any cube query over this
        # candidate set could put in play (the AllSAT sweep validates its
        # models over exactly this set).
        self._all_atom_vars = set(self._base_atom_vars)
        for atoms in self._literal_atom_vars.values():
            self._all_atom_vars |= atoms
        self.time_in_encode += time.perf_counter() - encode_started

    def decide(self, cube):
        """Decide ``E(cube) => goal``.

        Returns ``(outcome, core)``: ``outcome`` is a
        :class:`Satisfiability` where UNSAT means the implication is
        valid, and ``core`` is the sub-cube (tuple of (index, polarity)
        pairs, sorted) whose literals already force the implication —
        only present on UNSAT."""
        cube = tuple(cube)
        self.decides += 1
        if self._trivially_valid:
            return Satisfiability.UNSAT, ()
        relevant = set(self._base_atom_vars)
        for key in cube:
            relevant |= self._literal_atom_vars[key]
        assumptions = [self._selectors[key] for key in cube]
        # Enable only the lemmas whose atoms this query could itself have
        # discovered; the rest stay inert behind their guards.
        for guard, atoms in self._lemmas.items():
            if atoms <= relevant:
                assumptions.append(guard)
        lemmas_before = self.lemmas_learned
        outcome = Satisfiability.UNKNOWN
        core = None
        for _ in range(self.max_rounds):
            solve_started = time.perf_counter()
            result = self.solver.solve(assumptions=assumptions)
            self.time_in_solve += time.perf_counter() - solve_started
            self.assumption_solves += 1
            if not result.sat:
                outcome = Satisfiability.UNSAT
                generalize_started = time.perf_counter()
                core = self._map_core(result.core, cube)
                self.time_in_generalize += time.perf_counter() - generalize_started
                break
            generalize_started = time.perf_counter()
            literals = self._theory_literals(result.model, relevant)
            if not literals or self._theory.check(literals):
                self.time_in_generalize += (
                    time.perf_counter() - generalize_started
                )
                outcome = Satisfiability.SAT
                break
            blocked = _minimize_core(literals, checker=self._theory.check)
            blocking = [
                (-self._atom_map.var_for(atom) if polarity else self._atom_map.var_for(atom))
                for atom, polarity in blocked
            ]
            guard = self._atom_map.fresh_var()
            self.solver.add_clause([-guard] + blocking)
            self._lemmas[guard] = frozenset(
                self._atom_map.var_for(a) for a, _ in blocked
            )
            assumptions.append(guard)
            self.lemmas_learned += 1
            self.time_in_generalize += time.perf_counter() - generalize_started
        if (
            self.decides > 1
            and lemmas_before > 0
            and self.lemmas_learned == lemmas_before
        ):
            # Earlier cubes' theory lemmas sufficed — nothing rediscovered.
            self.lemma_reuse_hits += 1
        return outcome, core

    def _map_core(self, solver_core, cube):
        """Map an assumption core back to a sub-cube.

        Lemma guards in the conflict are theory facts, not cube literals,
        so they are dropped — but a lemma only holds *relative to its own
        atoms being in scope*.  The shrunken sub-cube is reported only
        when every involved lemma's atoms lie inside the sub-cube's
        relevant set; otherwise a standalone query on the sub-cube could
        not rediscover the lemma and would answer differently, so the
        full cube is returned instead (a valid, unshrunken core)."""
        sub_cube = tuple(
            sorted(
                self._selector_literal[s]
                for s in solver_core
                if s in self._selector_literal
            )
        )
        relevant = set(self._base_atom_vars)
        for key in sub_cube:
            relevant |= self._literal_atom_vars[key]
        for s in solver_core:
            atoms = self._lemmas.get(s)
            if atoms is not None and not atoms <= relevant:
                return tuple(sorted(cube))
        return sub_cube

    def _theory_literals(self, model, relevant_vars):
        literals = []
        for var, value in model.items():
            if var not in relevant_vars:
                continue
            atom = self._atom_map.atom_of(var)
            if atom is not None:
                literals.append((atom, value))
        return literals

    # -- AllSAT model enumeration (the sweep behind ModelCatalog) ---------------

    def candidate_count(self):
        return len(self._literal_roots) // 2

    def _root_value(self, model, key):
        """The truth value of a candidate literal in a total model (the
        Tseitin encoding is biconditional, so the root's assignment is the
        formula's truth value)."""
        root = self._literal_roots[key]
        if isinstance(root, bool):
            return root
        value = model[abs(root)]
        return value if root > 0 else not value

    def enumerate_models(self, max_models):
        """Enumerate theory-validated models of the base encoding
        (``¬goal ∧ axioms``, no cube literal asserted), projected onto the
        candidate predicates.

        Returns ``(projections, solves)``: each projection is a tuple of
        booleans — the truth value of every candidate's *positive* literal
        in one model — and distinct projections only (each found
        projection is blocked behind a sweep-only guard, so the blocking
        clauses are invisible to :meth:`decide`).  A projection is a
        *witness catalog* entry: any cube it satisfies has a
        theory-consistent model of ``E(cube) ∧ ¬goal``, i.e. the cube
        does **not** imply the goal.  Models are validated over the full
        relevance scope (base atoms plus every candidate literal's), and
        kept only when the theory checker's verdict is *exact* — a
        capped, optimistic SAT is not a witness a smaller scope can
        inherit.  Theory-refuted models add relevance-guarded lemmas
        through the same code path as :meth:`decide`, so sweep work also
        warms later cube decisions."""
        if self._trivially_valid:
            return [], 0
        sweep_guard = self._atom_map.fresh_var()
        assumptions = [sweep_guard]
        for guard, atoms in self._lemmas.items():
            if atoms <= self._all_atom_vars:
                assumptions.append(guard)
        count = self.candidate_count()
        positive_keys = [(index, True) for index in range(count)]
        projections = []
        solves = 0
        for _ in range(self.max_rounds):
            solve_started = time.perf_counter()
            result = self.solver.solve(assumptions=assumptions)
            self.time_in_solve += time.perf_counter() - solve_started
            self.assumption_solves += 1
            solves += 1
            if not result.sat:
                break
            generalize_started = time.perf_counter()
            literals = self._theory_literals(result.model, self._all_atom_vars)
            verdict = self._theory.check(literals) if literals else None
            if literals and not verdict:
                # Theory-inconsistent assignment: learn the same guarded
                # lemma decide() would, and keep enumerating.
                blocked = _minimize_core(literals, checker=self._theory.check)
                blocking = [
                    (
                        -self._atom_map.var_for(atom)
                        if polarity
                        else self._atom_map.var_for(atom)
                    )
                    for atom, polarity in blocked
                ]
                guard = self._atom_map.fresh_var()
                self.solver.add_clause([-guard] + blocking)
                self._lemmas[guard] = frozenset(
                    self._atom_map.var_for(a) for a, _ in blocked
                )
                assumptions.append(guard)
                self.lemmas_learned += 1
                self.time_in_generalize += time.perf_counter() - generalize_started
                continue
            projection = tuple(
                self._root_value(result.model, key) for key in positive_keys
            )
            if verdict is None or verdict.exact:
                projections.append(projection)
            block = [-sweep_guard]
            for key in positive_keys:
                root = self._literal_roots[key]
                if isinstance(root, bool):
                    continue
                value = result.model[abs(root)]
                block.append(-abs(root) if value else abs(root))
            self.solver.add_clause(block)
            self.time_in_generalize += time.perf_counter() - generalize_started
            if len(projections) >= max_models:
                break
        return projections, solves

    def counters(self):
        return {
            "assumption_solves": self.assumption_solves,
            "lemmas_learned": self.lemmas_learned,
            "lemma_reuse_hits": self.lemma_reuse_hits,
            "decides": self.decides,
            "time_in_encode": self.time_in_encode,
            "time_in_solve": self.time_in_solve,
            "time_in_generalize": self.time_in_generalize,
            **self._theory.counters(),
        }
