"""Combined theory consistency check: EUF + linear integer arithmetic.

Given a set of theory literals (atoms with polarity), decide whether they
are jointly satisfiable.  The combination follows the Nelson-Oppen recipe,
specialized to our two convex-ish theories:

1. run congruence closure over the equalities (and check disequalities);
2. propagate the resulting equalities into the arithmetic solver;
3. check arithmetic satisfiability (Fourier-Motzkin); disequalities are
   handled by case-splitting ``t1 != t2`` into ``t1 < t2 | t1 > t2``;
4. propagate arithmetic-entailed equalities back into the congruence
   closure (detected pairwise over congruence-relevant term pairs) and
   repeat until a fixpoint.

All UNSAT verdicts are sound; a SAT verdict may be optimistic for
fragments we treat as uninterpreted (non-linear arithmetic, bit
operations), which only costs the client precision.

Two entry points share those semantics:

- :func:`check_literals` — the stateless reference: canonicalize the
  literal set (sorted, deduplicated) and run the pipeline above from
  scratch.  Every verdict is a pure function of the literal *set*.
- :class:`IncrementalTheory` — a stateful engine for query streams that
  share most literals (the AllSAT sweep: consecutive models differ by a
  handful of atoms; greedy core minimization: each probe drops one
  literal).  Queries whose literals all lie in the *difference-bound
  fragment* (each atom linearizes to a unit-coefficient difference
  ``u - v <= c`` / ``u == v + c`` over at most two opaque non-application
  terms) are answered on a persistent :class:`~repro.prover.dbm.
  DifferenceBounds` matrix: the engine keeps the previous query's
  literals as a push/pop stack, rewinds to the longest common prefix,
  and pushes only the delta — incremental closure instead of
  re-saturating EUF+Fourier-Motzkin per query.  The fragment is exact
  (difference systems over the integers are decided by negative-cycle
  detection), so verdicts and ``exact`` flags match the reference.
  Everything else falls back to the reference pipeline behind a
  per-session result cache keyed on the literal set, with an
  entailed-equality memo shared across the session's Fourier-Motzkin
  entailment probes.
"""

import time

from repro.prover.dbm import ZERO, DifferenceBounds
from repro.prover.euf import CongruenceClosure
from repro.prover.linarith import LinearSolver, linearize
from repro.prover.terms import subterms

_MAX_SPLIT_DISEQS = 12
_MAX_PROPAGATION_ROUNDS = 4


class TheoryResult:
    __slots__ = ("consistent", "exact", "equalities")

    def __init__(self, consistent, exact=True, equalities=None):
        self.consistent = consistent
        # A SAT verdict is *exact* when no completeness limit was hit on
        # the way (disequality-split cap, propagation-round cap): the
        # check actually decided the literal set rather than giving up in
        # the optimistic direction.  All UNSAT verdicts are exact.
        self.exact = exact
        # Optional: the entailed-equality pairs among the literal set's
        # difference-bound nodes (only populated on request, and only by
        # engines that computed a closure — see ``want_equalities``).
        self.equalities = equalities

    def __bool__(self):
        return self.consistent


def canonical_literals(literals):
    """The canonical form every theory entry point decides: sorted,
    deduplicated ``(atom, bool(polarity))`` pairs.  Canonicalizing up
    front makes each verdict a pure function of the literal *set* — the
    property the incremental engine's delta stack and result cache (and
    the fuzz oracle's incremental-vs-stateless differential) rely on."""
    return tuple(sorted({(atom, bool(polarity)) for atom, polarity in literals}))


def check_literals(literals):
    """Decide joint satisfiability of ``literals``.

    Each literal is ``(atom, polarity)`` where ``atom`` is
    ``("le", t1, t2)`` or ``("eq", t1, t2)``.
    """
    ordered = canonical_literals(literals)
    consistent, exact = _consistent(*_split_literals(ordered))
    return TheoryResult(consistent, exact)


def _split_literals(ordered):
    """Partition canonical literals into equality / disequality /
    less-equal term pairs (the reference pipeline's input shape)."""
    eqs, diseqs, les = [], [], []
    for atom, polarity in ordered:
        kind, t1, t2 = atom
        if kind == "eq":
            (eqs if polarity else diseqs).append((t1, t2))
        elif kind == "le":
            if polarity:
                les.append((t1, t2))  # t1 <= t2
            else:
                les.append((t2, ("app", "+", (t1, ("num", -1)))))  # t2 <= t1-1
        else:
            raise ValueError("unknown atom %r" % (atom,))
    return eqs, diseqs, les


def _consistent(eqs, diseqs, les, eq_cache=None):
    """``(consistent, exact)``: joint satisfiability, plus whether the
    verdict was reached without hitting a completeness limit."""
    euf = CongruenceClosure()
    relevant_terms = set()
    for t1, t2 in eqs + diseqs + les:
        euf.add_term(t1)
        euf.add_term(t2)
        relevant_terms |= set(subterms(t1)) | set(subterms(t2))
    for t1, t2 in eqs:
        if not euf.merge(t1, t2):
            return False, True
    for t1, t2 in diseqs:
        if not euf.add_disequality(t1, t2):
            return False, True

    capped = len(diseqs) > _MAX_SPLIT_DISEQS
    for _ in range(_MAX_PROPAGATION_ROUNDS):
        # EUF -> arithmetic: every equality the closure knows between terms
        # of interest becomes an arithmetic equality.
        solver = LinearSolver()
        for t1, t2 in les:
            solver.assert_le_terms(t1, t2)
        classes = euf.equivalence_classes()
        for members in classes.values():
            members = [m for m in members if m in relevant_terms]
            for other in members[1:]:
                solver.assert_eq_terms(members[0], other)
        if not _check_with_diseqs(solver, diseqs, euf):
            return False, True
        # Arithmetic -> EUF: find arithmetic-entailed equalities among
        # congruence-relevant pairs and merge them.
        changed = _propagate_entailed_equalities(
            solver, euf, relevant_terms, eq_cache
        )
        if not euf.consistent:
            return False, True
        if not changed:
            return True, not capped
    return True, False  # fixpoint not reached; claim SAT (sound direction)


def _check_with_diseqs(solver, diseqs, euf, depth=0):
    """Arithmetic satisfiability with ``!=`` constraints by case splitting."""
    if not solver.check():
        return False
    if not diseqs:
        return True
    if len(diseqs) > _MAX_SPLIT_DISEQS:
        # Too many splits: accept possibly optimistic SAT.
        return True
    (t1, t2), rest = diseqs[0], diseqs[1:]
    lin1, lin2 = linearize(t1), linearize(t2)
    # If the two sides share no arithmetic content constraints could bite
    # on, the disequality is arithmetically free - skip the split.
    low = solver.copy()
    expr = lin1.minus(lin2)
    expr.const += 1  # t1 <= t2 - 1
    low.add_le(expr)
    if _check_with_diseqs(low, rest, euf, depth + 1):
        return True
    high = solver.copy()
    expr = lin2.minus(lin1)
    expr.const += 1  # t2 <= t1 - 1
    high.add_le(expr)
    return _check_with_diseqs(high, rest, euf, depth + 1)


def _solver_fingerprint(solver):
    """A hashable canonical form of the solver's constraint system.  Two
    solvers with the same fingerprint answer every ``implies_eq`` probe
    identically, which is what licenses the per-session memo."""

    def canon(exprs):
        return frozenset(
            (tuple(sorted(e.coeffs.items())), e.const) for e in exprs
        )

    return canon(solver._les), canon(solver._eqs)


def _propagate_entailed_equalities(solver, euf, relevant_terms, eq_cache=None):
    """Merge terms the arithmetic forces equal; True if anything merged.

    Caller contract: ``solver`` has already been checked satisfiable
    (``_check_with_diseqs`` runs first), which licenses an exact
    prefilter — if ``t1 - t2`` mentions a variable no constraint
    touches, that variable can be moved freely in some model, so the
    equality cannot be entailed and the two Fourier-Motzkin runs of
    ``implies_eq`` are skipped.

    ``eq_cache`` (a dict owned by an :class:`IncrementalTheory` session)
    memoizes ``implies_eq`` answers across queries, keyed on the solver's
    constraint fingerprint plus the probed pair — sound because
    ``implies_eq`` is a pure function of exactly those inputs."""
    candidates = _congruence_candidate_pairs(euf, relevant_terms)
    changed = False
    constrained = None
    fingerprint = None
    for t1, t2 in candidates:
        if euf.are_equal(t1, t2):
            continue
        diff = linearize(t1).minus(linearize(t2))
        if diff.is_constant:
            if diff.const != 0:
                continue
        else:
            if constrained is None:
                constrained = set()
                for expr in solver._les:
                    constrained |= expr.variables()
                for expr in solver._eqs:
                    constrained |= expr.variables()
            if any(var not in constrained for var in diff.coeffs):
                continue
        if eq_cache is None:
            entailed = solver.implies_eq(t1, t2)
        else:
            if fingerprint is None:
                fingerprint = _solver_fingerprint(solver)
            key = (fingerprint, t1, t2)
            entailed = eq_cache.get(key)
            if entailed is None:
                entailed = solver.implies_eq(t1, t2)
                eq_cache[key] = entailed
        if entailed:
            euf.merge(t1, t2)
            changed = True
            if not euf.consistent:
                return True
    return changed


def _congruence_candidate_pairs(euf, relevant_terms):
    """Pairs of terms whose equality could matter: arguments at the same
    position of same-symbol applications, and the two sides of potential
    numeral pinnings."""
    by_slot = {}
    apps = [t for t in relevant_terms if t[0] == "app"]
    for application in apps:
        symbol, args = application[1], application[2]
        for index, arg in enumerate(args):
            by_slot.setdefault((symbol, index, len(args)), []).append(arg)
    pairs = set()
    for args in by_slot.values():
        unique = list({euf.representative(a): a for a in args}.values())
        for i, first in enumerate(unique):
            for second in unique[i + 1 :]:
                pairs.add((first, second))
    return pairs


# -- the incremental engine ---------------------------------------------------

#: Sentinel for a literal (or disequality branch) whose linearization is a
#: constant that falsifies it outright.
_FALSE = object()


class _LiteralInfo:
    """Per-literal classification, memoized for the session's lifetime.

    ``edges`` is the list of difference edges ``(u, v, c)`` the literal
    asserts (``_FALSE`` when it is constantly false); for disequalities
    ``branches`` holds the two case-split branches' edge lists instead
    (``t1 <= t2 - 1`` first, then ``t2 <= t1 - 1`` — the reference
    pipeline's split order), each possibly ``_FALSE`` or empty."""

    __slots__ = ("in_fragment", "is_diseq", "edges", "branches")

    def __init__(self, in_fragment, is_diseq=False, edges=None, branches=None):
        self.in_fragment = in_fragment
        self.is_diseq = is_diseq
        self.edges = edges
        self.branches = branches


_OUTSIDE = _LiteralInfo(False)


def _difference_edges(expr):
    """The difference edges asserting ``expr <= 0``, for a LinExpr in the
    fragment; ``_FALSE`` for a violated constant; ``None`` when the
    expression leaves the fragment (an application term, a coefficient
    other than ±1, more than two terms, a non-integral constant)."""
    if expr.const.denominator != 1:
        return None
    c = int(expr.const)
    items = list(expr.coeffs.items())
    if not items:
        return [] if c <= 0 else _FALSE
    if len(items) > 2:
        return None
    for term, coef in items:
        if term[0] == "app" or (coef != 1 and coef != -1):
            return None
    if len(items) == 1:
        term, coef = items[0]
        if coef == 1:
            return [(term, ZERO, -c)]  # term + c <= 0
        return [(ZERO, term, -c)]  # -term + c <= 0
    (t1, c1), (t2, _) = items
    if sum(coef for _, coef in items) != 0:
        return None  # same-sign pair: not a difference constraint
    if c1 == 1:
        return [(t1, t2, -c)]
    return [(t2, t1, -c)]


def _classify_literal(literal):
    atom, polarity = literal
    kind, t1, t2 = atom
    if kind not in ("eq", "le"):
        return _OUTSIDE  # fallback path raises, as the reference does
    diff = linearize(t1).minus(linearize(t2))
    if kind == "le":
        expr = diff if polarity else diff.scaled(-1)
        if not polarity:
            expr.const += 1  # t2 <= t1 - 1
        edges = _difference_edges(expr)
        if edges is None:
            return _OUTSIDE
        return _LiteralInfo(True, edges=edges)
    if polarity:  # equality: both directions
        forward = _difference_edges(diff)
        backward = _difference_edges(diff.scaled(-1))
        if forward is None or backward is None:
            return _OUTSIDE
        if forward is _FALSE or backward is _FALSE:
            return _LiteralInfo(True, edges=_FALSE)
        return _LiteralInfo(True, edges=forward + backward)
    # Disequality: two case-split branches, reference order.
    low_expr = diff.copy()
    low_expr.const += 1  # t1 <= t2 - 1
    high_expr = diff.scaled(-1)
    high_expr.const += 1  # t2 <= t1 - 1
    low = _difference_edges(low_expr)
    high = _difference_edges(high_expr)
    if low is None or high is None:
        return _OUTSIDE
    return _LiteralInfo(True, is_diseq=True, branches=(low, high))


class IncrementalTheory:
    """A stateful theory session answering a stream of related queries.

    :meth:`check` agrees with :func:`check_literals` on every input —
    verdict and ``exact`` flag — but amortizes work across the stream:

    - *fragment queries* (every literal classifies into the
      difference-bound fragment, and the disequality count is within the
      reference pipeline's split cap) are decided on one persistent
      :class:`DifferenceBounds` matrix.  The engine keeps the previous
      query's canonical literals as a stack of push/pop frames; a new
      query rewinds to the longest common prefix and pushes only its
      suffix, so a sweep model differing by a few atoms — or a core
      probe dropping one literal — pays a handful of O(n²) closure
      updates instead of a from-scratch saturation;
    - everything else goes through the reference pipeline behind a
      result cache keyed on the canonical literal set, with an
      entailed-equality memo (:func:`_propagate_entailed_equalities`)
      shared across the session.

    The session also tallies its own counters and timers, mirrored into
    ``ProverStats`` by the owning cube session."""

    def __init__(self):
        self._dbm = DifferenceBounds()
        self._stack = []  # [(literal, _LiteralInfo)] currently asserted
        self._info = {}  # literal -> _LiteralInfo (classification memo)
        self._results = {}  # frozenset(literals) -> (consistent, exact)
        self._eq_cache = {}  # (solver fingerprint, t1, t2) -> bool
        self.delta_queries = 0
        self.cache_hits = 0
        self.fallback_queries = 0
        self.literals_pushed = 0
        self.literals_reused = 0
        self.time_in_closure = 0.0
        self.time_in_fallback = 0.0

    def check(self, literals, want_equalities=False):
        """Decide joint satisfiability of ``literals``; same contract (and
        same answers) as :func:`check_literals`."""
        ordered = canonical_literals(literals)
        infos = []
        diseq_count = 0
        fragment = True
        for literal in ordered:
            info = self._info.get(literal)
            if info is None:
                info = _classify_literal(literal)
                self._info[literal] = info
            if not info.in_fragment:
                fragment = False
                break
            if info.is_diseq:
                diseq_count += 1
            infos.append(info)
        if not fragment or diseq_count > _MAX_SPLIT_DISEQS:
            return self._check_fallback(ordered)
        started = time.perf_counter()
        self.delta_queries += 1
        self._retarget(ordered, infos)
        result = self._decide_fragment(want_equalities)
        self.time_in_closure += time.perf_counter() - started
        return result

    # -- fragment fast path --------------------------------------------------

    def _retarget(self, ordered, infos):
        """Rewind the assertion stack to the longest common prefix with
        ``ordered``, then push the suffix, one trail frame per literal."""
        stack, dbm = self._stack, self._dbm
        prefix = 0
        limit = min(len(stack), len(ordered))
        while prefix < limit and stack[prefix][0] == ordered[prefix]:
            prefix += 1
        while len(stack) > prefix:
            stack.pop()
            dbm.pop()
        self.literals_reused += prefix
        self.literals_pushed += len(ordered) - prefix
        for literal, info in zip(ordered[prefix:], infos[prefix:]):
            dbm.push()
            if info.edges is _FALSE:
                dbm.mark_inconsistent()
            elif not info.is_diseq:
                for u, v, c in info.edges:
                    dbm.add(u, v, c)
            stack.append((literal, info))

    def _decide_fragment(self, want_equalities):
        dbm = self._dbm
        if dbm.inconsistent:
            return TheoryResult(False, True)
        diseqs = [info for _, info in self._stack if info.is_diseq]
        consistent = self._split_diseqs(diseqs, 0)
        equalities = None
        if consistent and want_equalities:
            equalities = self._entailed_equalities()
        return TheoryResult(consistent, True, equalities)

    def _split_diseqs(self, diseqs, index):
        """Case-split the disequalities on the live matrix (reference
        order: low branch first), one trail frame per branch."""
        if index == len(diseqs):
            return True
        dbm = self._dbm
        for branch in diseqs[index].branches:
            if branch is _FALSE:
                continue
            dbm.push()
            for u, v, c in branch:
                dbm.add(u, v, c)
            holds = not dbm.inconsistent and self._split_diseqs(
                diseqs, index + 1
            )
            dbm.pop()
            if holds:
                return True
        return False

    def _entailed_equalities(self):
        """The pairs of (non-zero) nodes the asserted equalities and
        inequalities force equal — disequality splitting not applied.
        Deterministic: pairs come out sorted."""
        nodes = sorted(n for n in self._dbm.nodes() if n != ZERO)
        pairs = set()
        for i, u in enumerate(nodes):
            for v in nodes[i + 1 :]:
                if self._dbm.entailed_eq(u, v):
                    pairs.add((u, v))
        return frozenset(pairs)

    # -- fallback ------------------------------------------------------------

    def _check_fallback(self, ordered):
        started = time.perf_counter()
        self.fallback_queries += 1
        key = frozenset(ordered)
        cached = self._results.get(key)
        if cached is not None:
            self.cache_hits += 1
            consistent, exact = cached
        else:
            consistent, exact = _consistent(
                *_split_literals(ordered), eq_cache=self._eq_cache
            )
            self._results[key] = (consistent, exact)
        self.time_in_fallback += time.perf_counter() - started
        return TheoryResult(consistent, exact)

    def counters(self):
        return {
            "theory_delta_queries": self.delta_queries,
            "theory_cache_hits": self.cache_hits,
            "time_in_theory_closure": self.time_in_closure,
            "time_in_theory_fallback": self.time_in_fallback,
        }
