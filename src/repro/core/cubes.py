"""The cube strengthening search: ``F_V(φ)`` and ``G_V(φ)`` (Section 4.1).

A *cube* over the boolean variables ``V`` is a conjunction of literals over
distinct variables.  ``F_V(φ)`` is the largest disjunction of cubes ``c``
such that ``E(c)`` implies ``φ``; it is the weakest predicate over ``E(V)``
that implies ``φ``.  ``G_V(φ) = ¬F_V(¬φ)`` is the strongest predicate over
``E(V)`` implied by ``φ``.

Each cube test is one theorem prover call.  The naive search makes
exponentially many; the Section 5.2 optimizations implemented here are:

- cubes are enumerated in increasing length, and any cube containing a
  known implicant is pruned (so the result is a disjunction of *prime*
  implicants only);
- a cube that implies ``¬φ`` prunes all its supersets;
- cube length can be bounded by ``max_cube_length`` (paper: ``k = 3``
  usually suffices — a precision/speed tradeoff);
- ``F`` can be distributed through ``&&`` (lossless) and ``||`` (lossy);
- the syntactic shortcut returns the variable directly when ``φ`` (or its
  negation) is literally a predicate of ``V``.

Every search opens one :class:`repro.prover.interface.CubeProverSession`
per goal and runs the same enumeration: cubes in increasing length with
superset pruning.  On a backend with the incremental cube capability the
session answers every cube from one encode-once solver under selector
assumptions, shrinks each UNSAT answer to its assumption core (so one
query can prune strictly more supersets), and consults an AllSAT
:class:`repro.prover.allsat.ModelCatalog` that answers the SAT-side cube
queries from swept, theory-validated model projections.  On a backend
with only the one-shot checks every cube is a fresh ``check_implication``
call — the paper's Simplify/Vampyre seam, and the reference the fuzz
oracle compares the incremental answers against.  Both print the same
boolean program.
"""

import itertools

from repro.cfront import cast as C
from repro.cfront.exprutils import fold_constants, is_trivially_false, is_trivially_true
from repro.boolprog import ast as B


class Cube(tuple):
    """A cube as a tuple of (candidate index, polarity) pairs."""

    def contains(self, other):
        return set(other).issubset(set(self))


_KEEP = "keep"
_PRUNE = "prune"


class CubeSearch:
    """Shared machinery for F/G computations against one prover."""

    def __init__(self, prover, options, events=None):
        self.prover = prover
        self.options = options
        self.events = events

    def _cube_session(self, candidates, goal):
        """A cube-decision session over the candidates' concretizations
        against ``goal``."""
        return self.prover.cube_session(
            [candidate.expr for candidate in candidates], goal
        )

    @staticmethod
    def _enumerate(candidates, limit, classify):
        """The shared pruning enumeration.

        Cubes are enumerated in increasing length; any cube containing an
        already-kept or already-pruned cube is skipped, so the result is
        minimal (prime) cubes only.  ``classify(cube)`` returns a pair
        ``(verdict, record)``: verdict ``_KEEP`` (collect, prune
        supersets), ``_PRUNE`` (prune supersets only), or ``None``
        (undecided — supersets stay eligible), with ``record`` the cube to
        put on the kept/pruned list.  ``record`` is normally the cube
        itself; when the prover reports an assumption core it is the
        smaller sub-cube whose literals alone force the verdict, which
        prunes strictly more supersets without further queries.
        """
        if limit is None or limit > len(candidates):
            limit = len(candidates)
        kept = []
        pruned = []
        for length in range(1, limit + 1):
            for var_indices in itertools.combinations(range(len(candidates)), length):
                for polarities in itertools.product([True, False], repeat=length):
                    cube = Cube(zip(var_indices, polarities))
                    if any(cube.contains(found) for found in kept):
                        continue
                    if any(cube.contains(bad) for bad in pruned):
                        continue
                    verdict, record = classify(cube)
                    if verdict == _KEEP:
                        kept.append(record)
                    elif verdict == _PRUNE:
                        pruned.append(record)
        return kept

    def _cube_query(self, session, cube, purpose):
        """One cube decision, reported as a ``cube-test`` event.  Returns
        ``(result, record)`` where ``record`` is the sub-cube to prune
        with: the assumption core when one shrank the cube, else the cube
        itself."""
        result, core = session.implies_cube(cube)
        if self.events is not None:
            self.events.emit(
                "cube-test", purpose=purpose, cube_size=len(cube), result=result
            )
        record = Cube(core) if core is not None else cube
        return result, record

    def implicant_cubes(self, candidates, phi, max_length=None):
        """All prime implicant cubes c over ``candidates`` with E(c) => φ.

        Returns a list of :class:`Cube`; the empty cube (meaning "true
        implies φ", i.e. φ is valid over the candidates) is returned as the
        single result ``[Cube()]``.
        """
        phi = fold_constants(phi)
        if is_trivially_true(phi):
            return [Cube()]
        if is_trivially_false(phi):
            return []
        if self.options.syntactic_heuristics:
            shortcut = self._syntactic_shortcut(candidates, phi)
            if shortcut is not None:
                return shortcut
        limit = max_length
        if limit is None:
            limit = self.options.max_cube_length
        # The validity precheck is the empty-cube decision; it shares the
        # cache key with Prover.is_valid(phi) and warms the session whose
        # solver state every subsequent cube of this call reuses.
        implies_phi = self._cube_session(candidates, phi)
        valid, _ = implies_phi.implies_cube(())
        if valid:
            return [Cube()]
        implies_not_phi = self._cube_session(candidates, C.negate(phi))
        # The mirror precheck: an unsatisfiable φ is implied only by cubes
        # that are themselves inconsistent — every one a false disjunct, so
        # F(φ) is false without enumerating.  Deciding this up front also
        # keeps the backends aligned: an incremental session would refute
        # each cube with an *empty* assumption core (pruning everything),
        # while one-shot queries keep the vacuous implicants they happen
        # to test first.
        refuted, _ = implies_not_phi.implies_cube(())
        if refuted:
            return []

        def classify(cube):
            result, record = self._cube_query(implies_phi, cube, "implicant")
            if result:
                return _KEEP, record
            result, record = self._cube_query(implies_not_phi, cube, "refute")
            if result:
                return _PRUNE, record
            return None, None

        return self._enumerate(candidates, limit, classify)

    def _syntactic_shortcut(self, candidates, phi):
        for index, candidate in enumerate(candidates):
            if candidate.expr == phi:
                return [Cube([(index, True)])]
            if C.negate(candidate.expr) == phi or candidate.expr == C.negate(phi):
                return [Cube([(index, False)])]
        return None

    # -- boolean program expressions ---------------------------------------------

    def cubes_to_bexpr(self, candidates, cubes):
        """The boolean program expression for a disjunction of cubes."""
        if not cubes:
            return B.BConst(False)
        disjuncts = []
        for cube in cubes:
            literals = []
            for index, polarity in cube:
                var = B.BVar(candidates[index].name)
                literals.append(var if polarity else B.BNot(var))
            disjuncts.append(B.bool_and(literals))
        return B.bool_or(disjuncts)

    def f_expr(self, candidates, phi):
        """``F_V(φ)`` as a boolean program expression."""
        phi = fold_constants(phi)
        if self.options.distribute_f and isinstance(phi, C.BinOp):
            # F distributes losslessly through && and lossily through ||.
            if phi.op == "&&":
                return B.bool_and(
                    [self.f_expr(candidates, phi.left), self.f_expr(candidates, phi.right)]
                )
            if phi.op == "||":
                return B.bool_or(
                    [self.f_expr(candidates, phi.left), self.f_expr(candidates, phi.right)]
                )
        cubes = self.implicant_cubes(candidates, phi)
        return self.cubes_to_bexpr(candidates, cubes)

    def g_expr(self, candidates, phi):
        """``G_V(φ) = ¬F_V(¬φ)`` as a boolean program expression."""
        return B.bool_not(self.f_expr(candidates, C.negate(phi)))

    # -- the enforce invariant (Section 5.1) ------------------------------------------

    def inconsistent_cubes(self, candidates, max_length):
        """Minimal cubes whose concretizations are unsatisfiable — the
        ``F_V(false)`` computation, done directly (the constant-folding
        shortcuts of :meth:`implicant_cubes` would collapse it)."""
        session = self._cube_session(candidates, C.IntLit(0))

        def classify(cube):
            result, record = self._cube_query(session, cube, "inconsistent")
            if result:
                return _KEEP, record
            return None, None

        return self._enumerate(candidates, max_length, classify)

    def enforce_expr(self, candidates):
        """``Ω = ¬F_V(false)``: rules out predicate valuations whose
        concretizations are unsatisfiable (e.g. x==1 and x==2 both true)."""
        cubes = self.inconsistent_cubes(
            candidates, self.options.enforce_cube_length
        )
        if not cubes:
            return None
        return B.bool_not(self.cubes_to_bexpr(candidates, cubes))
