"""AllSAT model-enumeration strengthening support (CAV'06 style).

The cube-enumeration strengthening asks the prover one implication per
candidate cube: "does ``E(c)`` imply φ?" — i.e. "is ``E(c) ∧ ¬φ``
unsatisfiable?".  Most answers are *no*: the typical strengthening call
keeps a handful of implicant cubes and discharges hundreds of SAT-side
queries, each of which pays a full DPLL(T) loop (the theory checks
dominate the profile).

A :class:`ModelCatalog` inverts the work.  One incremental SAT loop over
the session's encode-once base (``¬φ ∧ axioms``, the candidate literals
encoded but unasserted) enumerates *theory-validated models*, projects
each onto the candidate predicates, blocks the projection, and repeats —
the strongest-boolean-consequence enumeration of SNIPPETS' efmc
``strongest_consequence``, run on our own solver.  Every stored
projection is a concrete witness: a cube whose literals the projection
satisfies has a theory-consistent model of ``E(cube) ∧ ¬φ``, so the cube
does **not** imply φ.  The catalog therefore answers the (dominant)
SAT-side cube queries with a tuple comparison — no solver call, no
theory check — while every UNSAT-side verdict still goes through the
session's exact ``decide`` (with its assumption cores), which keeps the
kept/pruned cube lists, and hence the printed boolean program,
byte-identical to answering every cube with a one-shot query.

Soundness of the shortcut rests on two properties the sweep enforces:

- models are validated by the theory checker over the *full* relevance
  scope (base atoms plus every candidate literal's atoms), a superset of
  any individual cube query's scope;
- a model is stored only when the checker's verdict is *exact* (no
  disequality-split or propagation-round cap was hit), so the verdict is
  inherited by every sub-scope a cube query would check.

When the sweep is capped (:data:`MAX_SWEEP_MODELS`) the catalog is
merely incomplete: uncovered cubes fall back to ``decide`` and nothing
is lost but the shortcut.

The sweep is also the incremental theory engine's best customer: the
owning cube session keeps one persistent
:class:`~repro.prover.theory.IncrementalTheory` per strengthening call,
and consecutive enumerated models differ by a handful of atoms, so each
model validation retargets the engine's push/pop literal stack by a
small delta instead of re-saturating EUF+Fourier-Motzkin from scratch.
:meth:`ModelCatalog.ensure_swept` snapshots the session's theory
counters around the sweep and reports how many delta queries the sweep
itself consumed (``allsat_sweep_theory_deltas``).
"""

#: Cap on stored projections per strengthening call.  2^k in the worst
#: case, but cone-of-influence pruning keeps k small; past the cap the
#: sweep stops and uncovered cubes fall back to exact decides.
MAX_SWEEP_MODELS = 256


class ModelCatalog:
    """Projected-model witnesses for one strengthening call's goal.

    Attach one to a :class:`repro.prover.interface.CubeProverSession`;
    the session consults :meth:`covers` before running an exact decide
    and reports the sweep/hit accounting through :meth:`counters`.
    """

    def __init__(self, max_models=MAX_SWEEP_MODELS):
        self.max_models = max_models
        self._projections = None  # None until the lazy sweep runs
        # Counters mirrored into ProverStats by the owning session.
        self.sweeps = 0
        self.models = 0
        self.hits = 0
        self.sweep_solves = 0
        self.sweep_theory_deltas = 0

    def ensure_swept(self, session):
        """Run the model sweep once, lazily — a fully cached
        strengthening call never pays for it.  The session's persistent
        theory engine absorbs the sweep's near-identical
        model validations as stack deltas; the counter snapshot below
        attributes those delta queries to the sweep."""
        if self._projections is not None:
            return
        self.sweeps += 1
        before = session.counters().get("theory_delta_queries", 0)
        projections, solves = session.enumerate_models(self.max_models)
        self._projections = projections
        self.models += len(projections)
        self.sweep_solves += solves
        self.sweep_theory_deltas += (
            session.counters().get("theory_delta_queries", 0) - before
        )

    def covers(self, cube):
        """Is some stored model a witness that ``cube`` does not imply
        the goal?  (The cube's literals all hold in the projection.)"""
        for projection in self._projections:
            if all(projection[index] == polarity for index, polarity in cube):
                self.hits += 1
                return True
        return False

    def counters(self):
        return {
            "allsat_sweeps": self.sweeps,
            "allsat_models": self.models,
            "allsat_model_hits": self.hits,
            "allsat_sweep_solves": self.sweep_solves,
            "allsat_sweep_theory_deltas": self.sweep_theory_deltas,
        }
