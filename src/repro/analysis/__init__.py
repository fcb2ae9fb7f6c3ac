"""The static-analysis subsystem.

Facts are computed once per abstraction run and consumed by several
clients (see ``docs/ANALYSIS.md``):

- :mod:`repro.analysis.framework` — the dataflow solver and call graph;
- :mod:`repro.analysis.modref` — canonical location keysets, the
  memoized :class:`TouchOracle`, and mod/ref summaries;
- :mod:`repro.analysis.intervals` — interval abstract interpretation
  (Newton-stall candidate predicates);
- :mod:`repro.analysis.reuse` — cross-iteration statement-abstraction
  cache keyed on the mod/ref closures.

:class:`ProgramAnalyses` bundles the per-run state; every C2bp run
builds one.  :class:`AnalysisStats` is shared across
a whole engine context (via :func:`ensure_analysis_stats`) so the CEGAR
loop can report per-iteration deltas.
"""

from repro.cfront.cfg import build_program_cfgs
from repro.cfront.pretty import pretty_stmt

from repro.analysis.framework import CallGraph, DataflowAnalysis
from repro.analysis.modref import (
    WILDCARD,
    ModRefSummaries,
    TouchOracle,
    location_keyset,
)
from repro.analysis.intervals import interval_candidate_predicates
from repro.analysis.reuse import AbstractionReuse

__all__ = [
    "AbstractionReuse",
    "AnalysisStats",
    "CallGraph",
    "DataflowAnalysis",
    "ModRefSummaries",
    "ProgramAnalyses",
    "TouchOracle",
    "WILDCARD",
    "ensure_analysis_stats",
    "interval_candidate_predicates",
    "location_keyset",
]


class AnalysisStats:
    """Counters for every pass, registered as the ``analysis`` stats
    section; one instance is shared across a CEGAR run's iterations so
    the loop can take per-iteration deltas."""

    FIELDS = (
        "modref_summary_hits",
        "modref_touch_queries",
        "c2bp_stmts_reused",
        "c2bp_stmts_retranslated",
        "interval_candidates_exported",
    )

    __slots__ = FIELDS

    def __init__(self):
        for name in self.FIELDS:
            setattr(self, name, 0)

    def snapshot(self):
        return {name: getattr(self, name) for name in self.FIELDS}


def ensure_analysis_stats(context):
    """The engine context's :class:`AnalysisStats`, created and
    registered on first use."""
    stats = getattr(context, "analysis_stats", None)
    if stats is None:
        stats = AnalysisStats()
        context.analysis_stats = stats
        context.stats.register("analysis", stats)
    return stats


class ProgramAnalyses:
    """Per-abstraction-run static facts, shared by every consumer.

    Built once per C2bp run (facts depend on the predicate set, which
    grows across CEGAR iterations).  Everything is computed lazily: a
    run that never asks for mod/ref summaries never builds them.
    """

    def __init__(self, program, predicates, signatures, options, points_to, stats):
        self.program = program
        self.predicates = predicates
        self.signatures = signatures
        self.options = options
        self.points_to = points_to
        self.stats = stats
        self._cfgs = None
        self._modref = None
        self._touchers = {}
        self._keysets = {}  # predicate name -> location keyset

    # -- shared building blocks -------------------------------------------------

    def may_alias(self, func_name):
        if not self.options.use_alias_analysis:
            return None
        return lambda a, b: self.points_to.may_alias(a, b, func_name)

    def toucher(self, func_name):
        oracle = self._touchers.get(func_name)
        if oracle is None:
            oracle = TouchOracle(self.may_alias(func_name), stats=self.stats)
            self._touchers[func_name] = oracle
        return oracle

    def predicate_keyset(self, predicate):
        keyset = self._keysets.get(predicate.name)
        if keyset is None:
            keyset = location_keyset(predicate.expr)
            self._keysets[predicate.name] = keyset
        return keyset

    @property
    def cfgs(self):
        if self._cfgs is None:
            self._cfgs = build_program_cfgs(self.program)
        return self._cfgs

    @property
    def modref(self):
        if self._modref is None:
            self._modref = ModRefSummaries(self.program, points_to=self.points_to)
        return self._modref

    # -- reuse keys -------------------------------------------------------------

    def relevant_names(self, func_name, stmt):
        """The scope predicates inside the statement's mod/ref closure,
        or None when the statement's effects are not precisely nameable
        (calls, wildcard writes) and every predicate is relevant."""
        summary = self.modref.statement_summary(stmt, func_name)
        if summary.has_call or WILDCARD in summary.mod or WILDCARD in summary.ref:
            return None
        touched = dict(summary.mod)
        touched.update(summary.ref)
        toucher = self.toucher(func_name)
        scope = self.predicates.in_scope(func_name)
        chosen = set()
        remaining = list(scope)
        changed = True
        while changed:
            changed = False
            still = []
            for predicate in remaining:
                keyset = self.predicate_keyset(predicate)
                if toucher.touch(keyset, touched):
                    chosen.add(predicate.name)
                    touched.update(keyset)
                    changed = True
                else:
                    still.append(predicate)
            remaining = still
        return chosen

    def _signature_fingerprint(self, func_name):
        signature = self.signatures.get(func_name)
        if signature is None:
            return (func_name, None)
        return (
            func_name,
            tuple(p.name for p in signature.formal_predicates),
            tuple(p.name for p in signature.return_predicates),
        )

    def statement_key(self, func, index, stmt):
        """A cache key covering everything the statement's translation
        reads; equal keys guarantee byte-identical translated parts."""
        scope = self.predicates.in_scope(func.name)
        relevant = self.relevant_names(func.name, stmt)
        if relevant is None:
            pred_part = tuple(p.name for p in scope)
            sig_part = tuple(
                self._signature_fingerprint(name)
                for name in sorted(self.signatures)
            )
        else:
            pred_part = tuple(p.name for p in scope if p.name in relevant)
            sig_part = (self._signature_fingerprint(func.name),)
        return (
            func.name,
            index,
            stmt.sid,
            pretty_stmt(stmt),
            tuple(stmt.labels),
            pred_part,
            sig_part,
        )

    def enforce_key(self, func_name):
        return (
            func_name,
            tuple(p.name for p in self.predicates.in_scope(func_name)),
        )

    # -- Newton-stall fallback --------------------------------------------------

    def newton_fallback_predicates(self, func_name):
        """Loop-head interval invariants of ``func_name`` as candidate
        predicate expressions."""
        cfg = self.cfgs.get(func_name)
        if cfg is None:
            return []
        candidates = interval_candidate_predicates(
            cfg, may_alias=self.may_alias(func_name)
        )
        if candidates and self.stats is not None:
            self.stats.interval_candidates_exported += len(candidates)
        return candidates

