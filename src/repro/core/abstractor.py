"""The C2bp translation: from a C program and predicates to a boolean
program (Sections 4.3-4.5, 5.1, 5.2).

The tool operates in two passes.  Pass one computes every procedure's
signature (:mod:`repro.core.signatures`).  Pass two translates each
procedure in isolation, statement by statement:

- assignments become parallel assignments of
  ``choose(F(WP(s, φ)), F(WP(s, ¬φ)))`` to the affected boolean variables;
- conditionals become nondeterministic branches whose arms open with
  ``assume(G(guard))`` / ``assume(G(¬guard))``;
- gotos and labels are copied verbatim;
- calls follow :mod:`repro.core.calls`;
- ``assert(e)`` becomes ``assert(¬G(¬e))`` — it fails in the abstraction
  whenever some concrete state allowed by the current predicates could
  fail, which is the sound (may-overreport) direction SLAM refines away;
- each procedure carries the ``enforce`` data invariant ``¬F(false)``.

Statement abstraction is embarrassingly parallel: each top-level
statement's translation depends only on the immutable inputs (program,
predicates, signatures, points-to facts, options) — the only
cross-statement state is the call-site temporary counter (renamed
deterministically afterwards) and the prover cache (a pure accelerator).
With ``options.jobs > 1`` the statements of all procedures plus the
per-procedure ``enforce`` computations become tasks for the engine
context's persistent :class:`repro.core.pool.StatementPool`: workers are
forked once and re-targeted per run with a configure message, so CEGAR
iterations reuse warm worker processes (and their prover caches) instead
of paying a fork per abstraction.  The cross-iteration statement cache
(:mod:`repro.analysis.reuse`) is consulted in the parent before any
task is built, so only the statements it misses reach the workers, and
their translations are recorded on the way back.  The translated
pieces, prover statistics, learned cache entries, analysis counters,
process-wide SAT/CNF construction counters, and events are merged back
in task order, so the output program, the stats totals, and the event
stream are identical to a serial run.
"""

from repro.cfront import cast as C
from repro.cfront.pretty import pretty_stmt
from repro.boolprog import ast as B
from repro.pointers import PointsToAnalysis
from repro.analysis import ProgramAnalyses, ensure_analysis_stats
from repro.analysis.modref import location_keyset
from repro.core.calls import abstract_call
from repro.core.cubes import CubeSearch
from repro.core.signatures import compute_signatures
from repro.core.stats import C2bpStats
from repro.engine import EngineContext
from repro.engine.stats import Timer
from repro.prover import cnf as cnf_module
from repro.prover import sat as sat_module


class C2bpError(Exception):
    pass


def _has_constant_deref(expr):
    """Whether a WP result dereferences a constant address (e.g. ``0->val``
    after substituting NULL into a pointer predicate)."""
    from repro.cfront.exprutils import walk

    for node in walk(expr):
        if isinstance(node, C.Deref) and isinstance(node.pointer, C.IntLit):
            return True
        if isinstance(node, C.Index) and isinstance(node.base, C.IntLit):
            return True
    return False


class C2bp:
    """One abstraction run: ``BP(P, E)`` plus statistics."""

    def __init__(
        self,
        program,
        predicates,
        options=None,
        prover=None,
        points_to=None,
        context=None,
        reuse=None,
    ):
        self.context = EngineContext.ensure(context, options=options, prover=prover)
        # Whether this run created its own context (the legacy keyword
        # shim): then nobody else can reuse (or close) the worker pool, so
        # run() tears it down itself after a parallel run.
        self._private_context = context is None
        self.program = program
        self.predicates = predicates
        self.options = self.context.options
        self.prover = self.context.prover
        self.points_to = points_to or PointsToAnalysis(program)
        self.signatures = compute_signatures(program, predicates)
        self.analysis = ProgramAnalyses(
            program,
            predicates,
            self.signatures,
            self.options,
            self.points_to,
            ensure_analysis_stats(self.context),
        )
        # Cross-iteration statement-abstraction cache (CEGAR hands one
        # in); the serial and the pool path both consult it.
        self.reuse = reuse
        if self.reuse is None and getattr(self.context, "store", None) is not None:
            # A persistent store is configured: even a one-shot run reads
            # and populates the cross-run statement cache (the warm-run
            # fast path).  Imported lazily — repro.serve sits above core.
            from repro.serve import PersistentAbstractionReuse

            self.reuse = PersistentAbstractionReuse(
                self.context.store,
                self.options,
                stats=ensure_analysis_stats(self.context),
            )
        self.search = CubeSearch(
            self.prover, self.options, events=self.context.events
        )
        self.stats = C2bpStats()
        self.context.stats.register("c2bp", self.stats)
        self._keysets = {}  # predicate name -> canonical location keyset
        # (procedure name, temp name) -> meaning expression E(t) for the
        # call-site temporaries of Section 4.5.3 (used by trace replay).
        self.temp_meanings = {}

    def predicate_keyset(self, predicate):
        """The canonical location keyset of a cone candidate, computed
        once per distinct expression.  Keyed by expression identity, not
        candidate name: call-site temporaries reuse names like ``__r0``
        across procedures while standing for different meanings."""
        entry = self._keysets.get(id(predicate.expr))
        if entry is None:
            entry = (predicate.expr, location_keyset(predicate.expr))
            self._keysets[id(predicate.expr)] = entry
        return entry[1]

    def run(self):
        """Build and return the boolean program ``BP(P, E)``."""
        jobs = getattr(self.options, "jobs", 1) or 1
        if jobs > 1:
            pool = self.context.worker_pool(jobs)
            if pool is not None:  # no fork on this platform: run serially
                try:
                    return self._run_parallel(pool)
                finally:
                    if self._private_context:
                        self.context.close()
        if self.reuse is not None:
            return self._run_with_reuse()
        started_calls = self.prover.stats.calls
        started_queries = self.prover.stats.queries
        started_hits = self.prover.stats.cache_hits
        with self.context.phase("c2bp"), Timer(self.stats):
            boolean_program = B.BProgram()
            boolean_program.globals = [p.name for p in self.predicates.globals]
            for func in self.program.defined_functions():
                before = self.prover.stats.calls
                procedure = _ProcedureAbstractor(self, func).abstract()
                boolean_program.add_procedure(procedure)
                delta = self.prover.stats.calls - before
                self.stats.per_procedure[func.name] = delta
                self.context.events.emit(
                    "c2bp-procedure", procedure=func.name, prover_calls=delta
                )
            self.stats.program_statements = self.program.statement_count()
            self.stats.predicate_count = len(self.predicates)
            self.stats.prover_calls = self.prover.stats.calls - started_calls
            self.stats.prover_queries = self.prover.stats.queries - started_queries
            self.stats.prover_cache_hits = (
                self.prover.stats.cache_hits - started_hits
            )
        self._maybe_validate(boolean_program)
        return boolean_program

    def _run_with_reuse(self):
        """The serial CEGAR path with a cross-iteration statement cache.

        Assembly mirrors ``_run_parallel``: statements are translated
        (or fetched) with per-statement temp prefixes, then merged with
        the same first-use renumbering — so the output is byte-identical
        to a fresh serial run, while statements whose cache key is
        unchanged since the previous iteration cost zero prover calls.
        """
        started_calls = self.prover.stats.calls
        started_queries = self.prover.stats.queries
        started_hits = self.prover.stats.cache_hits
        with self.context.phase("c2bp"), Timer(self.stats):
            boolean_program = B.BProgram()
            boolean_program.globals = [p.name for p in self.predicates.globals]
            for func in self.program.defined_functions():
                before = self.prover.stats.calls
                scope = self.predicates.in_scope(func.name)
                enforce = None
                if self.options.compute_enforce and scope:
                    key = self.analysis.enforce_key(func.name)
                    hit, cached = self.reuse.fetch_enforce(key)
                    if hit:
                        enforce = cached
                    else:
                        enforce = self.search.enforce_expr(scope)
                        self.reuse.store_enforce(key, enforce)
                parts = []
                for index, stmt in enumerate(func.body):
                    stmt_key = self.analysis.statement_key(func, index, stmt)
                    payload = self.reuse.fetch(stmt_key)
                    if payload is None:
                        payload = self._translate_statement(func, index, stmt)
                        self.reuse.store(
                            stmt_key,
                            payload["stmts"],
                            payload["temps"],
                            payload["temp_meanings"],
                            payload["c2bp"],
                        )
                    else:
                        for name, value in payload["c2bp"].items():
                            setattr(
                                self.stats, name, getattr(self.stats, name) + value
                            )
                    parts.append(payload)
                body = []
                renamed_temps = []
                mapping = {}
                for part in parts:
                    for site_name in part["temps"]:
                        final_name = "__r%d" % len(renamed_temps)
                        mapping[site_name] = final_name
                        renamed_temps.append(final_name)
                    body.extend(part["stmts"])
                    for site_name, meaning in part["temp_meanings"]:
                        self.temp_meanings[(func.name, mapping[site_name])] = meaning
                if mapping:
                    B.rename_stmt_variables(body, mapping)
                signature = self.signatures[func.name]
                local_predicates = self.predicates.for_procedure(func.name)
                formal_names = [p.name for p in signature.formal_predicates]
                local_names = [
                    p.name
                    for p in local_predicates
                    if p not in signature.formal_predicates
                ] + renamed_temps
                boolean_program.add_procedure(
                    B.BProcedure(
                        func.name,
                        formal_names,
                        local_names,
                        len(signature.return_predicates),
                        body,
                        enforce,
                    )
                )
                delta = self.prover.stats.calls - before
                self.stats.per_procedure[func.name] = delta
                self.context.events.emit(
                    "c2bp-procedure", procedure=func.name, prover_calls=delta
                )
            self.stats.program_statements = self.program.statement_count()
            self.stats.predicate_count = len(self.predicates)
            self.stats.prover_calls = self.prover.stats.calls - started_calls
            self.stats.prover_queries = self.prover.stats.queries - started_queries
            self.stats.prover_cache_hits = (
                self.prover.stats.cache_hits - started_hits
            )
        self._maybe_validate(boolean_program)
        return boolean_program

    _COUNTER_FIELDS = (
        "assignments_abstracted",
        "assignments_skipped_unchanged",
        "calls_abstracted",
        "conditionals_abstracted",
    )

    def _translate_statement(self, func, index, stmt):
        """Translate one top-level statement in its own temp namespace
        (``__rc<index>_``) and package it for the reuse cache."""
        counters_before = {
            name: getattr(self.stats, name) for name in self._COUNTER_FIELDS
        }
        meanings_before = set(self.temp_meanings)
        proc_abs = _ProcedureAbstractor(self, func, temp_prefix="__rc%d_" % index)
        translated = proc_abs._abstract_stmt(stmt)
        if stmt.labels:
            if not translated:
                translated = [B.BSkip()]
            translated[0].labels = list(stmt.labels) + list(translated[0].labels)
        temp_meanings = []
        for key in list(self.temp_meanings):
            if key not in meanings_before:
                temp_meanings.append((key[1], self.temp_meanings.pop(key)))
        return {
            "stmts": translated,
            "temps": list(proc_abs._extra_locals),
            "temp_meanings": temp_meanings,
            "c2bp": {
                name: getattr(self.stats, name) - counters_before[name]
                for name in self._COUNTER_FIELDS
            },
        }

    def _maybe_validate(self, boolean_program):
        """The ``--validate-bp`` debug gate: reject a malformed translation
        here, where the C2bp inputs are still on hand, rather than letting
        Bebop trip over it later."""
        if getattr(self.options, "validate_output", False):
            from repro.boolprog.validate import validate_bool_program

            validate_bool_program(boolean_program)

    def _run_parallel(self, pool):
        """The ``--jobs N`` path: fan top-level statements and per-procedure
        enforce computations out to the context's persistent worker pool,
        then merge the pieces and every accounting delta."""
        started_calls = self.prover.stats.calls
        started_queries = self.prover.stats.queries
        started_hits = self.prover.stats.cache_hits
        with self.context.phase("c2bp"), Timer(self.stats):
            boolean_program = B.BProgram()
            boolean_program.globals = [p.name for p in self.predicates.globals]
            funcs = list(self.program.defined_functions())
            # Reuse lookups and records happen here, in the parent; only
            # the misses go to the pool.
            precomputed = {}  # func name -> enforce invariant known up front
            for func in funcs:
                enforce = None
                if self.options.compute_enforce and self.predicates.in_scope(
                    func.name
                ):
                    hit = False
                    if self.reuse is not None:
                        enforce_key = self.analysis.enforce_key(func.name)
                        hit, enforce = self.reuse.fetch_enforce(enforce_key)
                    if not hit:
                        continue  # an enforce task computes it
                precomputed[func.name] = enforce
            tasks = []
            reused = {}  # (func name, index) -> cached statement payload
            stmt_keys = {}  # (func name, index) -> reuse key of a miss
            for func in funcs:
                for index, stmt in enumerate(func.body):
                    if self.reuse is not None:
                        key = self.analysis.statement_key(func, index, stmt)
                        payload = self.reuse.fetch(key)
                        if payload is not None:
                            reused[(func.name, index)] = payload
                            continue
                        stmt_keys[(func.name, index)] = key
                    tasks.append(("stmt", func.name, index))
                if func.name not in precomputed:
                    tasks.append(("enforce", func.name, -1))
            results = []
            if tasks:
                pool.configure(
                    {
                        "program": self.program,
                        "predicates": self.predicates,
                        "options": self.options.copy(jobs=1),
                        # Only what the workers have not seen yet: the
                        # pool remembers how much of the (append-only)
                        # parent cache previous configures shipped.
                        "cache": self.prover.cache.export_since(
                            pool.shipped_cache_watermark
                        ),
                    }
                )
                pool.shipped_cache_watermark = len(self.prover.cache)
                results = pool.run(tasks)
            merged = {
                func.name: {"parts": {}, "enforce": None, "calls": 0}
                for func in funcs
            }
            for func_name, enforce in precomputed.items():
                merged[func_name]["enforce"] = enforce
            for (func_name, index), payload in reused.items():
                for name, value in payload["c2bp"].items():
                    setattr(self.stats, name, getattr(self.stats, name) + value)
                merged[func_name]["parts"][index] = payload
            for task, result in zip(tasks, results):
                kind, func_name, index = task
                self.prover.stats.merge(result["prover"])
                self.prover.cache.absorb(result["cache"])
                # Fold the workers' read-only store accounting into the
                # parent's store (writes already happen here via absorb).
                store_delta = result.get("store")
                if store_delta and getattr(self.context, "store", None) is not None:
                    self.context.store.merge_counters(store_delta)
                # Fold the workers' SAT/CNF construction counters into the
                # process-wide tallies, so benchmark rows measured under
                # --jobs report real work instead of a blackout.
                construction = result.get("construction")
                if construction:
                    for key, value in construction["sat"].items():
                        sat_module.COUNTERS[key] += value
                    for key, value in construction["cnf"].items():
                        cnf_module.COUNTERS[key] += value
                for name, value in result["c2bp"].items():
                    setattr(self.stats, name, getattr(self.stats, name) + value)
                for name, value in result["analysis"].items():
                    setattr(
                        self.analysis.stats,
                        name,
                        getattr(self.analysis.stats, name) + value,
                    )
                for event in result["events"]:
                    data = {
                        key: value
                        for key, value in event.items()
                        if key not in ("kind", "t")
                    }
                    self.context.events.emit(event["kind"], **data)
                merged[func_name]["calls"] += result["prover"]["calls"]
                if kind == "stmt":
                    key = stmt_keys.get((func_name, index))
                    if key is not None:
                        self.reuse.store(
                            key,
                            result["stmts"],
                            result["temps"],
                            result["temp_meanings"],
                            result["c2bp"],
                        )
                    merged[func_name]["parts"][index] = result
                else:
                    merged[func_name]["enforce"] = result["enforce"]
                    if self.reuse is not None:
                        self.reuse.store_enforce(
                            self.analysis.enforce_key(func_name), result["enforce"]
                        )
            for func in funcs:
                entry = merged[func.name]
                body = []
                renamed_temps = []
                mapping = {}
                for index in sorted(entry["parts"]):
                    part = entry["parts"][index]
                    # Temp names are statement-namespaced (__rw<stmt>_<k>
                    # from workers, __rc<stmt>_<k> from the reuse cache);
                    # renumber to the serial __r<N> scheme in first-use order.
                    for site_name in part["temps"]:
                        final_name = "__r%d" % len(renamed_temps)
                        mapping[site_name] = final_name
                        renamed_temps.append(final_name)
                    body.extend(part["stmts"])
                    for site_name, meaning in part["temp_meanings"]:
                        self.temp_meanings[(func.name, mapping[site_name])] = (
                            meaning
                        )
                if mapping:
                    B.rename_stmt_variables(body, mapping)
                signature = self.signatures[func.name]
                local_predicates = self.predicates.for_procedure(func.name)
                formal_names = [p.name for p in signature.formal_predicates]
                local_names = [
                    p.name
                    for p in local_predicates
                    if p not in signature.formal_predicates
                ] + renamed_temps
                boolean_program.add_procedure(
                    B.BProcedure(
                        func.name,
                        formal_names,
                        local_names,
                        len(signature.return_predicates),
                        body,
                        entry["enforce"],
                    )
                )
                self.stats.per_procedure[func.name] = entry["calls"]
                self.context.events.emit(
                    "c2bp-procedure",
                    procedure=func.name,
                    prover_calls=entry["calls"],
                )
            self.stats.program_statements = self.program.statement_count()
            self.stats.predicate_count = len(self.predicates)
            self.stats.prover_calls = self.prover.stats.calls - started_calls
            self.stats.prover_queries = self.prover.stats.queries - started_queries
            self.stats.prover_cache_hits = (
                self.prover.stats.cache_hits - started_hits
            )
        self._maybe_validate(boolean_program)
        return boolean_program

    def may_alias(self, func_name):
        """A two-location may-alias oracle bound to one procedure's scope,
        or None (assume-everything) when alias pruning is disabled."""
        if not self.options.use_alias_analysis:
            return None
        return lambda a, b: self.points_to.may_alias(a, b, func_name)


class _ProcedureAbstractor:
    """Pass two for a single procedure."""

    def __init__(self, parent, func, temp_prefix="__r"):
        self.parent = parent
        self.func = func
        self.signature = parent.signatures[func.name]
        # Scope = E_G followed by E_R (order is stable for output).
        self.scope_predicates = parent.predicates.in_scope(func.name)
        self.local_predicates = parent.predicates.for_procedure(func.name)
        self._may_alias = parent.may_alias(func.name)
        self._toucher = parent.analysis.toucher(func.name)
        self._temp_counter = 0
        self._temp_prefix = temp_prefix
        self._extra_locals = []

    # -- conveniences shared with the call translator --------------------------

    def fresh_temp_name(self):
        name = "%s%d" % (self._temp_prefix, self._temp_counter)
        self._temp_counter += 1
        self._extra_locals.append(name)
        return name

    def f_expr(self, candidates, phi):
        return self.parent.search.f_expr(self._cone(candidates, phi), phi)

    def g_expr(self, phi):
        candidates = self._cone(self.scope_predicates, C.negate(phi))
        return self.parent.search.g_expr(candidates, phi)

    def make_choose(self, pos, neg):
        """``choose(pos, neg)`` with the Section 4.3 constant folds."""
        if isinstance(pos, B.BConst) and pos.value:
            return B.BConst(True)
        if isinstance(neg, B.BConst) and neg.value:
            # neg always holds, so the result is exactly pos (which, when
            # constantly false, folds to the constant 0).
            return pos
        if isinstance(pos, B.BConst) and isinstance(neg, B.BConst):
            return B.BUnknown()  # choose(false, false)
        if neg == B.bool_not(pos):
            # choose(e, !e) is exactly e — this is how copying assignments
            # like prev = curr come out as {prev==NULL} = {curr==NULL}.
            return pos
        return B.BChoose(pos, neg)

    def make_choose_for(self, phi):
        """``choose(F(φ), F(¬φ))`` over the full scope."""
        pos = self.f_expr(self.scope_predicates, phi)
        neg = self.f_expr(self.scope_predicates, C.negate(phi))
        return self.make_choose(pos, neg)

    # -- cone of influence (Section 5.2, optimization three) ----------------------

    def _cone(self, candidates, phi):
        if not self.parent.options.cone_of_influence:
            return list(candidates)
        # Canonical-text keysets plus the memoized TouchOracle replace the
        # old pairwise location loop: text equality decides the common
        # case without any alias query, and each distinct location pair is
        # asked of the points-to oracle at most once per procedure.
        relevant = dict(location_keyset(phi))
        chosen = set()
        remaining = list(candidates)
        changed = True
        while changed:
            changed = False
            still_remaining = []
            for candidate in remaining:
                keyset = self.parent.predicate_keyset(candidate)
                if self._toucher.touch(keyset, relevant):
                    chosen.add(id(candidate))
                    relevant.update(keyset)
                    changed = True
                else:
                    still_remaining.append(candidate)
            remaining = still_remaining
        # Preserve the original candidate order for deterministic output.
        return [c for c in candidates if id(c) in chosen]

    # -- statement translation ---------------------------------------------------

    def _compute_enforce(self):
        if self.parent.options.compute_enforce and self.scope_predicates:
            return self.parent.search.enforce_expr(self.scope_predicates)
        return None

    def abstract(self):
        body = self._abstract_body(self.func.body)
        enforce = self._compute_enforce()
        formal_names = [p.name for p in self.signature.formal_predicates]
        local_names = [
            p.name
            for p in self.local_predicates
            if p not in self.signature.formal_predicates
        ] + self._extra_locals
        return B.BProcedure(
            self.func.name,
            formal_names,
            local_names,
            len(self.signature.return_predicates),
            body,
            enforce,
        )

    def _abstract_body(self, stmts):
        out = []
        for stmt in stmts:
            translated = self._abstract_stmt(stmt)
            if stmt.labels:
                if not translated:
                    translated = [B.BSkip()]
                translated[0].labels = list(stmt.labels) + list(translated[0].labels)
            out.extend(translated)
        return out

    def _abstract_stmt(self, stmt):
        comment = pretty_stmt(stmt).strip().split("\n")[0]
        if isinstance(stmt, C.Skip):
            skip = B.BSkip()
            skip.source_sid = stmt.sid
            return [skip]
        if isinstance(stmt, C.Goto):
            goto = B.BGoto(stmt.label)
            goto.source_sid = stmt.sid
            return [goto]
        if isinstance(stmt, C.Assign):
            return self._abstract_assign(stmt, comment)
        if isinstance(stmt, C.CallStmt):
            self.parent.stats.calls_abstracted += 1
            return abstract_call(self, stmt)
        if isinstance(stmt, C.If):
            return self._abstract_if(stmt, comment)
        if isinstance(stmt, C.While):
            return self._abstract_while(stmt, comment)
        if isinstance(stmt, C.Assume):
            assume = B.BAssume(self.g_expr(stmt.cond))
            assume.source_sid = stmt.sid
            assume.comment = comment
            return [assume]
        if isinstance(stmt, C.Assert):
            check = B.BAssert(B.bool_not(self.g_expr(C.negate(stmt.cond))))
            check.source_sid = stmt.sid
            check.comment = comment
            return [check]
        if isinstance(stmt, C.Return):
            values = [
                B.BVar(p.name) for p in self.signature.return_predicates
            ]
            ret = B.BReturn(values)
            ret.source_sid = stmt.sid
            ret.comment = comment
            return [ret]
        raise C2bpError(
            "cannot abstract statement %r (not in intermediate form)"
            % type(stmt).__name__
        )

    def _abstract_assign(self, stmt, comment):
        from repro.core.wp import weakest_precondition, wp_unchanged

        self.parent.stats.assignments_abstracted += 1
        options = self.parent.options
        targets, values = [], []
        for predicate in self.scope_predicates:
            if options.skip_unchanged and wp_unchanged(
                stmt.lhs, stmt.rhs, predicate.expr, self._may_alias
            ):
                self.parent.stats.assignments_skipped_unchanged += 1
                continue
            wp_pos = weakest_precondition(
                stmt.lhs, stmt.rhs, predicate.expr, self._may_alias
            )
            wp_neg = weakest_precondition(
                stmt.lhs, stmt.rhs, C.negate(predicate.expr), self._may_alias
            )
            if options.invalidate_constant_derefs and (
                _has_constant_deref(wp_pos) or _has_constant_deref(wp_neg)
            ):
                # The substitution produced a dereference of a constant
                # (e.g. WP(prev = NULL, prev->val > v) mentions 0->val):
                # the predicate's value is undefined after the statement,
                # so it is invalidated (Section 2.1's unknown() case).
                targets.append(predicate.name)
                values.append(B.BUnknown())
                continue
            pos = self.f_expr(self.scope_predicates, wp_pos)
            neg = self.f_expr(self.scope_predicates, wp_neg)
            targets.append(predicate.name)
            values.append(self.make_choose(pos, neg))
        if not targets:
            skip = B.BSkip()
            skip.source_sid = stmt.sid
            skip.comment = comment
            return [skip]
        assign = B.BAssign(targets, values)
        assign.source_sid = stmt.sid
        assign.comment = comment
        return [assign]

    def _guard_assume(self, cond, stmt, comment):
        """``assume(G(cond))`` — omitted entirely when G gives no
        information (the paper's figures leave those branches bare)."""
        guard = self.g_expr(cond)
        if isinstance(guard, B.BConst) and guard.value:
            return []
        assume = B.BAssume(guard)
        assume.source_sid = stmt.sid
        assume.comment = comment
        return [assume]

    def _abstract_if(self, stmt, comment):
        self.parent.stats.conditionals_abstracted += 1
        then_body = self._guard_assume(
            stmt.cond, stmt, "then: " + comment
        ) + self._abstract_body(stmt.then_body)
        else_body = self._guard_assume(
            C.negate(stmt.cond), stmt, "else: " + comment
        ) + self._abstract_body(stmt.else_body)
        branch = B.BIf(B.BNondet(), then_body, else_body)
        branch.source_sid = stmt.sid
        branch.comment = comment
        return [branch]

    def _abstract_while(self, stmt, comment):
        self.parent.stats.conditionals_abstracted += 1
        body = self._guard_assume(
            stmt.cond, stmt, "loop entry: " + comment
        ) + self._abstract_body(stmt.body)
        loop = B.BWhile(B.BNondet(), body)
        loop.source_sid = stmt.sid
        loop.comment = comment
        return [loop] + self._guard_assume(
            C.negate(stmt.cond), stmt, "loop exit: " + comment
        )


def abstract_program(program, predicates, options=None, prover=None, context=None):
    """Convenience wrapper: run C2bp and return (boolean program, stats)."""
    tool = C2bp(program, predicates, options=options, prover=prover, context=context)
    boolean_program = tool.run()
    return boolean_program, tool.stats
