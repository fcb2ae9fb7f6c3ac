"""The layer ledger of the traced mode, timed from outside the program.

:class:`Tracer` replaces each layer's public entry points (listed in
:data:`LAYERS`) with timing wrappers while a traced pass runs, and puts
the originals back afterwards, so untraced passes run the program as
shipped.  The wrappers keep a span stack: a layer's *self* time is its
span's duration minus the time of the spans nested inside it, so the self
times of all layers plus the unattributed rest add up to the pass's wall
time.  Every counter comes from the program's own statistics (the
``snapshot()`` of each :class:`repro.engine.EngineContext` a task
creates, and each BDD manager's ``ite_calls``); only the call counts of
layers without a program counter (discharge, theory, SAT, pool) are
counted by the wrappers.

Pool workers are forked processes: the time they spend in a layer never
reaches this process, only the counters the pool merges back into the
parent's context do.
"""

import importlib
import sys
import time
from collections import Counter

#: (layer, module, attribute) for every wrapped entry point.  Two entry
#: points that share a layer name share its ledger line.
LAYERS = (
    ("cfront.parse", "repro.cfront", "parse_c_program"),
    ("cfront.parse", "repro.core.predicates", "parse_predicate_file"),
    ("pointers", "repro.pointers.steensgaard", "PointsToAnalysis.__init__"),
    ("slam.instrument", "repro.slam.instrument", "instrument_program"),
    ("slam.cegar", "repro.slam.cegar", "cegar_loop"),
    ("core.c2bp", "repro.core.abstractor", "C2bp.__init__"),
    ("core.c2bp", "repro.core.abstractor", "C2bp.run"),
    ("analysis.discharge", "repro.analysis.intervals", "IntervalDischarger.decide"),
    ("prover.theory", "repro.prover.theory", "IncrementalTheory.check"),
    ("prover.theory", "repro.prover.theory", "check_literals"),
    ("prover.encode", "repro.prover.cnf", "CnfEncoder.encode"),
    ("prover.sat", "repro.prover.sat", "SatSolver.solve"),
    ("bebop", "repro.bebop.checker", "Bebop.run"),
    ("newton", "repro.newton.discover", "analyze_path"),
    ("bmc", "repro.bmc.driver", "run_bmc"),
    ("fuzz.gen", "repro.fuzz.gen", "ProgramGenerator.generate"),
    ("fuzz.explicit", "repro.bebop.explicit", "ExplicitEngine.search"),
    ("fuzz.replay", "repro.core.replay", "TraceReplayer.run"),
    ("serve.store_put", "repro.serve.store", "PersistentStore.put"),
    ("serve.store_get", "repro.serve.store", "PersistentStore.get"),
    ("pool.create", "repro.core.pool", "StatementPool.__init__"),
    ("pool.wait", "repro.core.pool", "StatementPool.run"),
)

#: Objects whose instances a task's counters are read from.
_COLLECTED = (
    ("contexts", "repro.engine.context", "EngineContext"),
    ("managers", "repro.bdd.manager", "BddManager"),
)

#: (section, field) program counters summed over a task's contexts.
COUNTERS = (
    ("prover", "calls"),
    ("prover", "queries"),
    ("prover", "cache_hits"),
    ("prover", "allsat_model_hits"),
    ("prover", "theory_delta_queries"),
    ("analysis", "queries_discharged_interval"),
    ("persistent_cache", "writes"),
    ("persistent_cache", "write_skips"),
    ("persistent_cache", "hits"),
    ("persistent_cache", "misses"),
    ("cegar", "iterations"),
)

ROOT = "unattributed"


class Tracer:
    """Span stack, per-layer self/inclusive time and call counts, and the
    program counters of every context and BDD manager a task creates."""

    def __init__(self):
        self.self_s = Counter()
        self.inclusive_s = Counter()
        self.calls = Counter()
        self.counters = Counter()
        self.contexts = []
        self.managers = []
        self._active = Counter()
        self._stack = []
        self._restore = []

    # -- patching ---------------------------------------------------------------

    def install(self):
        for layer, module_name, attribute in LAYERS:
            owner, name = _resolve(module_name, attribute)
            original = owner.__dict__[name]
            wrapper = self._span(layer, original)
            if isinstance(owner, type):
                self._patch(owner, name, original, wrapper)
            else:
                # A module-level function is also bound by name in every
                # module that imported it; patch each of those bindings.
                for module in list(sys.modules.values()):
                    if _is_patchable(module) and vars(module).get(name) is original:
                        self._patch(module, name, original, wrapper)
        for bucket, module_name, class_name in _COLLECTED:
            cls = getattr(importlib.import_module(module_name), class_name)
            original = cls.__dict__["__init__"]
            self._patch(cls, "__init__", original, self._collector(bucket, original))

    def uninstall(self):
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, original, wrapper):
        self._restore.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _span(self, layer, function):
        stack = self._stack
        active = self._active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not active[layer]:
                self.calls[layer] += 1
            active[layer] += 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                stack[-1][1] += elapsed
                self.self_s[layer] += elapsed - frame[1]
                active[layer] -= 1
                if not active[layer]:
                    self.inclusive_s[layer] += elapsed

        traced.__wrapped__ = function
        return traced

    def _collector(self, bucket, init):
        instances = getattr(self, bucket)

        def collecting(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            instances.append(obj)

        return collecting

    # -- tasks ------------------------------------------------------------------

    def begin_task(self):
        self._stack.append([time.perf_counter(), 0.0])

    def end_task(self):
        frame = self._stack.pop()
        self.self_s[ROOT] += time.perf_counter() - frame[0] - frame[1]
        self.counters.update(_task_counters(self.contexts))
        self.counters["bdd.ite_calls"] += sum(m.ite_calls for m in self.managers)
        self.contexts.clear()
        self.managers.clear()


def _resolve(module_name, attribute):
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _is_patchable(module):
    name = getattr(module, "__name__", "") or ""
    return name == "repro" or name.startswith("repro.") or name == "workloads"


def _task_counters(contexts):
    """Sum :data:`COUNTERS` over the contexts, counting a section shared
    by several contexts (one prover behind two contexts, say) once."""
    totals = Counter()
    seen = set()
    for context in contexts:
        snapshot = context.snapshot()
        for section in ("prover", "analysis", "persistent_cache", "cegar", "phases"):
            source = context.stats.section(section)
            owner = getattr(source, "__self__", source)
            if source is None or id(owner) in seen:
                continue
            seen.add(id(owner))
            values = snapshot.get(section) or {}
            if section == "phases":
                totals["newton.calls"] += values.get("newton", {}).get("count", 0)
                continue
            for counter_section, field in COUNTERS:
                if counter_section == section:
                    totals["%s.%s" % (section, field)] += values.get(field) or 0
    return totals
