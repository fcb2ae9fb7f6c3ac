"""Statistics collected during abstraction (the Tables 1/2 columns).

:class:`C2bpStats` is one section of the run-wide
:class:`repro.engine.StatsRegistry` (registered as ``"c2bp"`` by
:class:`repro.core.abstractor.C2bp`); its prover counters are *deltas
for that run*, so they stay meaningful when the CEGAR loop reuses one
prover across iterations.
"""


class C2bpStats:
    """Counters for one C2bp run."""

    def __init__(self):
        self.program_statements = 0
        self.predicate_count = 0
        self.prover_calls = 0
        self.prover_queries = 0
        self.prover_cache_hits = 0
        self.assignments_abstracted = 0
        self.assignments_skipped_unchanged = 0
        self.calls_abstracted = 0
        self.conditionals_abstracted = 0
        self.seconds = 0.0
        self.per_procedure = {}

    def snapshot(self):
        return {
            "program_statements": self.program_statements,
            "predicates": self.predicate_count,
            "prover_calls": self.prover_calls,
            "prover_queries": self.prover_queries,
            "prover_cache_hits": self.prover_cache_hits,
            "assignments": self.assignments_abstracted,
            "assignments_skipped": self.assignments_skipped_unchanged,
            "calls": self.calls_abstracted,
            "conditionals": self.conditionals_abstracted,
            "seconds": self.seconds,
        }

    def __repr__(self):
        return "C2bpStats(%r)" % (self.snapshot(),)

