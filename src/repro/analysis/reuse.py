"""Cross-iteration reuse of statement abstractions.

Each CEGAR iteration re-runs C2bp with a slightly larger predicate set,
yet most statements' translations cannot have changed: a new predicate
only affects a statement when it reaches the statement's mod/ref closure
(it gains a slot there, or enters some slot's cone of influence).
:class:`AbstractionReuse` caches each top-level statement's translated
parts keyed by everything the translation reads — the statement text,
the scope predicates inside its mod/ref closure and the involved
signatures — so the next iteration re-translates only the
statements the new predicates actually touch.

Byte identity with a fresh run comes from reusing the parallel-merge
discipline: translations are produced (and cached) with per-statement
temporary prefixes, then assembled with the same first-use renumbering
``_run_parallel`` applies, which the test suite already pins as
identical to a serial translation.  Cached parts are cloned on both
store and fetch because assembly renames statement nodes in place.
"""

from repro.boolprog import ast as B


def clone_stmts(stmts):
    """Deep-copy boolean statements (expressions are immutable and
    shared), preserving labels, source sids, and comments."""
    copies = []
    for stmt in stmts:
        if isinstance(stmt, B.BAssign):
            new = B.BAssign(list(stmt.targets), list(stmt.values))
        elif isinstance(stmt, B.BAssume):
            new = B.BAssume(stmt.cond)
        elif isinstance(stmt, B.BAssert):
            new = B.BAssert(stmt.cond)
        elif isinstance(stmt, B.BIf):
            new = B.BIf(
                stmt.cond, clone_stmts(stmt.then_body), clone_stmts(stmt.else_body)
            )
        elif isinstance(stmt, B.BWhile):
            new = B.BWhile(stmt.cond, clone_stmts(stmt.body))
        elif isinstance(stmt, B.BCall):
            new = B.BCall(list(stmt.targets), stmt.name, list(stmt.args))
        elif isinstance(stmt, B.BReturn):
            new = B.BReturn(list(stmt.values))
        elif isinstance(stmt, B.BGoto):
            new = B.BGoto(stmt.label)
        else:
            new = B.BSkip()
        new.labels = list(stmt.labels)
        new.source_sid = stmt.source_sid
        new.comment = stmt.comment
        copies.append(new)
    return copies


class AbstractionReuse:
    """The cache.  One instance lives across the CEGAR loop; C2bp
    consults it per top-level statement (and per procedure enforce)."""

    def __init__(self, stats=None):
        self._statements = {}  # key -> payload
        self._enforce = {}  # (func, scope names) -> enforce expr
        self.stats = stats

    # -- statements -------------------------------------------------------------

    def fetch(self, key):
        payload = self._statements.get(key)
        if payload is None:
            if self.stats is not None:
                self.stats.c2bp_stmts_retranslated += 1
            return None
        if self.stats is not None:
            self.stats.c2bp_stmts_reused += 1
        return {
            "stmts": clone_stmts(payload["stmts"]),
            "temps": list(payload["temps"]),
            "temp_meanings": list(payload["temp_meanings"]),
            "c2bp": dict(payload["c2bp"]),
        }

    def store(self, key, stmts, temps, temp_meanings, c2bp_counters):
        self._statements[key] = {
            "stmts": clone_stmts(stmts),
            "temps": list(temps),
            "temp_meanings": list(temp_meanings),
            "c2bp": dict(c2bp_counters),
        }

    # -- enforce invariants -----------------------------------------------------

    def fetch_enforce(self, key):
        """``(hit, enforce)`` — a hit's enforce can legitimately be None
        (no inconsistent cubes), so presence must be reported separately."""
        if key in self._enforce:
            return True, self._enforce[key]
        return False, None

    def store_enforce(self, key, enforce):
        self._enforce[key] = enforce
