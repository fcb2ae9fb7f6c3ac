"""Canonical key texts for the content-addressed store.

A disk key must be stable across *processes*, which is stricter than the
in-memory caches need: ``QueryCache`` keys contain a ``frozenset`` whose
iteration order depends on ``PYTHONHASHSEED``, and prover queries mention
compiler-generated temporaries (the ``__t<N>`` names
:mod:`repro.cfront.simplify` introduces) whose numbering shifts when an
unrelated earlier statement is edited.  This module renders such keys to
deterministic text:

- antecedents are constant-folded, pretty-printed, and *sorted* (order
  and duplication are forgotten, matching the in-memory frozenset);
- generated temporaries are alpha-normalized to ``__c<N>`` in a
  content-derived order, so a near-identical submission whose lowering
  happened to number its temps differently still hits;
- the result is hashed with SHA-256 together with a namespace tag and a
  format-version salt.

Soundness: validity is invariant under *injective* renaming of free
variables, and the normalization below is a bijection from the query's
temp names onto ``__c0..__c<k>`` (fresh names — normalization is skipped
entirely if any expression already mentions a ``__c`` identifier).  Two
queries rendering to the same canonical text are therefore related by a
temp bijection and have the same answer; hash-equal keys are sound.  The
only cost of the deterministic tie-breaking is pathological: structurally
identical antecedents differing just in temp identity may order either
way across processes, causing a spurious miss, never a wrong hit.
"""

import hashlib
import re

from repro.cfront.exprutils import fold_constants
from repro.cfront.pretty import pretty_expr

#: Bump when any record layout or key scheme changes: old entries then
#: simply stop matching (a cold run repopulates the store).
FORMAT_VERSION = 1

#: Compiler-generated temporaries subject to alpha-normalization: the
#: ``__t<N>`` simplifier temps that reach prover queries, plus the
#: ``__r...`` boolean-program temps should their meanings ever be queried.
_TEMP_PATTERN = re.compile(r"\b__(?:t|r[cw]?)\d+(?:_\d+)?\b")

#: The canonical replacement names (must never collide with real program
#: identifiers; normalization is skipped when the guard below trips).
_CANON_GUARD = "__c"


def _local_normal_form(text):
    """``text`` with its temps renumbered by first occurrence *within this
    expression* — deterministic per expression, used as the sort key."""
    seen = {}

    def rename(match):
        name = match.group(0)
        if name not in seen:
            seen[name] = "%s%d" % (_CANON_GUARD, len(seen))
        return seen[name]

    return _TEMP_PATTERN.sub(rename, text)


def _substitute(text, mapping):
    return _TEMP_PATTERN.sub(lambda m: mapping.get(m.group(0), m.group(0)), text)


def canonical_query_text(kind, exprs, consequent=None):
    """Deterministic text for a prover query, stable across processes and
    across temp renumbering.  ``kind``/``exprs``/``consequent`` are as in
    :meth:`repro.prover.cache.QueryCache.key`."""
    folded = sorted({pretty_expr(fold_constants(e)) for e in exprs})
    goal = (
        pretty_expr(fold_constants(consequent)) if consequent is not None else ""
    )
    texts = ([goal] if goal else []) + folded
    if not any(_TEMP_PATTERN.search(t) for t in texts):
        return "%s|%s|%s" % (kind, goal, "\x1f".join(folded))
    if any(_CANON_GUARD in t for t in texts):
        # A real identifier shadows the canonical namespace: renaming
        # could break injectivity, so fall back to the raw (sorted) text.
        return "%s|%s|%s" % (kind, goal, "\x1f".join(folded))
    # Order antecedents by their temp-erased local normal form, then
    # assign global numbers by first occurrence over (goal, antecedents).
    ordered = sorted(folded, key=_local_normal_form)
    mapping = {}
    for text in [goal] + ordered:
        for match in _TEMP_PATTERN.finditer(text):
            name = match.group(0)
            if name not in mapping:
                mapping[name] = "%s%d" % (_CANON_GUARD, len(mapping))
    goal = _substitute(goal, mapping)
    normalized = sorted(_substitute(text, mapping) for text in ordered)
    return "%s|%s|%s" % (kind, goal, "\x1f".join(normalized))


def _digest_text(namespace, text):
    return "%s|v%d|%s" % (namespace, FORMAT_VERSION, text)


def query_store_key(key):
    """The store key text for an in-memory :class:`QueryCache` key.

    Prover answers depend only on the query (the incremental cube engine
    answers exactly like one-shot queries), so the options fingerprint
    is deliberately absent: runs under different ablation configurations
    share prover entries.
    """
    kind, exprs, consequent = key
    return _digest_text("prover", canonical_query_text(kind, exprs, consequent))


#: The :class:`repro.core.options.C2bpOptions` fields a statement's
#: translation (and enforce invariant) can read.  Deliberately excludes
#: the answer-invisible knobs — ``cache_prover``, ``jobs``, the Bebop
#: engine selection, ``validate_output``, the BMC settings, and the
#: cache wiring itself — so configurations that provably print the same
#: bytes share statement entries.
SEMANTIC_OPTION_FIELDS = (
    "max_cube_length",
    "cone_of_influence",
    "skip_unchanged",
    "syntactic_heuristics",
    "distribute_f",
    "compute_enforce",
    "enforce_cube_length",
    "use_alias_analysis",
    "invalidate_constant_derefs",
)


def options_fingerprint(options):
    """A short digest of the semantically relevant option fields."""
    parts = tuple(
        (name, getattr(options, name, None)) for name in SEMANTIC_OPTION_FIELDS
    )
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()[:16]


def statement_store_key(stmt_key, options):
    """The store key text for a statement-abstraction cache entry.

    ``stmt_key`` is :meth:`repro.analysis.ProgramAnalyses.statement_key`
    output — a nested tuple of strings/ints whose ``repr`` is process
    stable (predicate names are content-derived)."""
    return _digest_text(
        "c2bp-stmt", "%s|%s" % (options_fingerprint(options), repr(stmt_key))
    )


def enforce_store_key(enforce_key, options):
    """The store key text for a per-procedure enforce invariant."""
    return _digest_text(
        "c2bp-enforce", "%s|%s" % (options_fingerprint(options), repr(enforce_key))
    )


def bebop_store_key(proc_name, fingerprint):
    """The store key text for a compiled Bebop procedure table.

    The fingerprint (:func:`repro.bebop.checker.procedure_fingerprint`)
    digests everything the table depends on *except the procedure's own
    name* — yet the serialized slot keys mention that name (``("l",
    proc, v)`` etc.), so two textually identical procedures (stub pairs
    are common) must not share a record."""
    return _digest_text("bebop", "%s|%s" % (proc_name, fingerprint))
