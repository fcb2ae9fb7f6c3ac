"""Fuzzing throughput: generated cases per second through the full
oracle stack (generation, abstraction under two cube-engine configs,
three model-checking engines, concrete-vs-boolean trace replay).

Not a paper table — an engineering health check that keeps the
soundness net cheap enough to run on every PR. The table records where
the budget goes (replays, explicit-state checks, prover calls), so a
regression in fuzz wall-clock can be attributed.

``-k smoke`` selects the fixture-free fast subset used by CI.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

pytestmark = pytest.mark.bench

from _tables import write_json, write_table

from repro.fuzz import FuzzSession


def _timed_session(count, seed, jobs_stride=0):
    session = FuzzSession(seed=seed, jobs_stride=jobs_stride)
    started = time.perf_counter()
    result = session.run(count)
    elapsed = time.perf_counter() - started
    return result, elapsed


def test_fuzz_throughput_smoke():
    """Fast check: a small fixed-seed batch stays clean and finishes."""
    result, elapsed = _timed_session(6, "bench-smoke")
    assert result.ok, "\n".join(result.summary_lines())
    assert result.replays > 0
    assert elapsed < 120


def test_bench_fuzz_throughput():
    result, elapsed = _timed_session(50, "bench", jobs_stride=10)
    assert result.ok, "\n".join(result.summary_lines())
    rows = [
        [
            result.cases,
            "%.1f" % elapsed,
            "%.2f" % (result.cases / elapsed),
            result.replays,
            result.assert_trips,
            result.explicit_checked,
            result.jobs_checked,
            result.prover_calls,
        ]
    ]
    write_table(
        "BENCH_fuzz",
        [
            "cases",
            "seconds",
            "cases/s",
            "replays",
            "assert-ended",
            "explicit",
            "jobs-diff",
            "prover calls",
        ],
        rows,
        notes=[
            "Seed 'bench'; oracle = validate + one-shot reference + fast/legacy/"
            "explicit engines + trace replay; --jobs differential every 10th case.",
        ],
    )
    write_json(
        "BENCH_fuzz",
        {
            "cases": result.cases,
            "seconds": elapsed,
            "cases_per_second": result.cases / elapsed,
            "replays": result.replays,
            "assert_trips": result.assert_trips,
            "explicit_checked": result.explicit_checked,
            "jobs_checked": result.jobs_checked,
            "prover_calls": result.prover_calls,
            "digest": result.digest(),
        },
    )
