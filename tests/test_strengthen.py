"""The strengthening engine's engagement, the one-shot reference, and the
persistent worker pool.

Four groups of guarantees:

- **Engagement** — on real corpus programs every layer of the default
  strengthening engine does work: assumption solves, AllSAT catalog
  hits, incremental-theory delta queries (inside and outside the
  sweep), and the ``--jobs 2`` pool merges those counters back;
- **Reference identity** — the boolean programs equal the ones built
  through a backend with only the one-shot checks (the fuzz oracle's
  reference);
- **Pool lifecycle** — the persistent :class:`StatementPool` shuts down
  deterministically (no zombie processes after ``close()``), survives
  reuse across runs on one context, and re-raises a failing worker
  statement with the original traceback;
- **Oracle coverage** — an injected catalog bug is caught by the fuzz
  oracle's reference comparison as ``abstraction-divergence``.
"""

import multiprocessing

import pytest

from repro import C2bp, parse_c_program, parse_predicate_file
from repro.boolprog.printer import print_bool_program
from repro.core import C2bpOptions
from repro.core import abstractor as abstractor_module
from repro.core.pool import WorkerError
from repro.engine import EngineContext
from repro.fuzz.gen import ProgramGenerator
from repro.fuzz.oracle import KIND_ABSTRACTION, ReferenceBackend, SoundnessOracle
from repro.programs import get_program
from repro.prover import allsat as allsat_module


def _study_inputs(name):
    study = get_program(name)
    program = parse_c_program(study.source, study.name)
    predicates = parse_predicate_file(study.predicate_text, program)
    return program, predicates


def _abstract(name, jobs=1, backend=None):
    program, predicates = _study_inputs(name)
    with EngineContext(options=C2bpOptions(jobs=jobs), backend=backend) as context:
        text = print_bool_program(C2bp(program, predicates, context=context).run())
        return text, context.prover.stats


# -- engagement -----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["partition", "kmp"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_strengthening_layers_engage(name, jobs):
    # At jobs=2 every counter below is a worker-side tally merged back
    # into the parent's stats.
    _, stats = _abstract(name, jobs=jobs)
    assert stats.calls > 0
    assert stats.assumption_solves > 0
    assert stats.allsat_model_hits > 0
    assert stats.theory_delta_queries > 0
    assert stats.allsat_sweep_theory_deltas > 0


# -- the one-shot reference -----------------------------------------------------------


@pytest.mark.parametrize("name", ["partition", "listfind"])
def test_bool_program_matches_one_shot_reference(name):
    text, _ = _abstract(name)
    reference, stats = _abstract(name, backend=ReferenceBackend())
    assert stats.assumption_solves == 0 and stats.allsat_sweeps == 0
    assert text == reference


# -- pool lifecycle -------------------------------------------------------------------


def test_pool_persists_across_runs_and_closes_clean():
    program, predicates = _study_inputs("partition")
    serial = print_bool_program(
        C2bp(program, predicates, options=C2bpOptions(jobs=1)).run()
    )
    with EngineContext(options=C2bpOptions(jobs=2)) as context:
        first = print_bool_program(C2bp(program, predicates, context=context).run())
        pool = context._worker_pool
        assert pool is not None
        second = print_bool_program(C2bp(program, predicates, context=context).run())
        # Same long-lived pool served both runs.
        assert context._worker_pool is pool
        assert first == serial and second == serial
    assert context._worker_pool is None
    for process in multiprocessing.active_children():
        process.join(timeout=5)
    assert multiprocessing.active_children() == []


def test_pool_closed_after_private_context_run():
    program, predicates = _study_inputs("partition")
    tool = C2bp(program, predicates, options=C2bpOptions(jobs=2))
    tool.run()
    # The run created (and must have closed) its own pool.
    assert tool.context._worker_pool is None
    for process in multiprocessing.active_children():
        process.join(timeout=5)
    assert multiprocessing.active_children() == []


def test_failing_worker_statement_surfaces_traceback(monkeypatch):
    program, predicates = _study_inputs("partition")

    def boom(self, stmt):
        raise RuntimeError("injected worker failure")

    # The pool forks after the patch, so workers inherit it.
    monkeypatch.setattr(
        abstractor_module._ProcedureAbstractor, "_abstract_stmt", boom
    )
    with EngineContext(options=C2bpOptions(jobs=2)) as context:
        with pytest.raises(WorkerError) as excinfo:
            C2bp(program, predicates, context=context).run()
        assert "injected worker failure" in str(excinfo.value)
        assert "RuntimeError" in excinfo.value.remote_traceback
    for process in multiprocessing.active_children():
        process.join(timeout=5)
    assert multiprocessing.active_children() == []


# -- oracle coverage ------------------------------------------------------------------


def test_oracle_catches_injected_catalog_bug(monkeypatch):
    """A catalog that misreports coverage flips SAT answers; the oracle's
    one-shot reference abstraction must expose the divergence."""

    def lying_covers(self, cube):
        self.hits += 1
        return True

    monkeypatch.setattr(allsat_module.ModelCatalog, "covers", lying_covers)
    oracle = SoundnessOracle()
    for seed in range(8):
        case = ProgramGenerator("strengthen").generate(seed)
        report = oracle.check(case, check_jobs=False)
        if report.kind == KIND_ABSTRACTION and "reference" in report.detail:
            return
    raise AssertionError("no generated case exposed the injected catalog bug")
