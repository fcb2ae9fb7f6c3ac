"""The four workloads as fixed task lists, each task with its known answer.

A task's ``run`` is the timed call into the program; its ``check`` runs
untimed and returns ``(outcome, counters, detail)``.  ``outcome`` is
``"ok"`` when the result equals the task's known answer, ``"known"`` when
it is a listed known failure, and ``"failed"`` otherwise.  ``counters``
is a dict of program counts, ``prover_calls`` among them, that must
repeat exactly on every pass; a change between passes is reported as
nondeterminism.
"""

import hashlib
import random

# The pipeline imports repro.bmc, repro.core.wp and repro.serve lazily;
# importing them here makes their compile time part of set-up instead of
# the first task of a run.
import repro.bmc  # noqa: F401
import repro.cfront as cfront
import repro.core.predicates as predicates_module
import repro.core.wp  # noqa: F401
import repro.serve  # noqa: F401
from repro import Bebop, C2bp, C2bpOptions, EngineContext, SafetySpec, check_property
from repro.boolprog.printer import print_bool_program
from repro.fuzz import FuzzResult, ProgramGenerator, SoundnessOracle
from repro.programs import all_drivers, all_table2_programs

#: SHA-256 of each Table-2 program's printed boolean program.  The
#: pipeline promises byte-identical boolean programs for every option
#: that only changes speed, ``jobs`` included, so both ``table2`` and
#: ``table2-pool`` compare against these.
TABLE2_BP_SHA256 = {
    "kmp": "d76ec8c6fcf2a2659e500412f8c5b2f1c5fe32349aacd23d44d961b7616433d7",
    "qsort": "ce2e5bc2d9dcc26b6ad4584d0c744e0ca07f39dc9ed4efd7245df2d0353c0907",
    "partition": "2c48e1c82e1fba0a7c89e85fd012d87d1a5d674a24bd4e30be4840ec2ae6d9ee",
    "listfind": "e3bcef5f3eed255134e2ab7cd7e238a9f9e4db675b1524342d198cdb046b2d28",
    "reverse": "da4d4fc59f9fbf29e181745a22dd941eb7cd7d4491d678b6c8360f8c20c4b73b",
}

#: The fuzz batch: the first ``FUZZ_CASES`` cases of the generator seeded
#: with ``FUZZ_SEED``, the same batch for every ``--seed``.  Case costs are
#: heavy-tailed (one case of a 40-case batch can take most of its time),
#: so a batch drawn anew per ``--seed`` would not give a steady time.
FUZZ_SEED = "bench"
FUZZ_CASES = 8

#: Cases whose oracle report is a known, untriaged failure.  They count as
#: failed in every run; a listed case that passes is not an error.
KNOWN_FUZZ_FAILURES = {"fuzz-bench-6": "soundness"}

LOCK = SafetySpec.lock_discipline("KeAcquireSpinLock", "KeReleaseSpinLock")
IRP = SafetySpec.complete_exactly_once("IoCompleteRequest")
DRIVER_MAX_ITERATIONS = 8


class Task:
    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def table2_tasks(jobs):
    """Each Table-2 program through C2bp and Bebop, one context apiece."""

    def make(study):
        def run():
            program = cfront.parse_c_program(study.source, study.name)
            predicates = predicates_module.parse_predicate_file(
                study.predicate_text, program
            )
            with EngineContext(options=C2bpOptions(jobs=jobs)) as context:
                tool = C2bp(program, predicates, context=context)
                boolean_program = tool.run()
                result = Bebop(boolean_program, main=study.entry, context=context).run()
            return tool.stats.prover_calls, boolean_program, result

        def check(outcome):
            calls, boolean_program, result = outcome
            digest = hashlib.sha256(
                print_bool_program(boolean_program).encode()
            ).hexdigest()
            problems = []
            if digest != TABLE2_BP_SHA256[study.name]:
                problems.append("boolean program sha256 %s" % digest)
            if result.assertion_failures:
                problems.append(
                    "%d undischarged assert(s)" % len(result.assertion_failures)
                )
            counters = {"prover_calls": calls}
            return ("failed" if problems else "ok"), counters, "; ".join(problems)

        return Task(study.name, run, check)

    return [make(study) for study in all_table2_programs()]


def driver_tasks():
    """Each Table-1 driver under each property through the CEGAR loop."""

    def make(driver, key, spec):
        def run():
            with EngineContext(options=C2bpOptions(jobs=1)) as context:
                return check_property(
                    driver.source,
                    spec,
                    entry=driver.entry,
                    max_iterations=DRIVER_MAX_ITERATIONS,
                    context=context,
                )

        def check(result):
            expected = driver.expected[key]
            counters = {
                "verdict": result.verdict,
                "prover_calls": result.cegar.total_prover_calls,
                "iterations": result.iterations,
            }
            if result.verdict != expected:
                return "failed", counters, "verdict %s, expected %s" % (
                    result.verdict,
                    expected,
                )
            return "ok", counters, ""

        return Task("%s/%s" % (driver.name, key), run, check)

    return [
        make(driver, key, spec)
        for driver in all_drivers()
        for key, spec in (("lock", LOCK), ("irp", IRP))
    ]


def _serial_options(**overrides):
    # The oracle's configurations leave ``jobs`` at its default, which
    # forks a worker pool per configuration on a multi-core host; pin it.
    return C2bpOptions(**{"jobs": 1, **overrides})


def fuzz_tasks():
    """The fixed fuzz batch through the full soundness oracle."""
    generator = ProgramGenerator(FUZZ_SEED)
    oracle = SoundnessOracle(make_options=_serial_options)

    def make(index):
        def run():
            case = generator.generate(index)
            return case, oracle.check(case, check_jobs=False)

        def check(outcome):
            case, report = outcome
            counters = {
                "kind": report.kind,
                "prover_calls": report.prover_calls,
                "replays": report.replays,
            }
            if report.ok:
                return "ok", counters, ""
            detail = "[%s] %s" % (report.kind, report.detail.partition("\n")[0])
            if KNOWN_FUZZ_FAILURES.get(case.name) == report.kind:
                return "known", counters, detail
            return "failed", counters, detail

        return Task("fuzz-%s-%d" % (FUZZ_SEED, index), run, check)

    return [make(index) for index in range(FUZZ_CASES)]


def fuzz_digest(outcomes):
    """``FuzzResult.digest()`` of a pass, over the cases in index order."""
    result = FuzzResult()
    for case, report in sorted(outcomes, key=lambda item: _case_index(item[0])):
        result.record(case, report)
    return result.digest()


def _case_index(case):
    return int(case.name.rsplit("-", 1)[1])


WORKLOADS = {
    "table2": lambda: table2_tasks(jobs=1),
    "table2-pool": lambda: table2_tasks(jobs=2),
    "drivers": driver_tasks,
    "fuzz": fuzz_tasks,
}


#: Per-pass fingerprints beyond the per-task counters.
PASS_DIGEST = {"fuzz": fuzz_digest}


def tasks_for(workload, seed):
    """The workload's task list in the order ``seed`` gives it."""
    tasks = WORKLOADS[workload]()
    random.Random(seed).shuffle(tasks)
    return tasks
