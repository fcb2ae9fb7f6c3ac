"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload drivers --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload's fixed task list runs in
passes until ``--seconds`` have gone by (at least one pass).  Every task's
output is checked against its known answer, and every program counter
must repeat on every pass.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the layer
ledger.  The last line of standard output is one JSON object; the lines
before it repeat the metrics for people.  See ``perfbench/README.md``.
"""

import argparse
import gc
import json
import math
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build"
WORKLOADS = ("table2", "table2-pool", "drivers", "fuzz")
SETUP_PROBES = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only import the package and build the task list, then exit",
    )
    return parser.parse_args(argv)


def load_workloads():
    """Import the package from this checkout's ``src`` (never an installed
    copy); exits non-zero when the checkout has no package."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit("perfbench: no package at %s; run from a full checkout" % SRC)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import workloads

    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit("perfbench: imported repro from %s, not %s" % (repro.__file__, SRC))
    return workloads


def measure_setup(workload):
    """Median wall time of fresh interpreters that import the package and
    build the task list: the time from process start to the first task."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        workload,
        "--setup-probe",
    ]
    # No run writes bytecode into the checkout, so every run compiles the
    # package from source and set-up time does not depend on earlier runs.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        subprocess.run(command, env=env, check=True, cwd=ROOT)
        samples.append(time.perf_counter() - started)
    return samples


class Pass:
    """The outcome of one pass over the task list."""

    def __init__(self):
        self.task_s = []
        self.outcomes = {}  # task name -> "ok" | "known" | "failed"
        self.counters = {}  # task name -> dict of program counters
        self.details = {}
        self.digest = None

    @property
    def wall_s(self):
        return sum(self.task_s)


def run_pass(tasks, digest=None, tracer=None):
    """Run every task once; ``digest``, when given, folds the pass's task
    results into one fingerprint that must repeat on every pass."""
    record = Pass()
    results = []
    for task in tasks:
        # Each task starts from a collected heap, as a fresh invocation
        # would, whatever ran before it.
        gc.collect()
        if tracer is not None:
            tracer.begin_task()
        started = time.perf_counter()
        try:
            result = task.run()
        except Exception as error:  # a crashing task counts as failed
            result = error
        elapsed = time.perf_counter() - started
        if tracer is not None:
            tracer.end_task()
        record.task_s.append(elapsed)
        if isinstance(result, Exception):
            outcome, counters = "failed", None
            detail = "raised %s: %s" % (type(result).__name__, result)
        else:
            outcome, counters, detail = task.check(result)
            if digest is not None:
                results.append(result)
        # Drop the result before the next task runs, so that task's peak
        # memory does not depend on which task ran before it.
        del result
        record.outcomes[task.name] = outcome
        record.counters[task.name] = counters
        record.details[task.name] = detail
    if digest is not None:
        record.digest = digest(results)
    return record


def compare_passes(passes):
    """Names of the tasks (or ``pass digest``) whose counters differ
    between passes: the program was not deterministic."""
    first = passes[0]
    differing = set()
    for later in passes[1:]:
        for name, counters in later.counters.items():
            if counters != first.counters[name]:
                differing.add(name)
    if len({p.digest for p in passes}) > 1:
        differing.add("pass digest")
    return sorted(differing)


def summarize(passes, nondeterministic):
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(
        1 for p in passes for name, outcome in p.outcomes.items()
        if outcome != "ok" or name in nondeterministic
    )
    unexpected = sorted(
        {name for p in passes for name, outcome in p.outcomes.items() if outcome == "failed"}
    )
    return attempted, failed, unexpected


def percentile_lines(samples_ms):
    """The median and p90 of per-task times, each only when at least ten
    samples lie beyond it."""
    lines = []
    ordered = sorted(samples_ms)
    for name, share in (("task_p50_ms", 0.5), ("task_p90_ms", 0.9)):
        if len(ordered) * (1 - share) >= 10:
            value = ordered[min(len(ordered) - 1, math.ceil(share * len(ordered)) - 1)]
            lines.append("%-16s %12.3f ms   (n=%d)" % (name, value, len(ordered)))
        else:
            lines.append(
                "%-16s %12s      (n=%d: fewer than ten samples beyond it)"
                % (name, "-", len(ordered))
            )
    return lines


def untraced(args, tasks, digest):
    setup = measure_setup(args.workload)
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < args.seconds:
        passes.append(run_pass(tasks, digest))
    nondeterministic = compare_passes(passes)
    task_ms = [s * 1000 for p in passes for s in p.task_s]
    attempted, failed, unexpected = summarize(passes, nondeterministic)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    child_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s", len(passes)),
        "correct_frac": ((attempted - failed) / attempted, "frac", attempted),
        "peak_rss_mb": (peak_mb, "MB", 1),
    }
    lines = ["%-16s %12.4f %-5s (n=%d)" % (k, v, u, n) for k, (v, u, n) in metrics.items()]
    # Per-task figures are printed but not reported: one sample of a
    # task under 0.3 s varies by a third on a shared host, so they are
    # steady only where a run holds many samples of each task.
    geomean = math.exp(statistics.fmean(math.log(ms) for ms in task_ms))
    lines.append("%-16s %12.4f %-5s (n=%d)" % ("task_geomean_ms", geomean, "ms", len(task_ms)))
    lines += percentile_lines(task_ms)
    lines.append(
        "peak_rss_mb is this process only; the largest child process "
        "(set-up probe or pool worker) peaked at %.1f MB" % child_mb
    )
    lines += report_lines(passes, nondeterministic)
    result = {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}
    return lines, result, attempted, failed, unexpected, nondeterministic


def traced(args, tasks, digest):
    from tracer import ROOT as UNATTRIBUTED
    from tracer import Tracer

    tracer = Tracer()
    plain, traced_passes = [], []
    started = time.perf_counter()
    while not traced_passes or time.perf_counter() - started < args.seconds:
        plain.append(run_pass(tasks, digest))
        tracer.install()
        try:
            traced_passes.append(run_pass(tasks, digest, tracer))
        finally:
            tracer.uninstall()
    passes = plain + traced_passes
    nondeterministic = compare_passes(passes)
    attempted, failed, unexpected = summarize(passes, nondeterministic)

    runs = len(traced_passes)
    traced_wall = sum(p.wall_s for p in traced_passes)
    self_s = {name: seconds / runs for name, seconds in tracer.self_s.items()}
    count = {name: n / runs for name, n in tracer.calls.items()}
    counter = {name: n / runs for name, n in tracer.counters.items()}

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {
        "analysis.discharge_s": (self_s.get("analysis.discharge", 0.0), "s"),
        "analysis.discharge_calls": (count.get("analysis.discharge", 0), "count"),
        "analysis.discharge_useful_ratio": (
            ratio(
                counter.get("analysis.queries_discharged_interval", 0),
                count.get("analysis.discharge", 0),
            ),
            "ratio",
        ),
        "prover.theory_s": (self_s.get("prover.theory", 0.0), "s"),
        "prover.theory_checks": (count.get("prover.theory", 0), "count"),
        "prover.theory_fastpath_ratio": (
            ratio(
                counter.get("prover.theory_delta_queries", 0),
                count.get("prover.theory", 0),
            ),
            "ratio",
        ),
        "prover.sat_s": (self_s.get("prover.sat", 0.0), "s"),
        "prover.sat_solves": (count.get("prover.sat", 0), "count"),
        "prover.encode_s": (self_s.get("prover.encode", 0.0), "s"),
        "prover.calls": (counter.get("prover.calls", 0), "count"),
        "prover.cache_hit_ratio": (
            ratio(counter.get("prover.cache_hits", 0), counter.get("prover.queries", 0)),
            "ratio",
        ),
        "prover.allsat_model_hit_ratio": (
            ratio(
                counter.get("prover.allsat_model_hits", 0),
                counter.get("prover.calls", 0),
            ),
            "ratio",
        ),
        "serve.store_put_s": (self_s.get("serve.store_put", 0.0), "s"),
        "serve.store_puts": (
            counter.get("persistent_cache.writes", 0)
            + counter.get("persistent_cache.write_skips", 0),
            "count",
        ),
        "serve.store_get_s": (self_s.get("serve.store_get", 0.0), "s"),
        "serve.store_gets": (
            counter.get("persistent_cache.hits", 0)
            + counter.get("persistent_cache.misses", 0),
            "count",
        ),
        "cfront.parse_s": (self_s.get("cfront.parse", 0.0), "s"),
        "pointers.s": (self_s.get("pointers", 0.0), "s"),
        "slam.instrument_s": (self_s.get("slam.instrument", 0.0), "s"),
        "bebop.s": (self_s.get("bebop", 0.0), "s"),
        "bdd.ite_calls": (counter.get("bdd.ite_calls", 0), "count"),
        "newton.s": (self_s.get("newton", 0.0), "s"),
        "newton.calls": (counter.get("newton.calls", 0), "count"),
        "slam.cegar_iterations": (counter.get("cegar.iterations", 0), "count"),
        "slam.cegar_self_s": (self_s.get("slam.cegar", 0.0), "s"),
        "bmc.s": (self_s.get("bmc", 0.0), "s"),
        "fuzz.gen_s": (self_s.get("fuzz.gen", 0.0), "s"),
        "fuzz.explicit_s": (self_s.get("fuzz.explicit", 0.0), "s"),
        "fuzz.replay_s": (self_s.get("fuzz.replay", 0.0), "s"),
        "pool.creates": (count.get("pool.create", 0), "count"),
        "pool.create_s": (self_s.get("pool.create", 0.0), "s"),
        "pool.wait_s": (self_s.get("pool.wait", 0.0), "s"),
        "core.c2bp_s": (tracer.inclusive_s.get("core.c2bp", 0.0) / runs, "s"),
        "core.c2bp_self_s": (self_s.get("core.c2bp", 0.0), "s"),
        "unattributed_frac": (ratio(tracer.self_s[UNATTRIBUTED], traced_wall), "frac"),
        "trace_overhead_s": (
            statistics.median(p.wall_s for p in traced_passes)
            - statistics.median(p.wall_s for p in plain),
            "s",
        ),
    }
    lines = [
        "traced %d pass(es), untraced %d; traced wall %.4f s per pass"
        % (runs, len(plain), traced_wall / runs)
    ]
    lines += ["%-32s %14.6f %s" % (k, v, u) for k, (v, u) in metrics.items()]
    ledger = sum(tracer.self_s.values()) / runs
    lines.append(
        "ledger: layer self times plus unattributed = %.4f s per pass" % ledger
    )
    if args.workload == "table2-pool":
        lines.append(
            "note: pool workers are separate processes; their layer times are "
            "invisible here, only the counters merged back into the parent count"
        )
    lines += report_lines(passes, nondeterministic)
    result = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return lines, result, attempted, failed, unexpected, nondeterministic


def report_lines(passes, nondeterministic):
    first = passes[0]
    lines = []
    for index, name in sorted(enumerate(first.counters), key=lambda item: item[1]):
        median_ms = statistics.median(p.task_s[index] for p in passes) * 1000
        lines.append(
            "task %-16s %10.1f ms  %-6s counters %s %s"
            % (name, median_ms, first.outcomes[name], first.counters[name], first.details[name])
        )
    lines.append(
        "prover calls per pass: %d"
        % sum(c["prover_calls"] for c in first.counters.values() if c)
    )
    if first.digest is not None:
        lines.append("pass digest %s" % first.digest)
    for name in nondeterministic:
        lines.append("NONDETERMINISM: %s differs between passes" % name)
    return lines


def main(argv=None):
    args = parse_args(argv)
    workloads = load_workloads()
    tasks = workloads.tasks_for(args.workload, args.seed)
    if args.setup_probe:
        return 0
    SCRATCH.mkdir(exist_ok=True)
    # The oracle's cache directories are temporary directories: keep them
    # inside the checkout, and remove whatever is left at the end.
    tempfile.tempdir = tempfile.mkdtemp(prefix="perfbench-", dir=SCRATCH)
    try:
        mode = traced if args.trace else untraced
        lines, metrics, attempted, failed, unexpected, nondeterministic = mode(
            args, tasks, workloads.PASS_DIGEST.get(args.workload)
        )
    finally:
        for child in multiprocessing.active_children():
            child.terminate()
            child.join()
        shutil.rmtree(tempfile.tempdir, ignore_errors=True)
    print("workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
    for line in lines:
        print(line)
    for name in unexpected:
        print("UNEXPECTED FAILURE: %s" % name)
    print(
        json.dumps(
            {
                "correct": not unexpected and not nondeterministic,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
