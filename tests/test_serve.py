"""Integration tests for verification-as-a-service.

Three layers:

- **warm vs cold** — the same abstraction run against a ``--cache-dir``
  twice must print identical boolean programs, and the warm run must be
  answered from the store (no fresh prover calls);
- **worker pool + store** — a ``--jobs 2`` run with a cache directory
  follows the read-only-worker/write-through-parent discipline: workers'
  hit/miss deltas are merged into the parent store's counters, and only
  the parent writes records;
- **the daemon** — ``repro serve`` round trip over a unix socket:
  batched requests, control ops, ``--remote`` output identical to a
  local run, clean shutdown with no orphan socket or process.
"""

import io
import json
import os
import subprocess
import sys
import time

import pytest

from repro.cli import main as cli_main
from repro.core import C2bp, C2bpOptions, parse_predicate_file
from repro.cfront import parse_c_program
from repro.engine import EngineContext
from repro.boolprog.printer import print_bool_program
from repro.programs import get_program

_SRC_ROOT = os.path.join(os.path.dirname(__file__), "..", "src")


def _run_cli(argv):
    out = io.StringIO()
    code = cli_main(argv, out=out)
    return code, out.getvalue()


def _bp_body(output):
    """CLI ``abstract`` output without the stats trailer comment (the
    prover-call count and wall-clock seconds legitimately differ between
    cold and warm runs; the program text must not)."""
    return "\n".join(
        line for line in output.splitlines() if not line.startswith("// ")
    )


@pytest.fixture
def study_files(tmp_path):
    study = get_program("partition")
    c_file = tmp_path / "p.c"
    c_file.write_text(study.source)
    pred_file = tmp_path / "p.preds"
    pred_file.write_text(study.predicate_text)
    return study, str(c_file), str(pred_file)


# -- warm vs cold ----------------------------------------------------------


def test_warm_vs_cold_smoke(study_files, tmp_path):
    _, c_file, pred_file = study_files
    cache_dir = str(tmp_path / "cache")
    outputs = []
    snapshots = []
    for run in ("cold", "warm"):
        stats_file = str(tmp_path / ("stats-%s.json" % run))
        code, output = _run_cli(
            ["abstract", c_file, pred_file, "--cache-dir", cache_dir,
             "--stats-json", stats_file]
        )
        assert code == 0
        outputs.append(output)
        snapshots.append(json.load(open(stats_file)))
    assert _bp_body(outputs[0]) == _bp_body(outputs[1])
    cold, warm = snapshots
    assert cold["persistent_cache"]["writes"] > 0
    warm_store = warm["persistent_cache"]
    total = warm_store["hits"] + warm_store["misses"]
    assert warm_store["hits"] / total >= 0.95, warm_store
    assert warm["prover"]["calls"] == 0, "warm run must not call the prover"


def test_no_persistent_cache_flag_disables_store(study_files, tmp_path):
    _, c_file, pred_file = study_files
    cache_dir = str(tmp_path / "cache")
    stats_file = str(tmp_path / "stats.json")
    code, _ = _run_cli(
        ["abstract", c_file, pred_file, "--cache-dir", cache_dir,
         "--no-persistent-cache", "--stats-json", stats_file]
    )
    assert code == 0
    stats = json.load(open(stats_file))
    assert "persistent_cache" not in stats
    assert not os.path.exists(cache_dir)


def test_stats_json_schema(study_files, tmp_path):
    _, c_file, pred_file = study_files
    stats_file = str(tmp_path / "stats.json")
    code, _ = _run_cli(
        ["abstract", c_file, pred_file, "--cache-dir",
         str(tmp_path / "cache"), "--stats-json", stats_file]
    )
    assert code == 0
    stats = json.load(open(stats_file))
    assert stats["schema_version"] == 4
    store = stats["persistent_cache"]
    for field in ("hits", "misses", "writes", "evictions",
                  "cache_corrupt_records", "namespaces", "root"):
        assert field in store, field


# -- worker pool + store lifecycle -----------------------------------------


@pytest.mark.skipif(sys.platform == "win32", reason="needs fork")
def test_pool_and_cache_lifecycle(study_files, tmp_path):
    study, _, _ = study_files
    program = parse_c_program(study.source, name=study.name)
    predicates = parse_predicate_file(study.predicate_text, program)
    baseline_bp = None
    with EngineContext(options=C2bpOptions(jobs=1)) as context:
        baseline_bp = print_bool_program(
            C2bp(program, predicates, context=context).run()
        )
    cache_dir = str(tmp_path / "cache")
    # "requery" turns the cone of influence off: the same bytes on this
    # program, but part of the statement keys' options fingerprint, so
    # every statement misses the statement cache and goes to the workers,
    # whose prover queries then hit the store populated by the cold run.
    for run, overrides in (
        ("cold", {}),
        ("warm", {}),
        ("requery", {"cone_of_influence": False}),
    ):
        options = C2bpOptions(jobs=2, cache_dir=cache_dir, **overrides)
        with EngineContext(options=options) as context:
            printed = print_bool_program(
                C2bp(program, predicates, context=context).run()
            )
            assert printed == baseline_bp, run
            counters = context.store.counters_with_namespaces()
        if run == "cold":
            assert counters["writes"] > 0, "parent must write through"
        elif run == "warm":
            # The parent serves every statement from the store before
            # any task is built.
            assert counters["namespaces"]["c2bp-stmt"]["hits"] > 0, counters
            assert counters["namespaces"]["c2bp-stmt"].get("misses", 0) == 0
        else:
            # Worker hit deltas must be visible in the parent's merged
            # counters (the workers opened the store read-only).
            assert counters["hits"] > 0, counters
            assert counters["write_skips"] >= 0
            assert "prover" in counters["namespaces"]


# -- the daemon ------------------------------------------------------------


def _start_daemon(tmp_path, *extra):
    sock = str(tmp_path / "daemon.sock")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC_ROOT] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock] + list(extra),
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    deadline = time.time() + 20
    while not os.path.exists(sock):
        if proc.poll() is not None or time.time() > deadline:
            proc.kill()
            raise RuntimeError("daemon failed to listen: %s" % proc.stderr.read())
        time.sleep(0.05)
    return proc, sock


def test_serve_round_trip_smoke(tmp_path):
    from repro.serve.client import ServeClient

    study = get_program("partition")
    proc, sock = _start_daemon(tmp_path, "--cache-dir", str(tmp_path / "cache"))
    try:
        with ServeClient.connect_unix(sock, timeout=120) as client:
            assert client.ping()["ok"]
            request = {
                "op": "check",
                "source": study.source,
                "predicates": study.predicate_text,
                "entry": study.entry,
                "name": study.name,
            }
            first, second = client.batch([request, request])
            assert first["ok"] and second["ok"]
            assert first["exit_code"] == 0
            assert first["output"] == second["output"]
            stats = client.stats()
            assert stats["ops"]["check"] == 2
            assert stats["persistent_cache"]["writes"] > 0
            flushed = client.flush()
            assert flushed["ok"] and flushed["entries_dropped"] > 0
            # Unknown and failing ops must not kill the daemon.
            bad = client.request({"op": "no-such-op"})
            assert not bad["ok"]
            broken = client.request(
                {"op": "check", "source": "int main( {", "predicates": ""}
            )
            assert not broken["ok"] and "error" in broken
            assert client.ping()["ok"]
            assert client.shutdown()["ok"]
        assert proc.wait(timeout=15) == 0
        assert not os.path.exists(sock), "socket must be removed on shutdown"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def test_remote_check_is_byte_identical_smoke(tmp_path, study_files):
    study, c_file, pred_file = study_files
    proc, sock = _start_daemon(tmp_path, "--cache-dir", str(tmp_path / "cache"))
    try:
        local_code, local_out = _run_cli(
            ["check", c_file, pred_file, "--entry", study.entry]
        )
        remote_outputs = []
        for _ in range(2):  # second round trip rides the warm caches
            remote_code, remote_out = _run_cli(
                ["check", c_file, pred_file, "--entry", study.entry,
                 "--remote", sock]
            )
            assert remote_code == local_code
            remote_outputs.append(remote_out)
        assert remote_outputs[0] == local_out
        assert remote_outputs[1] == local_out
        from repro.serve.client import ServeClient

        with ServeClient.connect_unix(sock, timeout=30) as client:
            client.shutdown()
        assert proc.wait(timeout=15) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
