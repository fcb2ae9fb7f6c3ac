"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import main


PARTITION_C = r"""
typedef struct cell { int val; struct cell *next; } *list;
list partition(list *l, int v) {
    list curr, prev, newl, nextcurr;
    curr = *l; prev = NULL; newl = NULL;
    while (curr != NULL) {
        nextcurr = curr->next;
        if (curr->val > v) {
            if (prev != NULL) { prev->next = nextcurr; }
            if (curr == *l) { *l = nextcurr; }
            curr->next = newl;
L:          newl = curr;
        } else { prev = curr; }
        curr = nextcurr;
    }
    return newl;
}
"""

PARTITION_PREDS = """
partition
curr == NULL, prev == NULL, curr->val > v, prev->val > v
"""


@pytest.fixture
def partition_files(tmp_path):
    c_file = tmp_path / "partition.c"
    c_file.write_text(PARTITION_C)
    pred_file = tmp_path / "partition.preds"
    pred_file.write_text(PARTITION_PREDS)
    return str(c_file), str(pred_file)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_abstract_prints_boolean_program(partition_files):
    c_file, pred_file = partition_files
    code, output = run_cli(["abstract", c_file, pred_file])
    assert code == 0
    assert "void partition()" in output
    assert "{curr==0}" in output
    assert "theorem prover calls" in output


def test_check_prints_invariant(partition_files):
    c_file, pred_file = partition_files
    code, output = run_cli(
        ["check", c_file, pred_file, "--entry", "partition", "--label", "L"]
    )
    assert code == 0
    assert "{curr->val>v}" in output
    assert "all asserts discharged" in output


def test_check_reports_undischarged_asserts(tmp_path):
    c_file = tmp_path / "bad.c"
    c_file.write_text("void main(void) { int x; x = 0; assert(x > 0); }")
    pred_file = tmp_path / "bad.preds"
    pred_file.write_text("main\nx > 0\n")
    code, output = run_cli(["check", str(c_file), str(pred_file)])
    assert code == 1
    assert "not discharged" in output


def test_slam_safe_driver(tmp_path):
    c_file = tmp_path / "drv.c"
    c_file.write_text(
        "void main(void) { KeAcquireSpinLock(); KeReleaseSpinLock(); }"
    )
    code, output = run_cli(
        ["slam", str(c_file), "--lock", "KeAcquireSpinLock", "KeReleaseSpinLock"]
    )
    assert code == 0
    assert "verdict: safe" in output


def test_slam_unsafe_driver_prints_trace(tmp_path):
    c_file = tmp_path / "drv.c"
    c_file.write_text("void main(void) { KeReleaseSpinLock(); }")
    code, output = run_cli(
        ["slam", str(c_file), "--lock", "KeAcquireSpinLock", "KeReleaseSpinLock"]
    )
    assert code == 1
    assert "verdict: unsafe" in output
    assert "error trace" in output


def test_slam_requires_property(tmp_path):
    c_file = tmp_path / "drv.c"
    c_file.write_text("void main(void) { }")
    code, output = run_cli(["slam", str(c_file)])
    assert code == 2


def test_replay_reports_sound(tmp_path):
    c_file = tmp_path / "p.c"
    c_file.write_text("void main(int x) { int y; if (x > 0) { y = 1; } else { y = 2; } }")
    pred_file = tmp_path / "p.preds"
    pred_file.write_text("main\nx > 0, y == 1\n")
    code, output = run_cli(
        ["replay", str(c_file), str(pred_file), "--args", "5"]
    )
    assert code == 0
    assert "replays soundly" in output


def test_bebop_subcommand(tmp_path):
    bp_file = tmp_path / "prog.bp"
    bp_file.write_text(
        """
        void main() {
            decl a;
            a = 1;
            L: skip;
            assert(a);
        }
        """
    )
    code, output = run_cli(["bebop", str(bp_file), "--label", "L"])
    assert code == 0
    assert "no assertion failure" in output


def test_bebop_subcommand_error(tmp_path):
    bp_file = tmp_path / "prog.bp"
    bp_file.write_text("void main() { decl a; a = 0; assert(a); }")
    code, output = run_cli(["bebop", str(bp_file)])
    assert code == 1


def test_abstract_with_option_flags(partition_files):
    c_file, pred_file = partition_files
    code, output = run_cli(
        ["abstract", c_file, pred_file, "--max-cube-length", "2", "--no-cone"]
    )
    assert code == 0
    assert "void partition()" in output


def test_abstract_with_all_ablation_flags(partition_files):
    c_file, pred_file = partition_files
    code, output = run_cli(
        [
            "abstract", c_file, pred_file,
            "--max-cube-length", "2",
            "--no-cone",
            "--no-skip-unchanged",
            "--no-syntactic-heuristics",
            "--no-prover-cache",
            "--distribute-f",
            "--no-enforce",
            "--enforce-cube-length", "2",
            "--no-alias",
            "--no-invalidate-derefs",
        ]
    )
    assert code == 0
    assert "void partition()" in output


def test_slam_stats_and_trace_json(tmp_path):
    c_file = tmp_path / "drv.c"
    c_file.write_text(
        "void main(void) { KeAcquireSpinLock(); KeReleaseSpinLock(); }"
    )
    stats_file = tmp_path / "stats.json"
    trace_file = tmp_path / "trace.json"
    code, output = run_cli(
        [
            "slam", str(c_file),
            "--lock", "KeAcquireSpinLock", "KeReleaseSpinLock",
            "--stats-json", str(stats_file),
            "--trace-json", str(trace_file),
        ]
    )
    assert code == 0
    assert "answered from cache" in output
    stats = json.loads(stats_file.read_text())
    assert stats["cegar"]["verdict"] == "safe"
    assert stats["iterations"], "per-iteration records should be present"
    first = stats["iterations"][0]
    for field in ("iteration", "prover_calls", "prover_queries", "cache_hits",
                  "seconds", "modref_summary_hits"):
        assert field in first
    # The run-wide analysis section mirrors the AnalysisStats counters.
    analysis = stats["analysis"]
    for field in ("modref_summary_hits", "c2bp_stmts_reused",
                  "c2bp_stmts_retranslated"):
        assert field in analysis
    assert analysis["modref_touch_queries"] > 0
    assert stats["phases"]["c2bp"]["count"] >= 1
    assert stats["prover"]["calls"] == stats["cegar"]["total_prover_calls"]
    trace = json.loads(trace_file.read_text())
    kinds = {event["kind"] for event in trace["events"]}
    assert "phase-start" in kinds and "prover-query" in kinds


def test_check_stats_json(partition_files, tmp_path):
    c_file, pred_file = partition_files
    stats_file = tmp_path / "stats.json"
    code, _output = run_cli(
        ["check", c_file, pred_file, "--entry", "partition",
         "--stats-json", str(stats_file)]
    )
    assert code == 0
    stats = json.loads(stats_file.read_text())
    assert stats["c2bp"]["prover_calls"] > 0
    assert "bebop" in stats and stats["bebop"]["worklist_steps"] > 0
