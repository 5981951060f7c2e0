"""The benchmark's own tests (not part of the package's tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

run.import_package()

# small job lists, so a traced run takes seconds
SMALL = {
    "verify-cold": [("verify", "rank1-iso-q1", 3, 0),
                    ("verify", "group-gl12", 2, 1),
                    ("verify", "rank1-aniso-q1", 3, 2)],
    "invariants-deep": [("invariants", "rank1-iso-q1", 4),
                        ("invariants", "group-sl2", 4)],
}

SMALL_RUN_SCRIPT = """
import sys
sys.path.insert(0, {here!r})
import run, workloads as W
small = {small!r}
full = W.job_list
W.job_list = lambda workload, seed, ref: small.get(workload) or \\
    [j for j in full(workload, seed, ref) if j[0] != "gamma_of_sym"][:60]
sys.exit(run.main(["--workload", {workload!r}, "--seed", "3",
                   "--seconds", "1", "--trace", "1"]))
"""


def traced_run(workload: str) -> dict:
    code = SMALL_RUN_SCRIPT.format(here=str(HERE), small=SMALL,
                                   workload=workload)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = traced_run(workload), traced_run(workload)
    for result in (first, second):
        # `correct` also covers: traced outputs equal the untraced ones
        assert result["correct"] and result["failed"] == 0
    counts = {k: m["value"] for k, m in first["metrics"].items()
              if m["unit"] == "count" and k != "trace.spans"}
    assert "pbw.straighten_calls" in counts
    assert "linalg.nullspace_cells_max" in counts
    assert counts == {k: second["metrics"][k]["value"] for k in counts}


def test_memo_counters_absent_without_private_memo():
    tracer = tracing.Tracer()
    tracer.installed_hooks = {"straighten", "uea_init"}
    straighten = tracer._straighten_wrapper(lambda uea, word, strategy: {})
    no_memo = object()
    straighten(no_memo, iter([1, 0]))
    tracer.live_ueas.append(no_memo)
    tracer.end_job(keep_ueas=False)
    metrics = tracer.metrics()
    assert metrics["pbw.straighten_calls"]["value"] == 1
    for key in ("pbw.memo_hits", "pbw.memo_hit_ratio", "pbw.memo_entries_max"):
        assert key not in metrics


def test_missing_target_is_skipped(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [
        ("superhc.pbw", "UEA.no_such_method", "pbw.ghost", None),
        ("superhc.no_such_module", "f", "ghost.f", None)])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert "pbw.ghost_s" not in tracer.metrics()


def test_uninstall_restores_every_binding():
    import superhc.catalog
    import superhc.linalg
    before = (superhc.linalg.nullspace, superhc.catalog.matrix_rank,
              superhc.pbw.UEA.multiply)
    tracer = tracing.Tracer()
    tracer.install()
    assert superhc.linalg.nullspace is not before[0]
    tracer.uninstall()
    assert (superhc.linalg.nullspace, superhc.catalog.matrix_rank,
            superhc.pbw.UEA.multiply) == before


def test_self_times_are_nonnegative_and_fit_in_wall():
    runner = run.Runner("invariants-deep", 0, W)
    runner.jobs = SMALL["invariants-deep"]
    runner.tracer = tracing.Tracer()
    speed = run.Speed()
    t0 = time.perf_counter()
    runner.tracer.install()
    try:
        intervals = runner.run_pass(speed, [])
    finally:
        runner.tracer.uninstall()
    outer = time.perf_counter() - t0 - speed.spent()
    metrics = runner.tracer.metrics(idle_s=speed.spent())
    wall = metrics["trace.wall_s"]["value"]
    # a span counted twice would make some self time or the unattributed
    # rest negative
    for key, m in metrics.items():
        if key.endswith("_s"):
            assert m["value"] >= 0, key
    assert metrics["harish.invariants_s"]["value"] > 0
    assert sum(b - a for a, b in intervals) <= wall <= outer


def test_failed_job_is_counted_and_run_continues():
    runner = run.Runner("verify-cold", 0, W)
    runner.jobs = SMALL["verify-cold"]
    key = W.job_key(runner.jobs[0][1:])
    runner.reference["verify"][key] = dict(runner.reference["verify"][key],
                                           sha256="0" * 64)
    runner.jobs = runner.jobs + [("verify", "no-such-entry", 3, 0)]
    failures = []
    intervals = runner.run_pass(run.Speed(), failures)
    assert len(intervals) == len(runner.jobs)
    assert [f["job"] for f in failures] == [
        W.job_key(runner.jobs[0]), "verify:no-such-entry:3:0"]


def test_job_lists_are_seeded():
    ref = W.load_json(W.REFERENCE)
    for workload in W.WORKLOADS:
        a, b = W.job_list(workload, 7, ref), W.job_list(workload, 7, ref)
        assert a == b and a != W.job_list(workload, 8, ref)
    cold = [W.job_list("verify-cold", s, ref) for s in (1, 2)]
    assert Counter(cold[0]) == Counter(cold[1])


def test_tail_percentile_keeps_ten_beyond_in_a_pass():
    assert run.tail(range(1, 31)) == (66, 20)
    assert run.tail(range(1, 1001)) == (99, 990)
    assert run.tail(range(5)) == (100, 4)
    # a second pass that fits in --seconds must not move the percentile
    one_pass = [list(range(1, 31))]
    assert run.pass_tail(one_pass) == (66, 20)
    assert run.pass_tail(one_pass * 2) == run.pass_tail(one_pass)
    assert run.pass_tail([list(range(1, 31)), list(range(3, 33))]) == (66, 21)


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
