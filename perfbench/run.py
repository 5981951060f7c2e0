"""superhc benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload verify-cold --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see workloads.py and BENCHMARK.json for why each
exists): verify-cold, invariants-deep, gamma-session.  ``all`` runs each in
its own process, one after the other, and prints one table.

--trace 0 measures, with no shims installed:
  setup_s       median over SETUP_PROBES fresh processes of the seconds from
                process start until the first job can be sent
  wall_s        median over passes of the seconds spent in the pass's jobs
                (a pass is the whole job list); passes repeat while another
                one fits in --seconds, and at least one runs
  job_s.p50     median seconds per job over every job run
  job_s.tail    seconds per job at the highest percentile with at least ten
                of a pass's jobs beyond it, median over passes (the report
                gives the percentile and the jobs per pass)
  peak_rss_mib  high-water resident set of this process
  fail_share    failed jobs over attempted jobs (printed in the report, and
                as `failed`/`attempted` in the last line)
Every time is calibrated against the machine's speed of the moment; see
Speed.  The report also keeps the raw seconds.

--trace 1 runs TRACE_PASSES[workload] passes untraced and then the same
passes, with a freshly set-up workload, under the shims of tracing.py.  It
ignores --seconds so that its counts repeat exactly, checks that both halves
produce the same bytes, and reports the per-layer metrics plus
trace.overhead_ratio (traced over untraced job seconds).  Spans are written to
perfbench/out/ when the run ends.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it is the full report with provenance, also written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PREDICTIONS = HERE / "predictions.json"

SETUP_PROBES = 5
CALIB_EVERY_S = 0.25
# median calibration-loop time on the machine where the bounds were set
# (Intel Xeon, 2 cores, Python 3.11.7)
CALIB_REF_S = 0.02
TRACE_PASSES = {"verify-cold": 1, "invariants-deep": 1, "gamma-session": 2}
TAIL_BEYOND = 10


class SetupError(Exception):
    pass


def import_package():
    """Import superhc from this checkout's src/, never from elsewhere."""
    if not (SRC / "superhc" / "__init__.py").is_file():
        raise SetupError(f"no superhc package under {SRC}; run from the root "
                         "of a superhc source checkout")
    sys.path.insert(0, str(SRC))
    import superhc
    import superhc.cli  # noqa: F401  (the CLI workloads' entry point)
    if Path(superhc.__file__).resolve().parent != SRC / "superhc":
        raise SetupError(f"imported superhc from {superhc.__file__}, not {SRC}")
    return superhc


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "superhc").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _commit():
    """HEAD's commit, from the loose ref or .git/packed-refs; None outside
    a git checkout."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == name:
                return parts[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(workload: str, seed: int, jobs, workloads_mod) -> dict:
    why = None
    try:
        for row in workloads_mod.load_json(ROOT / "BENCHMARK.json")["workloads"]:
            if row["name"] == workload:
                why = row["why"]
    except (OSError, ValueError, KeyError):
        pass
    predictions = workloads_mod.load_json(PREDICTIONS)
    return {
        "workload": workload, "why": why, "seed": seed,
        "jobs_per_pass": len(jobs),
        "job_list_sha256": workloads_mod.job_list_sha256(jobs),
        "commit": _commit(), "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "predictions": [p for p in predictions["predictions"]
                        if p["workload"] == workload],
    }


# -- statistics ----------------------------------------------------------------

def tail(samples):
    """(percentile, value): the highest whole percentile, nearest rank, with
    at least TAIL_BEYOND samples above it; the maximum if there are too few."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1]
    return 100, xs[-1]


def pass_tail(passes):
    """(percentile, value): tail() of each pass, whose percentile is set by
    the length of the job list, and the median over passes, so that how
    many passes fit in --seconds moves neither."""
    tails = [tail(p) for p in passes]
    return tails[0][0], statistics.median(value for _, value in tails)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _calibration_work():
    # exact rational arithmetic into a dict, like superhc's inner loops,
    # but no superhc code, so no change to the program can move it
    acc = {}
    x = Fraction(0)
    for i in range(1, 4000):
        x += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
        acc[(i % 50, i % 7)] = x
    return acc


class Speed:
    """Machine speed, sampled by timing a fixed loop between jobs.

    On a shared machine the speed of the same code drifts by 20% (IQR over
    median) on every time scale from 2 to 25 s, so no run length averages
    it out.  Each timed interval is therefore scaled by CALIB_REF_S over the
    mean of the calibration samples just before and just after it: the
    result is the interval's length on a machine where the loop takes
    CALIB_REF_S.  Over ten runs this cut the spread of wall_s from 0.26 to
    0.07 on verify-cold and from 0.25 to 0.03 on gamma-session (invariants-
    deep stayed near 0.11).  A setup probe is scaled by samples it takes
    itself, right after it is ready.  Raw seconds are kept in the report.
    """

    def __init__(self):
        self.starts, self.ends, self.durs = [], [], []

    def sample(self) -> None:
        t0 = time.perf_counter()
        _calibration_work()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.durs.append(t1 - t0)

    def maybe_sample(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= CALIB_EVERY_S:
            self.sample()

    def spent(self) -> float:
        return sum(self.durs)

    def scale(self, t0: float, t1: float) -> float:
        before = bisect.bisect_right(self.ends, t0) - 1
        after = bisect.bisect_left(self.starts, t1)
        near = [self.durs[i] for i in (before, after)
                if 0 <= i < len(self.durs)]
        return (t1 - t0) * CALIB_REF_S / statistics.fmean(near)


# -- running -------------------------------------------------------------------

class Runner:
    """One workload's setup and passes, with output checks."""

    def __init__(self, workload: str, seed: int, W):
        self.workload = workload
        self.W = W
        self.reference = W.load_json(W.REFERENCE)
        self.expected = W.load_json(W.EXPECTED)
        self.jobs = W.job_list(workload, seed, self.reference)
        self.session = None
        self.tracer = None

    def setup(self) -> None:
        if self.workload == "gamma-session":
            self.session = self.W.Session(self.reference)

    def run_job(self, job):
        if self.session is not None:
            return self.session.run(job)
        return self.W.run_cli(self.W.cli_argv(job))

    def run_pass(self, speed: Speed, failures, outputs=None):
        """Run the job list once and return each job's (start, end).

        A job that raises or whose output is wrong is counted in failures;
        it never stops the pass.
        """
        cli = self.session is None
        intervals = []
        for job in self.jobs:
            speed.maybe_sample()
            if self.tracer is not None:
                self.tracer.job += 1
            t0 = time.perf_counter()
            try:
                text, code = self.run_job(job)
            except Exception as exc:  # a raising job is a failed job
                text, code = f"{type(exc).__name__}: {exc}", None
            intervals.append((t0, time.perf_counter()))
            if self.tracer is not None:
                self.tracer.end_job(keep_ueas=not cli)
            reason = self.W.check(job, text, code, self.reference,
                                  self.expected) if code is not None else text
            if reason is not None:
                failures.append({"job": self.W.job_key(job), "reason": reason})
            if outputs is not None:
                outputs.append((self.W.job_key(job), self.W.sha256(text), code))
            if cli:
                # each CLI job is a process of its own in real use
                gc.collect()
        speed.sample()
        return intervals


def setup_probe(workload: str, seed: int, W) -> None:
    runner = Runner(workload, seed, W)
    runner.setup()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    # the probe may run on another core than its parent, so it reports
    # the speed of its own core, measured after it is ready
    speed = Speed()
    speed.sample()
    speed.sample()
    sys.stdout.write(f"{statistics.fmean(speed.durs)!r}\n")


def measure_setup(workload: str, seed: int):
    """Raw and calibrated seconds of SETUP_PROBES fresh processes, each from
    its launch until it reports that its first job could be sent."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            workload, "--seed", str(seed), "--setup-probe"]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            calibration = proc.stdout.read()
            code = proc.wait()
        if line.strip() != b"ready" or code != 0:
            raise SetupError(f"setup probe failed (exit {code})")
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * CALIB_REF_S / float(calibration))
    return raw, scaled


def measure(workload: str, seed: int, seconds: float, W) -> tuple:
    raw_setup_s, setup_s = measure_setup(workload, seed)
    speed = Speed()
    runner = Runner(workload, seed, W)
    runner.setup()
    failures, passes = [], []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass(speed, failures))
        raw = [p[-1][1] - p[0][0] for p in passes]
        if time.perf_counter() - start + statistics.median(raw) > seconds:
            break
    scaled = [[speed.scale(*iv) for iv in p] for p in passes]
    jobs = [t for p in scaled for t in p]
    pass_s = [sum(p) for p in scaled]
    pct, tail_value = pass_tail(scaled)
    attempted = len(jobs)
    metrics = {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "wall_s": {"value": statistics.median(pass_s), "unit": "s"},
        "job_s.p50": {"value": statistics.median(jobs), "unit": "s"},
        "job_s.tail": {"value": tail_value, "unit": "s"},
        "peak_rss_mib": {"value": peak_rss_mib(), "unit": "MiB"},
    }
    details = {
        "setup_s_samples": setup_s, "pass_s": pass_s,
        "raw_setup_s": raw_setup_s,
        "raw_pass_s": raw,
        "raw_job_s.p50": statistics.median(b - a for p in passes for a, b in p),
        "calibration_s": {"reference": CALIB_REF_S,
                          "median": statistics.median(speed.durs),
                          "samples": len(speed.durs)},
        "job_samples": attempted, "tail_percentile": pct,
        "fail_share": len(failures) / attempted, "failures": failures[:20],
        "jobs_per_pass": len(runner.jobs),
    }
    return runner, metrics, details, attempted, len(failures)


def measure_traced(workload: str, seed: int, W) -> tuple:
    from tracing import Tracer
    passes = TRACE_PASSES[workload]
    speed = Speed()

    def section(tracer):
        runner = Runner(workload, seed, W)
        runner.tracer = tracer
        failures, outputs, intervals = [], [], []
        spent = speed.spent()
        if tracer is not None:
            tracer.install()
        try:
            runner.setup()
            for _ in range(passes):
                intervals += runner.run_pass(speed, failures, outputs)
        finally:
            if tracer is not None:
                tracer.uninstall()
        busy = sum(speed.scale(*iv) for iv in intervals)
        return runner, busy, speed.spent() - spent, failures, outputs

    runner, plain_busy, _, plain_failures, plain_out = section(None)
    del runner
    gc.collect()
    tracer = Tracer()
    runner, traced_busy, calib_s, failures, traced_out = section(tracer)
    failures = plain_failures + failures
    for plain, traced in zip(plain_out, traced_out):
        if plain != traced:
            failures.append({"job": traced[0],
                             "reason": "traced output differs from untraced"})
    metrics = tracer.metrics(idle_s=calib_s)
    metrics["trace.overhead_ratio"] = {"value": traced_busy / plain_busy,
                                       "unit": "ratio"}
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl.gz"
    tracer.write_spans(spans_path)
    attempted = len(plain_out) + len(traced_out)
    details = {"passes": passes, "untraced_job_s": plain_busy,
               "traced_job_s": traced_busy, "spans_file":
               str(spans_path.relative_to(ROOT)), "failures": failures[:20],
               "fail_share": len(failures) / attempted,
               "jobs_per_pass": len(runner.jobs)}
    return runner, metrics, details, attempted, len(failures)


def print_metrics(workload: str, metrics: dict, details: dict) -> None:
    for name, m in metrics.items():
        value = m["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{workload:16s} {name:32s} {shown:>14s} {m['unit']}")
    print(f"{workload:16s} {'fail_share':32s} {details['fail_share']:>14.6g} "
          "share")
    if "tail_percentile" in details:
        print(f"{workload:16s} job_s.p50 is over {details['job_samples']} "
              f"jobs; wall_s and job_s.tail (p{details['tail_percentile']} of "
              f"a pass) are medians over {len(details['pass_s'])} pass(es) "
              f"of {details['jobs_per_pass']} jobs; setup_s is the median of "
              f"{len(details['setup_s_samples'])} probes")


def run_one(args) -> int:
    import_package()
    import workloads as W
    if args.setup_probe:
        setup_probe(args.workload, args.seed, W)
        return 0
    if args.trace:
        runner, metrics, details, attempted, failed = measure_traced(
            args.workload, args.seed, W)
    else:
        runner, metrics, details, attempted, failed = measure(
            args.workload, args.seed, args.seconds, W)
    report = {"provenance": provenance(args.workload, args.seed, runner.jobs, W),
              "seconds": args.seconds, "trace": args.trace,
              "metrics": metrics, "details": details}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print_metrics(args.workload, metrics, details)
    print(json.dumps(report, separators=(",", ":")))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    import workloads as W
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in W.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
                workload, "--seed", str(args.seed), "--seconds",
                str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, cwd=ROOT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(f"{workload}: exit {proc.returncode}\n")
            return proc.returncode
        lines = proc.stdout.splitlines()
        rows.extend(lines[:-2])
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = m
    print("\n".join(rows))
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify-cold", "invariants-deep",
                                 "gamma-session", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except SetupError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
