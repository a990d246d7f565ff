"""yosp benchmark: run one workload, check every output, print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory.  The workload is a closed loop with one client in one
process and one thread.  Set-up imports yosp and builds the inputs the jobs
only read; it runs five times and setup_s is the median.
Then passes over the job list run back to back while the next pass is
expected to end within --seconds (at least one pass).

--trace 0 prints the end-to-end metrics; each time is the median over the
passes.  --trace 1 runs the same untraced passes, then one more pass with
every layer function wrapped (layers.py), and prints the per-layer metrics
from that pass; trace_overhead_frac compares it with the untraced median.
The spans are written to .perfbench_out/ at the end.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
A job fails when it raises unexpectedly or its outcome differs from
reference.json; failed_frac counts those against the jobs attempted.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5

# (metric name, unit) reported by --trace 0, as in BENCHMARK.json.
END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
# Printed as well, but not bounded in BENCHMARK.json: failed_frac is 0 on a
# correct program, entries_checked_per_s exists where a workload verifies,
# and job_max_s times a single job once per pass, so on a shared 2-vCPU VM
# its run-to-run spread exceeds any bound the benchmark may set.
EXTRA = [("job_max_s", "s"), ("entries_checked_per_s", "entries/s"),
         ("failed_frac", "fraction")]


def load_reference(workload):
    """Expected outcome per job name, recorded from yosp 0.1.0."""
    with open(HERE / "reference.json") as fh:
        return json.load(fh)[workload]


def set_up(workload, seed, tmpdir):
    """Import yosp afresh and build the workload's inputs.

    Dropping yosp (and workloads, which binds it) from sys.modules makes
    each repetition pay the package's import again.  Returns (jobs, seconds).
    """
    for name in list(sys.modules):
        if name in ("yosp", "workloads") or name.startswith("yosp."):
            del sys.modules[name]
    t0 = time.perf_counter()
    workloads = importlib.import_module("workloads")
    jobs = workloads.build(workload, seed, tmpdir)
    return jobs, time.perf_counter() - t0


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed):
    from yosp.exact_arith import Scalar
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "scalar_backend": f"{Scalar.__module__}.{Scalar.__qualname__}",
            "loadavg_start": list(os.getloadavg()),
            "commit": git_commit(),
            "seed": seed}


class Runner:
    """Runs passes over a job list and compares outcomes with the reference."""

    def __init__(self, jobs, reference):
        self.jobs = jobs
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def run_pass(self, tracer=None):
        """One pass; returns per-job (wall, cpu) and the entries checked."""
        times = []
        entries = 0
        for job in self.jobs:
            call = job.call if tracer is None else tracer.wrap(job.call,
                                                               "job:" + job.name)
            if tracer is not None:
                tracer.active = True
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                result, error = call(), None
            except Exception as exc:
                result, error = None, exc
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            if tracer is not None:
                tracer.active = False
            times.append((wall, cpu))
            outcome = self._outcome(job, result, error)
            if isinstance(outcome, dict):
                entries += outcome.get("entries_checked", 0)
        return times, entries

    def _outcome(self, job, result, error):
        self.attempted += 1
        if error is not None:
            outcome = {"raised": type(error).__name__}
        else:
            try:
                outcome = job.check(result)
            except Exception as exc:
                outcome = {"check_raised": f"{type(exc).__name__}: {exc}"}
        want = self.reference.get(job.name)
        ok = want is not None and outcome == want
        if isinstance(outcome, dict) and outcome.get("entries_checked") == 0:
            ok = False
        if not ok:
            self.failed += 1
            print(f"FAILED {job.name}: got {json.dumps(outcome)}, "
                  f"want {json.dumps(want)}", file=sys.stderr)
        return outcome

    def run_for(self, seconds):
        """Passes while the next one is expected to end within seconds."""
        passes = []
        start = time.perf_counter()
        while True:
            p0 = time.perf_counter()
            passes.append(self.run_pass())
            now = time.perf_counter()
            if (now - start) + (now - p0) > seconds:
                return passes


def end_to_end(passes, setup_s):
    walls = [sum(w for w, _ in times) for times, _ in passes]
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(sum(c for _, c in times) for times, _ in passes),
        "job_max_s": statistics.median(max(w for w, _ in times)
                                       for times, _ in passes),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "entries_checked_per_s": statistics.median(
            e / w for (_, e), w in zip(passes, walls)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "yosp" / "__init__.py").is_file():
        print(f"error: no yosp package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    if Path(sys.modules["yosp"].__file__).resolve().parent != src / "yosp":
        print(f"error: yosp was not imported from {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_out"
    tmpdir = out_dir / f"tmp-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            jobs, seconds = set_up(args.workload, args.seed, str(tmpdir))
            setup_times.append(seconds)
        setup_s = statistics.median(setup_times)
        import layers  # after the last set-up, so it wraps the live modules
        from tracer import Tracer
        env = environment(args.seed)
        print("env " + json.dumps(env))
        runner = Runner(jobs, load_reference(args.workload))
        passes = runner.run_for(args.seconds)
        values = end_to_end(passes, setup_s)
        values["failed_frac"] = runner.failed / runner.attempted
        names = END_TO_END + EXTRA
        if args.trace:
            tracer = Tracer()
            layers.install(tracer)
            try:
                times, _ = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            traced_wall = sum(w for w, _ in times)
            values = layers.metrics(tracer, traced_wall, values["wall_s"],
                                    args.seed)
            names = layers.PER_LAYER
            tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv",
                         header=json.dumps(env))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    print(f"workload {args.workload}: {len(passes)} untraced pass(es) of "
          f"{len(jobs)} jobs, trace {args.trace}")
    for name, unit in names:
        if name == "entries_checked_per_s" and not values[name]:
            continue  # the workload ran no verifier
        print(f"metric {name} = {values[name]} {unit}")
    reported = layers.PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
