"""pertwave benchmark runner.

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: pertwave is imported from ./src and
nowhere else.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones (set-up time, peak memory, work per second); with
--trace 1 they are the per-layer calls, self times and counts of a traced
replay of a fixed number of rounds.  Everything else the run measured,
with the machine record, goes to .perfbench_out/ and to the line before.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_RUNS = 3       # fresh interpreters per run; setup_s is their median
PASSES = 3           # timed passes over the same rounds in an untraced run
CHILD_TIMEOUT_S = 120


class ProgramMissing(Exception):
    pass


def load_program():
    """Import pertwave from this checkout's src/ and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import pertwave
    except ImportError as exc:
        raise ProgramMissing(f"cannot import pertwave from {src}: {exc}") from exc
    where = Path(pertwave.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ProgramMissing(f"pertwave was imported from {where}, not from {src}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up the workload in a fresh interpreter and exit "
                             "(used to measure setup_s)")
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT, prefix=f"work-{args.workload}-")
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
        wl.warm_up()
        if args.setup_only:
            return 0
        if args.trace:
            return traced_run(args, wl)
        return untraced_run(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- passes -----------------------------------------------------------------------


class PassResult:
    def __init__(self):
        # (kind, run seconds, counts toward the rate, work credited, midpoint time)
        self.tasks = []
        self.max_err = {}     # task kind -> largest checked error
        self.failures = []    # (kind, message)
        self.exit_mismatch = 0
        self.rounds = 0
        self.wall_s = 0.0

    @property
    def attempted(self):
        return len(self.tasks)

    @property
    def run_s(self):
        return sum(task[1] for task in self.tasks)

    def fail(self, task, message, exit_mismatch=False):
        self.failures.append((task.kind, message))
        self.exit_mismatch += exit_mismatch


def run_pass(wl, tracer=None, seconds=None, rounds=None, speed=None):
    """Prelude, then whole rounds until `rounds` are done or `seconds` have passed.

    With `speed`, the host's speed is probed between tasks (untimed) and
    `seconds` counts program time at the reference speed, so that a pass
    does the same amount of work, and the same mix, on a slow host as on a
    fast one.  A timed pass ends on a whole cycle of rounds.
    """
    import checks

    wl.start_pass(tracer)
    res = PassResult()
    start = perf_counter()
    spent = 0.0  # program time so far, at the reference speed when probing

    def execute(task):
        nonlocal spent
        if tracer is not None:
            tracer.item = res.attempted
        if speed is not None:
            speed.maybe_probe()
        t0 = perf_counter()
        try:
            out = task.run()
        except Exception as exc:  # a failed item never aborts the run
            t1 = perf_counter()
            spent += (t1 - t0) if speed is None else speed.correct(t1 - t0)
            res.tasks.append((task.kind, t1 - t0, task.busy, 0, 0.5 * (t0 + t1)))
            # an exception out of cli.main is a traceback where an exit code was due
            res.fail(task, f"{type(exc).__name__}: {exc}", exit_mismatch=task.kind == "cmd")
            return
        t1 = perf_counter()
        spent += (t1 - t0) if speed is None else speed.correct(t1 - t0)
        try:
            err = task.check(out)
        except checks.ExitMismatch as exc:
            res.fail(task, f"ExitMismatch: {exc}", exit_mismatch=True)
            work = 0
        except Exception as exc:
            res.fail(task, f"{type(exc).__name__}: {exc}")
            work = 0
        else:
            work = task.work
            if err is not None:
                res.max_err[task.kind] = max(err, res.max_err.get(task.kind, 0.0))
        res.tasks.append((task.kind, t1 - t0, task.busy, work, 0.5 * (t0 + t1)))

    for task in wl.prelude():
        execute(task)
    while rounds is None or res.rounds < rounds:
        for task in wl.round(res.rounds):
            execute(task)
        res.rounds += 1
        if seconds is not None and res.rounds % wl.cycle == 0 and spent >= seconds:
            break
    if speed is not None:
        speed.probe()
    res.wall_s = perf_counter() - start
    return res


def median_of(passes, scale=lambda seconds, at: seconds):
    """Per task, the median (scaled) time over passes that ran the same rounds.

    Work is credited only when the task passed its check in every pass.
    Returns (kind, seconds, counts toward the rate, work) per task.
    """
    if len({len(p.tasks) for p in passes}) != 1:
        raise RuntimeError("passes over the same rounds ran different tasks")
    return [(runs[0][0], statistics.median(scale(r[1], r[4]) for r in runs), runs[0][2],
             min(r[3] for r in runs))
            for runs in zip(*(p.tasks for p in passes))]


def details(wl, tasks, passes):
    """Per-workload figures (rate, latency percentiles, errors) and failure shares."""
    p = wl.prefix
    work = sum(t[3] for t in tasks)
    busy = sum(t[1] for t in tasks if t[2])
    attempted = sum(q.attempted for q in passes)
    failed = sum(len(q.failures) for q in passes)
    out = {
        f"{p}.{wl.unit}s_per_s": work / busy if busy else None,
        "fail_frac": failed / attempted if attempted else None,
        "attempted": attempted,
        "failed": failed,
        "passes": len(passes),
        "rounds": passes[0].rounds,
        "busy_s": busy,
        "wall_s": [q.wall_s for q in passes],
        "work": work,
    }
    latency = defaultdict(list)
    for kind, seconds, *_ in tasks:
        latency[kind].append(1e3 * seconds)
    for kind, ms in sorted(latency.items()):
        out[f"{p}.{kind}_ms.n"] = len(ms)
        out[f"{p}.{kind}_ms.p50"] = statistics.median(ms)
        if len(ms) >= 100:  # p90 only with at least ten samples beyond it
            out[f"{p}.{kind}_ms.p90"] = statistics.quantiles(ms, n=10)[-1]
    for q in passes:
        for kind, err in q.max_err.items():
            out[f"{p}.{kind}.max_err"] = max(err, out.get(f"{p}.{kind}.max_err", 0.0))
    return out


# -- runs -------------------------------------------------------------------------


def measure_setup(args, speed):
    """Wall times of fresh interpreters that import pertwave and set the workload up.

    Returns (samples corrected to the reference host speed, raw samples).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    raw = []
    for _ in range(SETUP_RUNS):
        speed.probe()
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        raw.append((perf_counter() - t0, 0.5 * (t0 + perf_counter())))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed ({proc.returncode}): {proc.stderr.strip()}")
    speed.probe()
    scale = speed.scaler()
    return [scale(s, at) for s, at in raw], [s for s, _ in raw]


def untraced_run(args, wl):
    """Timed passes over the same rounds; each task counts with its median time.

    The first pass runs whole rounds for a third of --seconds (program time
    at the reference host speed), the other two replay them.  Each task time
    is corrected for the host's speed at that moment (see speed.py), and the
    task counts with the median of its three corrected times, so that
    neither a burst the correction misses nor one it over-corrects sets an
    item's time.  Probes with a fixed number of rounds run a single pass.
    """
    from speed import Speed

    speed = Speed()
    setup, setup_raw = measure_setup(args, speed)
    if wl.fixed_rounds is not None:
        passes = [run_pass(wl, rounds=wl.fixed_rounds, speed=speed)]
    else:
        passes = [run_pass(wl, seconds=args.seconds / PASSES, speed=speed)]
        passes += [run_pass(wl, rounds=passes[0].rounds, speed=speed)
                   for _ in range(PASSES - 1)]
    tasks = median_of(passes, speed.scaler())
    work = sum(t[3] for t in tasks)
    busy = sum(t[1] for t in tasks if t[2])
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "items_per_s": (work / busy if busy else 0.0, "1/s"),
    }
    extra = details(wl, tasks, passes)
    raw = median_of(passes)
    extra["items_per_s.uncorrected"] = work / sum(t[1] for t in raw if t[2]) if busy else None
    extra["host_speed"] = speed.summary()
    extra["setup_s.uncorrected"] = setup_raw
    return finish(args, wl, metrics, extra, extra["attempted"],
                  [f for q in passes for f in q.failures])


def traced_run(args, wl):
    """Replay a fixed number of rounds untraced, traced, and untraced again.

    The layers come from the traced pass; the tracing overhead is its run
    time minus the mean of the two untraced passes around it, which cancels
    drift in the machine's speed over the run.
    """
    import tracing

    before = run_pass(wl, rounds=wl.trace_rounds)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        traced = run_pass(wl, tracer, rounds=wl.trace_rounds)
    finally:
        tracing.uninstall(undo)
    after = run_pass(wl, rounds=wl.trace_rounds)
    plain_s = 0.5 * (before.run_s + after.run_s)
    tracer.count("cli.exit_mismatch", traced.exit_mismatch)
    metrics = tracing.layer_metrics(tracer)
    overhead = traced.run_s - plain_s
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / plain_s if plain_s else 0.0, "ratio")
    metrics["trace.spans"] = (len(tracer.spans) + tracer.dropped, "count")
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    extra = details(wl, traced.tasks, [traced])
    extra["untraced_run_s"] = [before.run_s, after.run_s]
    extra["traced_run_s"] = traced.run_s
    extra["spans_file"] = str(spans_path.relative_to(ROOT))
    passes = (before, traced, after)
    return finish(args, wl, metrics, extra, sum(p.attempted for p in passes),
                  [f for p in passes for f in p.failures])


def finish(args, wl, metrics, extra, attempted, failures):
    env = environment()
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": extra,
        "failures": [{"kind": k, "message": m} for k, m in failures[:50]],
    }
    path = OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    summary = {"environment": env, "details": extra,
               "failures": record["failures"][:5], "result_file": str(path.relative_to(ROOT))}
    print("perfbench " + json.dumps(summary))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "thread_pin": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


if __name__ == "__main__":
    sys.exit(main())
