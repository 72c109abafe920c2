"""The quadalg benchmark: one workload, closed loop, results checked.

    python3 bench/run.py --workload coh_deep --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. One client runs the workload's job list
back to back in this single-threaded process, until ``--seconds`` have been
spent. Every iteration imports ``quadalg`` afresh from ``src/`` and builds
its inputs anew, because the library's caches fill on first use and users
do not start warm. Every job's result is checked; a job that raises, times
out or returns a wrong result is a failed job.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones. With ``--trace 1`` the run alternates untraced and
traced iterations and the metrics are the per-layer ones: counts and self
times are medians over the traced iterations, job times come from the
untraced ones; the last traced iteration's spans are written to
``.bench_trace/<workload>.jsonl``. The line before it is a report with run
metadata, all end-to-end values of the untraced iterations, the exact size
records of every job and the failures.

Times are in seconds at a reference speed. A fixed reference loop, which
calls nothing in quadalg, runs before the set-up and after every job; each
job's time is divided by the mean of the loops on either side of it, and
``run_s`` is the sum of the jobs' medians over the iterations, times
``REF_S``, the loop's time at the fast speed of a 2-vCPU Intel Xeon.
``cpu_s`` and ``setup_s`` are made the same way. On a shared machine a fixed
loop runs in a fast and a slow mode up to 1.7 times apart, in phases of
seconds to minutes, so a run's median follows the share of slow phases it
met; the reference loop meets the same phases and cancels most of them. The
report line also gives the medians as measured. Iterations take turns
between the process's CPUs, because each CPU has slow phases of its own.

``--quick`` runs one tiny job per workload, for the benchmark's own tests.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, layer_metric_names  # noqa: E402
from workloads import WORKLOADS, WrongResult, job_rng, jobs_for  # noqa: E402

MODULES = ("abelian", "nil2", "sqring", "crossed", "bwcoh", "modq")
# Every run ends this long after it starts, finished or not.
HARD_LIMIT_S = 150.0

END_TO_END = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Times are reported in units of the reference loop, times this: the loop's
# time at the fast speed of a 2-vCPU Intel Xeon (see the module docstring).
REF_S = 0.025
_REF_KEYS = [(i, i * 3 % 101, i % 7) for i in range(20000)]


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout("the run's time limit was reached")


def import_quadalg() -> SimpleNamespace:
    """Import the library's modules afresh from the checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "quadalg" or n.startswith("quadalg.")]:
        del sys.modules[name]
    q = SimpleNamespace(**{m: importlib.import_module(f"quadalg.{m}") for m in MODULES})
    origin = Path(q.abelian.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"quadalg was imported from {origin}, not from {ROOT / 'src'}")
    return q


def per_layer_names() -> list[str]:
    """Every per-layer metric, in the order they are printed."""
    jobs = [j.name for w in WORKLOADS.values() for j in w]
    return (
        layer_metric_names()
        + ["bwcoh.level.gens_max", "bwcoh.d.nnz"]
        + [f"job.{j}.s" for j in jobs]
        + ["trace.overhead_frac"]
    )


def metric_unit(name: str) -> str:
    if name == "trace.overhead_frac":
        return "ratio"
    return "s" if name.endswith(".s") else "count"


def reference() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed loop of tuple, dict and list work.

    It calls nothing in quadalg, so no change to the library moves it, and
    the collector is off, so that the library's live objects do not either.
    """
    gc.disable()
    try:
        w, c = time.perf_counter(), time.process_time()
        rng = random.Random(7)
        counts: dict = {}
        for k in range(12000):
            a = _REF_KEYS[rng.randrange(len(_REF_KEYS))]
            key = (a[1], a[2], k % 997)
            counts[key] = counts.get(key, 0) + a[0]
        sorted(counts.items())
        return time.perf_counter() - w, time.process_time() - c
    finally:
        gc.enable()


def per_ref(t: float, before: tuple, after: tuple, clock: int) -> float:
    """``t`` in units of the reference loops run just before and after it."""
    return t / ((before[clock] + after[clock]) / 2)


def run_iteration(jobs, seed: int, deadline: float, tracer: Tracer | None = None) -> dict:
    """Set up and run every job once; returns timings, failures and sizes."""
    signal.signal(signal.SIGALRM, _on_alarm)
    gc.collect()
    refs = [reference()]
    t0 = time.perf_counter()
    q = import_quadalg()
    import_s = time.perf_counter() - t0
    if tracer:
        tracer.reset()
        tracer.install(q)
    failures, inputs, done = [], {}, {}
    job_s, job_cpu, job_rel, job_cpu_rel = {}, {}, {}, {}

    def guarded(job, stage, fn):
        if tracer:
            tracer.job = job.name if stage == "run" else f"{job.name}/{stage}"
            tracer.begin(f"job.{tracer.job}")
        signal.setitimer(signal.ITIMER_REAL, max(deadline - time.perf_counter(), 0.001))
        try:
            return fn()
        except Exception as exc:  # a failed job, counted and reported; the run goes on
            if not isinstance(exc, WrongResult):
                traceback.print_exc(file=sys.stderr)
            failures.append({"job": job.name, "stage": stage, "error": f"{type(exc).__name__}: {exc}"})
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer:
                tracer.end()

    t1 = time.perf_counter()
    for job in jobs:
        inputs[job.name] = guarded(job, "setup", lambda: job.setup(q, seed))
    setup_s = import_s + time.perf_counter() - t1
    refs.append(reference())

    for job in jobs:
        if inputs[job.name] is None:
            continue
        j0, c0 = time.perf_counter(), time.process_time()

        def attempt():
            result = job.run(q, inputs[job.name])
            job.check(q, job, inputs[job.name], result, job_rng(seed, job), done)
            done[job.name] = result

        guarded(job, "run", attempt)
        job_s[job.name] = time.perf_counter() - j0
        job_cpu[job.name] = time.process_time() - c0
        refs.append(reference())
        job_rel[job.name] = per_ref(job_s[job.name], refs[-2], refs[-1], 0)
        job_cpu_rel[job.name] = per_ref(job_cpu[job.name], refs[-2], refs[-1], 1)
    if tracer:
        # Call counts come from the wrappers; the size records are read
        # untraced, so that reading them adds nothing to the layer counts.
        tracer.job = None
        sizes = {
            name: {f"{f}_calls": tracer.job_calls.get((name, f"abelian.{f}"), 0) for f in ("smith", "solve_integer")}
            for name in done
        }
    else:
        sizes = {job.name: job.sizes(inputs[job.name], done[job.name]) for job in jobs if job.name in done}
    return {
        "setup_s": setup_s, "setup_rel": per_ref(setup_s, refs[0], refs[1], 0),
        "job_s": job_s, "job_cpu": job_cpu, "job_rel": job_rel, "job_cpu_rel": job_cpu_rel,
        "ref_s": [r[0] for r in refs],
        "failures": failures, "sizes": sizes,
        "layers": tracer.layer_values() if tracer else None,
    }


def metadata() -> dict:
    rev = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            rev = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            rev = None
    src_lines = sum(p.read_bytes().count(b"\n") for p in (ROOT / "src").rglob("*.py"))
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": rev,
        "src_lines": src_lines,
    }


def level_stats(sizes: dict) -> dict:
    gens = [n for s in sizes.values() for n in s.get("level_ngens", {}).values()]
    nnz = sum(s[d]["nnz"] for s in sizes.values() for d in ("d_in", "d_out") if d in s)
    return {"bwcoh.level.gens_max": max(gens, default=0), "bwcoh.d.nnz": nnz}


def job_medians(iterations: list[dict], key: str) -> dict[str, float]:
    """Each job's median over ``iterations`` of the per-job times ``key``."""
    names = dict.fromkeys(name for it in iterations for name in it[key])
    return {n: statistics.median(it[key][n] for it in iterations if n in it[key]) for n in names}


def pass_time(iterations: list[dict], key: str) -> float:
    """One pass over the job list: the sum of the jobs' median times."""
    return sum(job_medians(iterations, key).values())


def measure(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> tuple[dict, dict]:
    """Iterate until ``seconds`` are spent; returns (report, result line)."""
    jobs = jobs_for(workload, quick)
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    tracer = Tracer() if trace else None
    cpus = sorted(os.sched_getaffinity(0))
    plain, traced, durations = [], [], []
    while True:
        use_tracer = tracer if trace and len(durations) % 2 == 1 else None
        kind = traced if use_tracer else plain
        # Each CPU of a shared machine has slow phases of its own; taking
        # turns between them lets every job find a fast phase on one.
        os.sched_setaffinity(0, {cpus[len(kind) % len(cpus)]})
        i0 = time.perf_counter()
        it = run_iteration(jobs, seed, deadline, use_tracer)
        durations.append(time.perf_counter() - i0)
        kind.append(it)
        elapsed = time.perf_counter() - start
        enough = plain and (traced or not trace)
        if enough and (elapsed + max(durations[-2:]) > seconds or time.perf_counter() > deadline):
            break
    os.sched_setaffinity(0, cpus)

    iterations = plain + traced
    attempted = len(jobs) * len(iterations)
    # A job fails at most once per iteration: a job whose setup failed is not run.
    failures = [f for it in iterations for f in it["failures"]]
    failed_jobs = len(failures)
    sizes = plain[0]["sizes"]
    if traced:
        for name, calls in traced[0]["sizes"].items():
            sizes.setdefault(name, {}).update(calls)
    e2e = {
        "run_s": REF_S * pass_time(plain, "job_rel"),
        "cpu_s": REF_S * pass_time(plain, "job_cpu_rel"),
        "setup_s": REF_S * statistics.median(it["setup_rel"] for it in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": failed_jobs / attempted,
    }
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "quick": quick,
        "meta": metadata(),
        "iterations": {"untraced": len(plain), "traced": len(traced)},
        "end_to_end": e2e,
        "measured_s": {
            "run_s": pass_time(plain, "job_s"),
            "cpu_s": pass_time(plain, "job_cpu"),
            "setup_s": statistics.median(it["setup_s"] for it in plain),
            "reference": statistics.median(r for it in plain for r in it["ref_s"]),
        },
        "sizes": sizes,
        "failures": failures,
    }
    if trace:
        metrics = {name: 0 for name in per_layer_names()}
        for name in traced[0]["layers"]:
            pick = statistics.median if name.endswith(".s") else statistics.median_low
            metrics[name] = pick([it["layers"][name] for it in traced])
        metrics.update(level_stats(sizes))
        for name, rel in job_medians(plain, "job_rel").items():
            metrics[f"job.{name}.s"] = REF_S * rel
        metrics["trace.overhead_frac"] = REF_S * pass_time(traced, "job_rel") / e2e["run_s"] - 1
        path = ROOT / ".bench_trace" / f"{workload}.jsonl"
        tracer.write(path)
        report["spans_file"] = str(path.relative_to(ROOT))
        report["spans"] = len(tracer.spans)
    else:
        metrics = {name: e2e[name] for name in END_TO_END}
    result = {
        "correct": failed_jobs == 0,
        "attempted": attempted,
        "failed": failed_jobs,
        "metrics": {k: {"value": v, "unit": END_TO_END.get(k) or metric_unit(k)} for k, v in metrics.items()},
    }
    return report, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="one tiny job per workload")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import_quadalg()
    except ImportError as exc:
        print(f"cannot import quadalg from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    report, result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
