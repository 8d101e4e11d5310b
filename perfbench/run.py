#!/usr/bin/env python3
"""Layered benchmark of unicomplex, driven through `unicomplex.cli.dispatch`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the library is imported from its
`src/` directory.  One client runs a closed loop in a single process: one
job at a time, no threads.  Every report is checked (see workloads.py).

`--trace 0` repeats passes over the workload's job list for `--seconds` and
prints the end-to-end metrics: `wall_s` (seconds for one checked pass: the
sum over jobs of each job's median time), `peak_rss_mb` (ru_maxrss of this
process) and `setup_s` (median over several fresh interpreters of the time
to import `unicomplex.cli` and generate the seeded inputs).

`--trace 1` runs each job untraced and then under `tracing.SpanTracer`,
back to back, then one pass under `tracing.MemoryTracer`; it prints the
per-layer metrics and writes every span to perfbench/out/.  `--all` runs each workload in its own process
and prints every metric with its unit, and the error rate.

The metric names and units are read from BENCHMARK.json at the checkout
root.  The last line of output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gzip
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"
MIN_PASSES = 2  # so that wall_s is never one pass's time
SETUP_PROBES_FIRST = 3  # set-up probes before the first pass
SETUP_PROBES_PER_JOB = 2  # and before each job of every pass
MiB = 2**20


def import_library():
    """Import unicomplex.cli from this checkout's src/, never from elsewhere."""
    pkg = SRC / "unicomplex"
    if not (pkg / "cli.py").is_file():
        raise SystemExit(f"run.py: no unicomplex sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import unicomplex.cli as cli

    if Path(cli.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"run.py: imported unicomplex from {cli.__file__}, not {pkg}")
    return cli


def setup(workload, seed, workdir):
    """Everything a run needs before its first job: the library and the inputs."""
    cli = import_library()
    return cli, workloads.make_jobs(workload, seed, Path(workdir))


def probe_setup(workload, seed):
    """Seconds from spawning a fresh interpreter to ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
            "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return ready - start


def run_job(cli, job, job_times, failures):
    """Run and check one job; return its wall seconds."""
    t0 = time.perf_counter()
    try:
        code, text = cli.dispatch(list(job.argv))
        if code != job.exit_code:
            raise workloads.CheckError(
                f"exit code {code}, expected {job.exit_code}: {text.strip()[:300]}")
        job.check(json.loads(text)["results"])
    except Exception:  # a wrong answer or a traceback fails the job
        failures.append(f"{job.name}: {traceback.format_exc()}")
    elapsed = time.perf_counter() - t0
    job_times.setdefault(job.name, []).append(elapsed)
    return elapsed


def run_pass(cli, jobs, job_times, failures, before_job=None):
    """Run and check every job once; return the summed job seconds."""
    total = 0.0
    for job in jobs:
        if before_job is not None:
            before_job()
        total += run_job(cli, job, job_times, failures)
    return total


def load_metrics(key):
    return [(m["name"], m["unit"]) for m in json.loads(SPEC.read_text())[key]]


def timed_run(cli, jobs, workload, seed, seconds):
    """At least MIN_PASSES passes, then more until the next one would end
    more than half a pass past `seconds`.  wall_s sums each job's median time over the passes, so a
    burst of load from outside the process that slows one job in one pass
    does not move it.  Set-up probes run before the first pass and before
    each job, so that setup_s, their median, samples the whole run and not
    one moment of it."""
    failures, job_times, passes = [], {}, []
    probes = []

    def probe(count=SETUP_PROBES_PER_JOB):
        probes.extend(probe_setup(workload, seed) for _ in range(count))

    start = time.perf_counter()
    probe(SETUP_PROBES_FIRST)
    rounds = []  # wall seconds of each pass with its probes
    while len(rounds) < MIN_PASSES or (time.perf_counter() - start
                                       + statistics.mean(rounds) / 2 < seconds):
        t0 = time.perf_counter()
        passes.append(run_pass(cli, jobs, job_times, failures, before_job=probe))
        rounds.append(time.perf_counter() - t0)
    values = {
        "wall_s": sum(statistics.median(t) for t in job_times.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MiB,
        "setup_s": statistics.median(probes),
    }
    for name, times in job_times.items():
        print(f"  job {name}: median {statistics.median(times):.3f} s over {len(times)}")
    print(f"  passes: {' '.join(f'{t:.3f}' for t in passes)} s")
    print(f"  setup probes: {len(probes)}, {min(probes):.3f}-{max(probes):.3f} s")
    return values, len(passes) * len(jobs), failures


# Counters read at layer boundaries by SpanTracer hooks.
def _count_matching(counts, m):
    counts["morse.pairs"] = counts.get("morse.pairs", 0) + len(m.pairs)
    counts["morse.cells"] = counts.get("morse.cells", 0) + 2 * len(m.pairs) + len(m.critical)


def _count_universal(counts, K):
    counts["universal_fp.simplices_built"] = \
        counts.get("universal_fp.simplices_built", 0) + K.n_simplices


def _count_z(counts, K):
    counts["zlattice.simplices_dim1_built"] = \
        counts.get("zlattice.simplices_dim1_built", 0) + K.n_simplices - K.n_vertices


HOOKS = {
    "morse.greedy_matching": _count_matching,
    "universal_fp.build_universal": _count_universal,
    "zlattice.build_truncated_universal_z": _count_z,
}


def traced_run(cli, jobs, workload, seed):
    from tracing import MemoryTracer, SpanTracer

    failures, job_times = [], {}
    # Each job runs untraced and traced back to back, so both runs of a pair
    # see the same machine speed; the order alternates from job to job so
    # that going first or second favours neither.  trace.overhead_s sums
    # the differences.
    tracer = SpanTracer(HOOKS)
    untraced = traced = 0.0
    for i, job in enumerate(jobs):
        for with_tracer in ((False, True) if i % 2 == 0 else (True, False)):
            if with_tracer:
                tracer.job = i
                with tracer:
                    traced += run_job(cli, job, job_times, failures)
            else:
                untraced += run_job(cli, job, job_times, failures)
    memory = MemoryTracer({n.split(".")[0] for n, _ in load_metrics("per_layer")
                           if n.endswith(".peak_mb")})
    with memory:
        run_pass(cli, jobs, job_times, failures)

    counts = dict(tracer.counts)
    cells = counts.get("morse.cells", 0)
    counts["morse.match_ratio"] = 2 * counts.get("morse.pairs", 0) / cells if cells else 0.0
    tests = tracer.calls_under("zlattice.is_unimodular_z",
                               "zlattice.build_truncated_universal_z")
    built = counts.get("zlattice.simplices_dim1_built", 0)
    counts["zlattice.unimodular_accept_ratio"] = built / tests if tests else 0.0
    counts["trace.overhead_s"] = traced - untraced

    values = {}
    for name, _unit in load_metrics("per_layer"):
        layer, _, what = name.rpartition(".")
        if what in ("self_s", "calls"):
            st = tracer.stats.get(layer, [0, 0.0, 0.0])
            values[name] = st[2] if what == "self_s" else st[0]
        elif what == "peak_mb":
            values[name] = memory.peak.get(layer, 0) / MiB
        else:
            values[name] = counts.get(name, 0)
    write_spans(tracer, jobs, workload, seed)
    print(f"  jobs untraced {untraced:.3f} s, traced {traced:.3f} s, "
          f"{len(tracer.spans)} spans")
    return values, 3 * len(jobs), failures


def write_spans(tracer, jobs, workload, seed):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json.gz"
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    doc = {
        "workload": workload,
        "seed": seed,
        "jobs": [" ".join(j.argv) for j in jobs],
        "names": names,
        "fields": ["name", "start", "end", "parent", "job"],
        "spans": [[index[n], s, e, p, j] for n, s, e, p, j in tracer.spans],
        "layers": {n: {"calls": c, "total_s": t, "self_s": x}
                   for n, (c, t, x) in sorted(tracer.stats.items()) if c},
    }
    with gzip.open(path, "wt", compresslevel=1) as fh:
        json.dump(doc, fh)
    print(f"  spans written to {path.relative_to(ROOT)}")


def run_workload(workload, seed, seconds, trace):
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as workdir:
        cli, jobs = setup(workload, seed, workdir)
        print(f"workload {workload} seed {seed}: {len(jobs)} jobs, trace {trace}")
        if trace:
            values, attempted, failures = traced_run(cli, jobs, workload, seed)
            metrics = load_metrics("per_layer")
        else:
            values, attempted, failures = timed_run(cli, jobs, workload, seed, seconds)
            metrics = load_metrics("end_to_end")
    for f in failures:
        print(f"FAILED {f}")
    print(f"  error_rate {len(failures) / attempted} ({len(failures)}/{attempted} jobs)")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in metrics},
    }


def run_all(seed, seconds, trace):
    """Each workload in its own process (so peak RSS is per workload)."""
    ok = True
    for w in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            print(f"{w}: exit code {proc.returncode}, no result")
            ok = False
            continue
        ok = ok and res["correct"] and proc.returncode == 0
        print(f"{w} (seed {seed})")
        for name, m in res["metrics"].items():
            print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'error_rate':40s} {res['failed'] / res['attempted']:>14.6g} "
              f"failed/attempted ({res['failed']}/{res['attempted']})")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=tuple(workloads.WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    default=json.loads(SPEC.read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload is None:
        ap.error("give --workload NAME or --all")
    if args.probe_setup:
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT, prefix="probe-") as workdir:
            setup(args.workload, args.seed, workdir)
            print("ready", flush=True)
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
