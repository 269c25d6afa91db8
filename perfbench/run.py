#!/usr/bin/env python3
"""Repository benchmark: builds the cocktail library and the perfbench
program from source, runs one workload, checks its outputs and prints the
result as the last line of standard output.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload design|verify|serve --seed N \
        --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):
  design  Van der Pol training pipeline from the seed, then κ* evaluated
          clean and under FGSM.
  verify  reachability (3D system) and invariant-set (Van der Pol) runs on
          the κ* and κD students kept in perfbench/subjects/.
  serve   ControllerServer answering a fixed-count flood of requests; the
          traced run adds closed-loop plants, seeded open-loop arrivals at a
          light and a heavy rate, and the highest rate meeting the SLO.

End-to-end metrics: setup_s (median over 9 processes of the time from
process start to the first timed call; those processes stop there),
peak_rss_mb, job_s (median time of the workload's job) and work_per_s
(median work done per second).  With --trace 0 the result carries them.
With --trace 1 this script runs the workload twice, untraced then traced;
the result carries every per-layer metric, taken from the traced run, plus
trace.overhead.<metric> = (traced − untraced) / untraced for each
end-to-end metric.  Per-layer metrics of layers a workload does not drive
read 0.

Every run also prints a run record (nproc, build type, compiler, commit,
source digest, shared-pool workers, seed, exact work counters, network
digests) on the line before the result and writes it, with the traced
run's Chrome trace, under .bench_build/out/.  Exact counters and digests
must repeat for a given seed and source tree; a difference is reported as
"behaviour changed", never as a timing delta.

The build lives in .bench_build/perfbench (Release).  The first run builds;
later runs only re-check it.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
OUT_DIR = os.path.join(BUILD_ROOT, "out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("design", "verify", "serve")
# One workload run (every process it starts) must end well inside the 180 s
# a run may take.
RUN_DEADLINE_S = 170.0
# setup_s is the median, over this many processes that stop once set up, of
# the time from starting the process to its first timed call.
SETUP_PROCESSES = 9


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def nproc():
    """CPUs this process may run on (what `nproc` prints)."""
    return len(os.sched_getaffinity(0))


def pool_workers(workload):
    """Shared-pool workers for a workload.  With the thread that calls into
    the pool, they leave CPUs free: on a 4-vCPU VM, verify's job time spread
    0.28 (IQR / median) over five runs with all 4 CPUs loaded and 0.07 with
    3, for a job 20% slower.  design, whose many short parallel regions make
    it wait on thread wake-ups, swung 24-47 s per job with 3 load threads
    and 35-41 s with 2 in the same minutes, so it gets one worker."""
    return 1 if workload == "design" else max(1, nproc() - 2)


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"source tree incomplete: {needed} missing in {ROOT}")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(4, nproc()))
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                      "-j", jobs])
        with open(os.path.join(BUILD_DIR, "build.log"), "a") as build_log:
            for step in steps:
                done = subprocess.run(step, stdout=build_log,
                                      stderr=subprocess.STDOUT, check=False)
                if done.returncode != 0:
                    raise BenchError(f"build step failed ({' '.join(step)}); "
                                     f"see {build_log.name}")


def run_binary(args, trace, deadline, setup_only=False):
    """Runs the perfbench program and returns its report, with the
    monotonic time at which the process was started as "spawn_ns"."""
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = os.path.join(OUT_DIR, "scratch")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, COCKTAIL_MODEL_DIR=scratch, COCKTAIL_OUT_DIR=scratch,
               COCKTAIL_THREADS=str(pool_workers(args.workload)))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
           "--setup-only", "1" if setup_only else "0"]
    if trace and not setup_only:
        cmd += ["--trace-out",
                os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("no time left for the run")
    try:
        spawn_ns = time.monotonic_ns()
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=remaining, check=False, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload exceeded {RUN_DEADLINE_S:.0f} s") from exc
    if done.returncode != 0:
        raise BenchError(f"perfbench exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError("perfbench printed no report")
    report = json.loads(lines[-1])
    report["spawn_ns"] = spawn_ns
    return report


def setup_seconds(args, trace, deadline):
    """Median time from process start to the first timed call."""
    times = []
    for _ in range(SETUP_PROCESSES):
        report = run_binary(args, trace, deadline, setup_only=True)
        times.append((report["ready_ns"] - report["spawn_ns"]) * 1e-9)
    if min(times) <= 0:
        raise BenchError("set-up finished before the process started: the "
                         "program's clock is not CLOCK_MONOTONIC")
    return statistics.median(times)


def source_digest():
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for base, dirs, files in os.walk(top):
            dirs.sort()
            paths += [os.path.join(base, name) for name in sorted(files)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not shutil.which("git") or not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    return done.stdout.strip() or "unknown"


def catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def pick(report_metrics, wanted, section):
    out = {}
    for name, unit in wanted.items():
        metric = report_metrics.get(name)
        if metric is None:
            raise BenchError(f"{section} metric {name} missing")
        if metric["unit"] != unit:
            raise BenchError(f"{name}: unit {metric['unit']}, expected {unit}")
        out[name] = {"value": metric["value"], "unit": unit}
    return out


def compare_exact(args, digest, exact, failures):
    """Checks exact counters against earlier runs of this seed.  The same
    source tree must reproduce them bit for bit; another tree that differs
    changed behaviour, which is reported but is not a failure."""
    records = os.path.join(OUT_DIR, "records")
    os.makedirs(records, exist_ok=True)
    stem = f"{args.workload}-{args.seconds:g}s-seed{args.seed}-"
    mine = os.path.join(records, stem + digest + ".json")
    for name in sorted(os.listdir(records)):
        if not name.startswith(stem):
            continue
        with open(os.path.join(records, name)) as handle:
            earlier = json.load(handle)
        changed = sorted(k for k in set(earlier) | set(exact)
                         if earlier.get(k) != exact.get(k))
        if not changed:
            continue
        if name == os.path.basename(mine):
            failures.append("exact counters differ from an earlier run of the "
                            f"same source and seed: {', '.join(changed)}")
        else:
            log(f"behaviour changed vs source {name[len(stem):-5]}: "
                f"{', '.join(changed)}")
    with open(mine, "w") as handle:
        json.dump(exact, handle, indent=1, sort_keys=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        e2e_units, layer_units = catalog()
        build()
        deadline = time.monotonic() + RUN_DEADLINE_S
        reports = [run_binary(args, False, deadline)]
        if args.trace:
            reports.append(run_binary(args, True, deadline))
        for report, trace in zip(reports, (False, True)):
            report["end_to_end"]["setup_s"] = {
                "value": setup_seconds(args, trace, deadline), "unit": "s"}

        attempted = sum(r["attempted"] for r in reports)
        failed = sum(r["failed"] for r in reports)
        failures = [f for r in reports for f in r["failures"]]
        # Run-level checks: exact counters repeat across the runs of a seed.
        run_failures = []
        attempted += 1
        digest = source_digest()
        compare_exact(args, digest, reports[0]["exact"], run_failures)
        untraced = pick(reports[0]["end_to_end"], e2e_units, "end-to-end")
        if args.trace:
            traced = reports[1]
            attempted += 1
            if traced["exact"] != reports[0]["exact"]:
                run_failures.append("exact counters differ between the "
                                    "untraced and the traced run")
            traced_e2e = pick(traced["end_to_end"], e2e_units, "end-to-end")
            layers = dict(traced["per_layer"])
            unknown = sorted(set(layers) - set(layer_units))
            if unknown:
                raise BenchError("per-layer metrics missing from "
                                 f"BENCHMARK.json: {', '.join(unknown)}")
            for name in e2e_units:
                base = untraced[name]["value"]
                layers[f"trace.overhead.{name}"] = {
                    "value": (traced_e2e[name]["value"] - base) / base
                    if base else 0.0, "unit": "ratio"}
            metrics = pick({name: layers.get(name, {"value": 0.0, "unit": unit})
                            for name, unit in layer_units.items()},
                           layer_units, "per-layer")
        else:
            metrics = untraced
        failed += len(run_failures)
        failures += run_failures
        record = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": nproc(), "commit": git_commit(),
            "source_digest": digest,
            "build_type": reports[0]["info"]["build_type"],
            "compiler": reports[0]["info"]["compiler"],
            "pool_workers": int(reports[0]["info"]["pool_workers"]),
            "exact": reports[0]["exact"],
            "info": {k: v for r in reports for k, v in r["info"].items()},
            "failures": failures,
        }
        with open(os.path.join(OUT_DIR, f"record-{args.workload}-seed{args.seed}"
                               f"-trace{args.trace}.json"), "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        log(f"error: {exc}")
        return 1

    for failure in failures:
        log(f"check failed: {failure}")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
