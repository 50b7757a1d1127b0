#!/usr/bin/env python3
"""perfbench: the placer's end-to-end benchmark.

    python3 perfbench/run.py --workload place_congested --seed 1 \\
        --seconds 30 --trace 0

Run from anywhere inside a source tree that holds perfbench/. The first
run builds the placer libraries, pufferd and the harness into
.bench_build/; every run then generates the workload's inputs from the
seed (before any timing), measures for about --seconds seconds, checks
every output and prints one JSON object as the last line of stdout:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. A failed check makes the exit status non-zero.

Full results (provenance, raw samples, per-layer self time) go to
.bench_out/; a traced run also writes its spans there as Chrome
trace-event JSON, viewable in Perfetto.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import benchlib

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "cmake"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
WORKLOADS = ("place_congested", "serve_small_jobs", "explore_trials")


class BenchError(Exception):
    pass


def nproc():
    return len(os.sched_getaffinity(0))


def run_child(cmd, env=None, timeout=None, log=None):
    """Runs cmd in its own process group and returns its exit status.
    Whatever it started is killed and reaped before this returns."""
    out = log if log is not None else sys.stderr
    proc = subprocess.Popen([str(c) for c in cmd], cwd=ROOT, env=env,
                            stdout=out, stderr=out, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        # A process the child left behind (a daemon of a crashed harness)
        # is in the same group; wait for the kill to take effect.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.02)


def build():
    """Builds the harness and pufferd from this source tree (incremental
    after the first run); returns their paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no placer sources in {ROOT}")
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD.parent / "build.log", "w") as log:
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", ROOT / "perfbench", "-B", BUILD])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "pufferd", "-j", str(nproc())])
        for step in steps:
            if run_child(step, log=log) != 0:
                raise BenchError("build failed, see .bench_build/build.log")
    return BUILD / "perfbench", BUILD / "puffer" / "tools" / "pufferd"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds (identifies the code
    where there is no git checkout)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", ROOT / "perfbench" / "CMakeLists.txt"]
    for top in ("src", "tools", "perfbench/harness"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def provenance(args, raw, manifest, threads):
    info = raw["info"]
    designs = manifest["designs"]
    prov = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": threads,
        "cpu_model": cpu_model(),
        "puffer_threads": int(info["puffer_threads"]),
        "simd_isa": info["simd_isa"],
        "build_type": info["build_type"],
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }
    if "daemon_sessions" in info:
        prov["daemon_sessions_x_lease"] = (
            f"{info['daemon_sessions']}x{info['daemon_lease']}")
        prov["connections"] = int(info["connections"])
    if "explore_concurrency" in info:
        prov["explore_concurrency_k"] = int(info["explore_concurrency"])
    if len(designs) == 1:
        prov["design"] = designs[0]
    else:
        prov["designs"] = {
            "count": len(designs),
            **{k + "_total": sum(d[k] for d in designs)
               for k in ("cells", "nets", "pins")},
        }
    return prov


def traced_summary(args, raw, trace_path):
    """Self time per layer from the spans, plus the tracing overhead when
    an untraced result for the same workload and seed exists."""
    with open(trace_path) as f:
        spans = benchlib.spans_from_chrome(json.load(f))
    summary = {"layer_self_s": benchlib.layer_self_seconds(spans)}
    untraced = OUT / f"{args.workload}-seed{args.seed}-trace0.json"
    if untraced.is_file():
        with open(untraced) as f:
            base = json.load(f)["metrics"]["latency_p50_s"]["value"]
        traced = benchlib.per_layer_metrics(raw)["trace.latency_p50_s"]
        summary["tracing_overhead_frac"] = traced / base - 1.0
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt the first output before it is checked "
                         "(the run must then fail)")
    args = ap.parse_args(argv)

    try:
        harness, pufferd = build()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    threads = nproc()
    env = dict(os.environ, PUFFER_THREADS=str(threads))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    OUT.mkdir(parents=True, exist_ok=True)
    inputs, raw_path = run_dir / "inputs", run_dir / "raw.json"
    trace_path = OUT / f"{name}.trace.json"
    try:
        if run_child([harness, "gen", "--workload", args.workload, "--seed",
                      args.seed, "--out", inputs], env, timeout=25) != 0:
            print("perfbench: input generation failed", file=sys.stderr)
            return 1
        cmd = [harness, "run", "--workload", args.workload, "--inputs",
               inputs, "--work", run_dir / "work", "--out", raw_path,
               "--seconds", args.seconds, "--pufferd", pufferd]
        if args.trace:
            cmd += ["--trace-out", trace_path]
        if args.inject_fault:
            cmd.append("--inject-fault")
        status = run_child(cmd, env, timeout=args.seconds + 120)
        if status is None or not raw_path.is_file():
            print(f"perfbench: the run did not finish (status {status})",
                  file=sys.stderr)
            return 1
        with open(raw_path) as f:
            raw = json.load(f)
        with open(inputs / "manifest.json") as f:
            manifest = json.load(f)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if status != 0 or raw["failed"]:
        return 1

    if args.trace:
        metrics = benchlib.per_layer_metrics(raw)
        units = benchlib.PER_LAYER
    else:
        metrics = benchlib.end_to_end_metrics(raw)
        units = benchlib.END_TO_END
    prov = provenance(args, raw, manifest, threads)
    record = {"provenance": prov, "designs": manifest["designs"],
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()},
              "latency_p90_samples_beyond": benchlib.samples_beyond(
                  len(raw["latency_s"]), 90),
              "raw": raw}
    if args.trace:
        record["trace"] = traced_summary(args, raw, trace_path)
    with open(OUT / f"{name}.json", "w") as f:
        json.dump(record, f, indent=1)

    print("provenance " + json.dumps(prov))
    print(json.dumps(benchlib.result_line(raw, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
