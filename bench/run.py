"""Request benchmark for skkinv.

    python3 bench/run.py --workload complexes --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from the seed, measures the package's
import time in fresh interpreters (setup_s), then runs a fresh worker
process that sends requests in a closed loop for the given number of
seconds and checks every response. With --trace 0 it reports the
end-to-end metrics; with --trace 1 it runs an untraced and a traced worker
for half the time each and reports the per-layer metrics. Every metric is
printed by name with its unit; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from gen import REQUESTS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 15
PROBE = ("import time; t = time.perf_counter(); import skkinv.cli; "
         "print(repr(time.perf_counter() - t))")

def _env() -> dict:
    """Environment of every child process: the checkout's package, a fixed
    hash seed, and bytecode cached under .bench_work whatever the caller's
    settings, as a deployed service would have it."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup() -> list[float]:
    """Import time of skkinv.cli in fresh interpreters; the first probe only
    fills the bytecode cache and the file cache, and is not counted."""
    times = []
    for k in range(SETUP_PROBES + 1):
        out = subprocess.run([sys.executable, "-c", PROBE], env=_env(), cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        if k:
            times.append(float(out.stdout.strip()))
    return times


def run_worker(workdir: Path, workload: str, seconds: float, trace: bool) -> dict:
    tag = "traced" if trace else "plain"
    config = {
        "requests": REQUESTS,
        "seconds": seconds,
        "trace": trace,
        "src_dir": str(SRC),
        "bench_dir": str(BENCH),
        "out": f"result-{tag}.json",
        "spans": str(WORK / f"spans-{workload}.tsv"),
    }
    config_path = workdir / f"config-{tag}.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(config_path)],
                   env=_env(), cwd=workdir, timeout=seconds + 90, check=True)
    return json.loads((workdir / config["out"]).read_text(encoding="utf-8"))


def latency_metrics(result: dict) -> dict:
    lat_ms = sorted(x * 1000 for x in result["latencies_s"])
    q = statistics.quantiles(lat_ms, n=100, method="inclusive")
    return {
        "throughput_rps": (result["attempted"] / result["elapsed_s"], "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p95_ms": (q[94], "ms"),
    }


def layer_metrics(traced: dict, plain: dict) -> dict:
    requests = traced["attempted"]
    busy = sum(traced["latencies_s"])
    metrics = {}
    for span, entry in traced["layers"].items():
        metrics[f"{span}.calls"] = (entry["calls"] / requests, "calls/req")
        metrics[f"{span}.self_share"] = (entry["self_s"] / busy, "ratio")
        for counter, value in entry.items():
            if counter not in ("calls", "self_s"):     # work counted at the span
                metrics[f"{span}.{counter}"] = (value / requests, f"{counter}/req")
    traced_rps = traced["attempted"] / traced["elapsed_s"]
    plain_rps = plain["attempted"] / plain["elapsed_s"]
    metrics["trace.overhead_ratio"] = (traced_rps / plain_rps, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "skkinv" / "cli.py").is_file():
        print(f"no skkinv source tree under {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        # built in its own process, so the workers start from a small parent
        inputs = subprocess.run(
            [sys.executable, str(BENCH / "gen.py"), str(workdir), args.workload, str(args.seed)],
            env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        ).stdout.strip()
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}"
              f" trace {args.trace}")
        print(f"inputs: {inputs}")
        if args.trace:
            plain = run_worker(workdir, args.workload, args.seconds / 2, trace=False)
            traced = run_worker(workdir, args.workload, args.seconds / 2, trace=True)
            if not traced["restored"]:
                print("traced functions were not restored", file=sys.stderr)
                return 1
            runs = (plain, traced)
            metrics = layer_metrics(traced, plain)
            print(f"spans: {traced['spans']} written to {WORK / f'spans-{args.workload}.tsv'}")
            for span, entry in traced["layers"].items():
                print(f"  {span}.self_s {entry['self_s']:.6f} s")
        else:
            setup = measure_setup()
            plain = run_worker(workdir, args.workload, args.seconds, trace=False)
            runs = (plain,)
            metrics = latency_metrics(plain)
            metrics["setup_s"] = (statistics.median(setup), "s")
            metrics["peak_rss_mb"] = (plain["peak_rss_mb"], "MB")
            above = sum(1 for x in plain["latencies_s"]
                        if x * 1000 > metrics["latency_p95_ms"][0])
            print(f"samples: {plain['attempted']} requests, {above} above p95;"
                  f" setup probes {', '.join(f'{t:.4f}' for t in setup)} s")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        for r in runs:
            print(f"issued: {r['attempted']} requests, exact-repeat share"
                  f" {r['repeat_share']:.4f}, request list restarted {r['list_restarts']} times")
            for kind, reason in sorted(r["failures"].items()):
                print(f"FAILED {kind}: {reason}")
        print(f"  error_rate {failed / attempted:.6f} ratio ({failed} of {attempted} requests)")
        for name, (value, unit) in metrics.items():
            print(f"  {name} {value:.6g} {unit}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
