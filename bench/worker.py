"""Closed-loop client: one fresh process, one client, one request at a time.

Run as `python3 worker.py CONFIG.json` with the work directory as the
current directory (request file arguments are relative to it). The config
names the request list, the run length, whether to trace, the source tree
the package must come from, and where to write the result.

Each request is one in-process call to `skkinv.cli.run(argv + ["--json"])`;
the next request is sent once the previous response has been checked. When
the run outlasts the request list, the list is issued again from the top,
which shows up in the measured repeat share.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main(config_path: str) -> int:
    with open(config_path, encoding="utf-8") as handle:
        config = json.load(handle)
    sys.path.insert(0, config["bench_dir"])
    sys.path.insert(0, config["src_dir"])
    import oracle
    import skkinv.cli as cli

    package_dir = os.path.dirname(os.path.abspath(cli.__file__))
    if os.path.dirname(package_dir) != os.path.abspath(config["src_dir"]):
        print(f"skkinv imported from {package_dir}, not from the source tree", file=sys.stderr)
        return 3

    tracer = None
    if config["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    clock = time.perf_counter
    latencies: list[float] = []
    sent: list[float] = []            # send times, seconds after the run started
    failures: dict[str, str] = {}
    failed = 0
    seen: set = set()
    repeats = 0
    passes = 0
    i = 0
    # requests are read one line at a time, so the list does not sit in memory
    source = open(config["requests"], encoding="utf-8")
    start = clock()
    deadline = start + config["seconds"]
    try:
        while clock() < deadline:
            line = source.readline()
            if not line:
                source.seek(0)
                passes += 1
                continue
            req = json.loads(line)
            argv = req["argv"]
            key = hash("\0".join(argv))
            repeats += key in seen
            seen.add(key)
            if tracer is not None:
                tracer.request_id = i
            t0 = clock()
            try:
                result = cli.run(argv + ["--json"])
            except Exception as exc:          # a crash is a failed request, not a crashed run
                result = exc
            latencies.append(clock() - t0)
            sent.append(t0 - start)
            if isinstance(result, Exception):
                reason = f"raised {type(result).__name__}: {result}"
            else:
                reason = oracle.check(req["expect"], result.exit_code, result.report)
            if reason is not None:
                failed += 1
                failures.setdefault(req["kind"], f"{' '.join(argv)[:120]}: {reason[:300]}")
            i += 1
        elapsed = clock() - start
    finally:
        source.close()
        if tracer is not None:
            tracer.uninstall()

    out = {
        "attempted": len(latencies),
        "failed": failed,
        "failures": failures,
        "elapsed_s": elapsed,
        "latencies_s": latencies,
        "sent_s": sent,
        "repeat_share": repeats / max(1, len(latencies)),
        "list_restarts": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["spans"] = tracer.write_spans(config["spans"])
        out["restored"] = tracer.restored()
    with open(config["out"], "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
