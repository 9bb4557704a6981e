"""One benchmark pass in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py --workload scan-low --mode timed --spawned-at T

--mode timed runs the workload once under the host-speed probe
(probe.py) and reports each item's gap at the probe's reference speed,
--mode traced does the same without the probe and with a span around
every call into each ztwo layer, --mode setup stops just before the
timed call.  T is CLOCK_MONOTONIC when the parent started this
process, so setup_s covers interpreter start, imports and preparation.
The run is checked after the timed region; a mismatch exits with code 1.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import time
from time import perf_counter

import numpy
from ztwo import cli, qforms

import checks
import probe
import tracing

WORKLOADS = {
    # name: (kind, argument); sizes and reasons are in README.md
    "scan-low": ("scan", ["scan", "--min", "3", "--max", "10000"]),
    "scan-high": ("scan", ["scan", "--min", "998001", "--max", "1000000"]),
    "sweep": ("sweep", 30000),
}
SETUP_PROBE_S = 0.1


class StdoutSink:
    """Collects what print() writes; stamps each line end as it arrives."""

    def __init__(self, clock):
        self.clock = clock
        self.chunks = []
        self.stamps = []

    def write(self, text):
        self.chunks.append(text)
        if "\n" in text:
            self.stamps.append(self.clock())
        return len(text)

    def flush(self):
        pass


def run_scan(argv, clock):
    sink = StdoutSink(clock)
    real, sys.stdout = sys.stdout, sink
    t0 = clock()
    try:
        code = cli.main(argv)
    finally:
        t1 = clock()
        sys.stdout = real
    if code != 0:
        raise SystemExit(f"ztwo {' '.join(argv)} exited with {code}")
    # the first stamp is the header line, written as the call starts
    return t0, t1, sink.stamps[1:], "".join(sink.chunks)


def run_sweep(limit, clock):
    out = []
    stamps = []
    t0 = clock()
    for s in qforms.class_group_sweep(limit):
        stamps.append(clock())
        out.append(s)
    t1 = clock()
    return t0, t1, stamps, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--mode", choices=("timed", "traced", "setup"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--spans", help="file the traced mode writes its spans to")
    args = ap.parse_args()

    kind, arg = WORKLOADS[args.workload]
    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    if "ZTWO_CACHE" in os.environ:
        raise SystemExit("ZTWO_CACHE must not be set in a benchmark pass")
    if qforms.CLASS_GROUP_MEMO:
        raise SystemExit("class-group memo is not empty before the timed call")
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    if args.mode == "setup":
        # a start-up ends before a probe could run in it, so the probe
        # measures the host's speed for SETUP_PROBE_S right after it
        with probe.Probe() as speed:
            end = speed.clock() + SETUP_PROBE_S
            while speed.clock() < end:
                pass
        print(json.dumps({"setup_s": setup_s, "kernel_s": speed.kernel_mean(),
                          "scaled_setup_s": setup_s * probe.REFERENCE_S / speed.kernel_mean()}))
        return 0

    # the probe would add its kernel runs to the spans, so only the
    # untraced passes run it
    speed = probe.Probe() if tracer is None else None
    clock = speed.clock if speed else perf_counter
    with speed or contextlib.nullcontext():
        if kind == "scan":
            t0, t1, stamps, text = run_scan(arg, clock)
        else:
            t0, t1, stamps, structures = run_sweep(arg, clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # the checks below call traced functions too; keep only the timed spans
    spans = tracer.spans[:] if tracer else []

    result = {"workload": args.workload, "mode": args.mode, "setup_s": setup_s,
              "wall_s": t1 - t0, "items": len(stamps), "peak_rss_mb": peak_rss_mb,
              "python": platform.python_version(), "numpy": numpy.__version__}
    try:
        if kind == "scan":
            rows, info = checks.check_scan(args.workload, text)
            exact, skipped, unanswered = checks.exact_counts(rows)
            if len(rows) != len(stamps):
                raise checks.CheckFailed(f"{len(rows)} rows but {len(stamps)} line stamps")
        else:
            info = checks.check_sweep(structures)
            exact, skipped, unanswered = len(structures), 0, 0
            info["h_sum"] = sum(s.h for s in structures)
    except checks.CheckFailed as exc:
        result.update(correct=False, error=str(exc))
        print(json.dumps(result))
        return 1
    result.update(correct=True, info=info, exact_rows=exact, skipped_rows=skipped,
                  unanswered=unanswered)
    if speed:
        result.update(kernel_s=speed.kernel_mean(), gaps=speed.scaled_gaps(t0, stamps))
    if tracer is not None:
        layers = tracing.layer_metrics(spans, len(stamps))
        layers["qforms.class_group_sweep.h_sum"] = info.get("h_sum", 0)
        result["layers"] = layers
        result["spans"] = len(spans)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for span in spans:
                    fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
