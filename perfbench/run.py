"""Benchmark of the ztwo CLI scan and the class-group sweep.

    python3 perfbench/run.py --workload scan-low --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  Every pass runs in a fresh interpreter (perfbench/child.py) with
ZTWO_CACHE removed from its environment.  With --trace 0 the run repeats
untraced passes, each after two bare start-ups, until --seconds have
elapsed and
reports the end-to-end metrics of BENCHMARK.json, with times scaled to
the reference speed of the host-speed probe (probe.py); with --trace 1 it alternates untraced and
traced passes and reports the per-layer metrics plus the tracing
overhead.  --workload all runs every workload in turn.  For each
workload the last line printed is the result object and the line before
it records the environment, sizes and hashes.  Exits 1 when an output
check fails and 2 when the program is missing.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from statistics import median, median_low

import gaps

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
RUN_LIMIT_S = 170  # a run must end within 180 s
SETUPS_PER_PASS = 2


class PassFailed(Exception):
    def __init__(self, result):
        super().__init__(result.get("error", "pass failed"))
        self.result = result


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "ZTWO_CACHE"}
    # the program runs in one thread; keep numpy's BLAS from starting more
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_pass(workload, mode, deadline, spans=None):
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    cmd += ["--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"{mode} pass of {workload} exited {proc.returncode} "
                           f"without a result")
    if proc.returncode != 0 or (mode != "setup" and not result.get("correct")):
        raise PassFailed(result)
    return result


def environment():
    digest = hashlib.sha1()
    pkg = os.path.join(SRC, "ztwo")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            commit = proc.stdout.strip() or commit
        except OSError:  # no git on PATH
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "git_commit": commit,
            "src_sha1": digest.hexdigest()}


def items_per_s(passes):
    # total items over total time; used only for the tracing overhead,
    # where traced and untraced passes alternate and see the same host
    return sum(p["items"] for p in passes) / sum(p["wall_s"] for p in passes)


def end_to_end(passes, setups):
    """The end-to-end metrics; gaps and set-up times are at the probe's reference speed."""
    exact = sum(p["exact_rows"] for p in passes)
    skipped = sum(p["skipped_rows"] for p in passes)
    # every pass yields the same items in the same order
    typical = gaps.item_medians([p["gaps"] for p in passes])
    p50, tail, _ = gaps.gap_stats(typical)
    return {
        "items_per_s": len(typical) / sum(typical),
        "item_ms_p50": p50,
        "item_ms_tail": tail,
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
        "exact_frac": (exact - skipped) / exact,
        "setup_s": median(setups),
    }


def per_layer(timed, traced):
    out = {name: median_low(p["layers"][name] for p in traced)
           for name in traced[0]["layers"]}
    out["tracing_overhead"] = items_per_s(timed) / items_per_s(traced)
    return out


def run_workload(workload, args, spec):
    """Measure one workload; print the info and result lines; return the exit code."""
    deadline = time.monotonic() + RUN_LIMIT_S
    spans = None
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"spans-{workload}.jsonl")
    timed, traced, setups = [], [], []
    try:
        start = time.monotonic()
        while not timed or time.monotonic() - start < args.seconds:
            if not args.trace:
                # start-ups without the workload between the passes, so that
                # setup_s is a median over samples spread across the run
                setups += [run_pass(workload, "setup", deadline) for _ in range(SETUPS_PER_PASS)]
            timed.append(run_pass(workload, "timed", deadline))
            if args.trace:
                traced.append(run_pass(workload, "traced", deadline, spans))
    except PassFailed as exc:
        print(json.dumps(exc.result), file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, len(timed)),
                          "failed": 1, "metrics": {}}))
        return 1

    values = (per_layer(timed, traced) if args.trace
              else end_to_end(timed, [p["scaled_setup_s"] for p in setups]))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    first = timed[0]
    info = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "env": dict(environment(), python=first["python"], numpy=first["numpy"]),
        "size": {"items": first["items"], "exact_rows": first["exact_rows"],
                 "tail_percentile": gaps.tail_rank(first["items"])[0]},
        "failed_frac": f"{first['skipped_rows']}/{first['exact_rows']}",
        "hashes": first["info"],
        "passes": [{k: p[k] for k in ("mode", "wall_s", "setup_s", "kernel_s") if k in p}
                   for p in timed + traced],
        "setups": setups,
    }
    if args.trace:
        info["spans"] = traced[-1]["spans"]
        self_s = {name[:-len(".self_s")]: v for name, v in values.items()
                  if name.endswith(".self_s")}
        info["self_s_ranked"] = sorted(self_s.items(), key=lambda kv: -kv[1])
    print(json.dumps(info))
    passes = timed + traced
    print(json.dumps({
        "correct": True,
        "attempted": sum(p["items"] for p in passes),
        "failed": sum(p["unanswered"] for p in passes),
        "metrics": metrics,
    }), flush=True)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=0, help="recorded; no workload uses it")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a SIGTERM raises here, and subprocess.run then kills and reaps the pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "ztwo", "__init__.py")):
        print(f"error: no ztwo package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    todo = names if args.workload == "all" else [args.workload]
    return max([run_workload(w, args, spec) for w in todo])


if __name__ == "__main__":
    sys.exit(main())
