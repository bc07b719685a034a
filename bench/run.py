"""lapspec benchmark: one workload in this process, one JSON line of results.

    python3 bench/run.py --workload drums|annulus|certify --seed N \
        --seconds S --trace 0|1

Run from a source checkout; lapspec is imported from its `src` directory.
A run sets the workload up, then repeats whole rounds of its operations
until the next round would end after --seconds (at least one round).
With --trace 0 it reports the end-to-end metrics; with --trace 1 each
round is run once untraced and once traced, and it reports the per-layer
metrics of the traced round. See README.md for the workloads and metrics.
"""
import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "_out")
SETUP_PROBES = 5


def import_lapspec():
    init = os.path.join(SRC, "lapspec", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"bench: no lapspec sources at {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import lapspec
    import lapspec.cli
    if os.path.abspath(lapspec.__file__) != init:
        sys.exit(f"bench: imported lapspec from {lapspec.__file__}, not {SRC}")
    return lapspec


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="set up only, print 'ready' (used to time set-up)")
    return p.parse_args(argv)


def set_up(args):
    """Import lapspec, numpy and scipy and build the workload's inputs."""
    lapspec = import_lapspec()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
    return lapspec, workloads.Context(lapspec.cli, workdir), ops


def setup_seconds(args):
    """Median over fresh processes of the time from start to inputs built."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"bench: set-up probe failed (exit {proc.returncode})")
    return statistics.median(times)


def run_round(ctx, ops, log):
    """Every operation once. Returns (wall, cpu, failed, unexpected)."""
    ctx.state.clear()
    failed = unexpected = 0
    w0, c0 = time.perf_counter(), time.process_time()
    for op in ops:
        try:
            op.run(ctx)
        except Exception as exc:  # an operation that raises has failed
            failed += 1
            unexpected += not op.known_fault
            tag = "known fault" if op.known_fault else "FAILED"
            log.append(f"{op.name}: {tag}: {type(exc).__name__}: {exc}")
    return time.perf_counter() - w0, time.process_time() - c0, failed, unexpected


def traced_round(lapspec, ctx, ops, log):
    spans = tracer.Tracer()
    spans.install(lapspec)
    try:
        spans.start(tracer.ROOT)
        result = run_round(ctx, ops, log)
        spans.stop()
    finally:
        spans.restore()
    return result, spans


def main(argv=None):
    args = parse_args(argv)
    lapspec, ctx, ops = set_up(args)
    if args.probe_setup:
        print("ready", flush=True)
        shutil.rmtree(ctx.workdir)
        return 0
    try:
        setup_s = None if args.trace else setup_seconds(args)
        log, walls, cpus, layers, overheads = [], [], [], [], []
        attempted = failed = unexpected = 0
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            wall, cpu, f, u = run_round(ctx, ops, log)
            walls.append(wall)
            cpus.append(cpu)
            attempted, failed, unexpected = attempted + len(ops), failed + f, unexpected + u
            note = ""
            if args.trace:
                (twall, _, f, u), spans = traced_round(lapspec, ctx, ops, log)
                layers.append(tracer.layer_metrics(spans))
                overheads.append(twall - wall)
                attempted, failed, unexpected = attempted + len(ops), failed + f, unexpected + u
                note = f", traced wall {twall:.3f} s"
            print(f"round {len(walls)}: wall {wall:.3f} s, cpu {cpu:.3f} s{note}",
                  file=sys.stderr)
            now = time.perf_counter()
            if (now - start) + (now - t0) > args.seconds:
                break  # the next round, as long as this one, would end late
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)

    for line in log:
        print(line, file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": statistics.median(l[name] for l in layers), "unit": unit}
                   for name, unit in tracer.LAYER_UNITS.items() if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = {"value": statistics.median(overheads), "unit": "s"}
        with open(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": spans.dump()}, fh)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"wall_s": {"value": statistics.median(walls), "unit": "s"},
                   "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak, "unit": "MB"}}
    result = json.dumps({"correct": unexpected == 0, "attempted": attempted,
                         "failed": failed, "metrics": metrics})
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        fh.write(result + "\n")
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
