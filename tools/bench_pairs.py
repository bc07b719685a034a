"""Alternating parent/change pairs of bench/run.py, gathered into one JSON file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_x.json \
        --workload annulus --seeds 3101-3110 [--seconds 20] [--trace-pair]

DIR is a git checkout holding src/ and bench/. Pair i runs both checkouts
with seed i, one after the other: the parent first on the first pair, the
change first on the next, and so on. Each run's JSON result line is kept
with its seed and position. Running again with the same --out adds the
workload to the file (a workload already in it is replaced). --trace-pair
runs one more pair with --trace 1, whose per-layer metrics show where a
change in time comes from.

The file records, per workload and metric, both sides' medians and linear
(inclusive) quartiles, the pairs in which the change read lower, and the
failed operations; and the machine: nproc, Python, numpy and scipy with
their BLAS, and each checkout's commit and src/ and bench/ trees.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def run(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def git(checkout, *args):
    return subprocess.run(["git", *args], cwd=checkout, capture_output=True,
                          text=True, check=True).stdout.strip()


def identity(checkout):
    return {"commit": git(checkout, "rev-parse", "HEAD"),
            "src_tree": git(checkout, "rev-parse", "HEAD:src"),
            "bench_tree": git(checkout, "rev-parse", "HEAD:bench"),
            "clean": git(checkout, "status", "--porcelain", "src", "bench") == ""}


def machine():
    import numpy
    import scipy

    def blas(config):
        info = config.get("Build Dependencies", {}).get("blas", {})
        return {k: info[k] for k in ("name", "version", "openblas configuration")
                if k in info}

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy.show_config(mode="dicts")),
            "scipy_blas": blas(scipy.show_config(mode="dicts"))}


def summary(pairs):
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        side = {s: [p[s]["metrics"][name]["value"] for p in pairs]
                for s in ("parent", "change")}
        row = {}
        for s, values in side.items():
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            row[s] = {"median": median, "q1": q1, "q3": q3}
        row["change_lower"] = sum(c < p for p, c in zip(side["parent"], side["change"]))
        row["pairs"] = len(pairs)
        out[name] = row
    for s in ("parent", "change"):
        out[f"{s}_failed"] = sum(p[s]["failed"] for p in pairs)
        out[f"{s}_attempted"] = sum(p[s]["attempted"] for p in pairs)
        out[f"{s}_all_correct"] = all(p[s]["correct"] for p in pairs)
    return out


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, required=True, help="first-last")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace-pair", action="store_true")
    args = ap.parse_args(argv)
    dirs = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {"seed": seed, "order": order}
        for side in order:
            pair[side] = run(dirs[side], args.workload, seed, args.seconds, 0)
            print(args.workload, seed, side, json.dumps(pair[side]["metrics"]),
                  file=sys.stderr)
        pairs.append(pair)
    entry = {"seconds": args.seconds, "pairs": pairs, "summary": summary(pairs)}
    if args.trace_pair:
        seed = args.seeds[-1] + 1
        entry["traced"] = {"seed": seed, "order": ["parent", "change"],
                           **{s: run(dirs[s], args.workload, seed, args.seconds, 1)
                              for s in ("parent", "change")}}

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc.setdefault("workloads", {})[args.workload] = entry
    doc["command"] = "python3 bench/run.py --workload W --seed S --seconds T --trace 0"
    doc["machine"] = machine()
    doc["checkouts"] = {s: identity(d) for s, d in dirs.items()}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
