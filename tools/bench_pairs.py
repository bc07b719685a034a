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

Both checkouts must run the same benchmark: the script exits non-zero
before any run, naming both bench/ trees, when their committed bench/
trees differ or either has uncommitted changes under bench/.

The file records, per workload and metric, both sides' medians and linear
(inclusive) quartiles, the pairs in which the change read lower and
higher, and the failed operations; per end-to-end metric of the change
checkout's BENCHMARK.json (read, never written) a verdict against that
metric's `better` and `bound`; and the machine: nproc, Python, numpy and
scipy with their BLAS, the OPENBLAS_NUM_THREADS and OMP_NUM_THREADS
settings (null when unset), and each checkout's commit and src/ and
bench/ trees.
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
            "clean": git(checkout, "status", "--porcelain", "src", "bench") == "",
            "bench_clean": git(checkout, "status", "--porcelain", "bench") == ""}


def bench_mismatch(ids):
    """Why the checkouts with `identity` records ids["parent"] and
    ids["change"] cannot be compared, naming both bench/ trees, or None
    when both run the same committed bench/ tree."""
    trees = ", ".join(f"{s} bench/ tree {ids[s]['bench_tree']}" for s in ("parent", "change"))
    if ids["parent"]["bench_tree"] != ids["change"]["bench_tree"]:
        return f"the benchmark code differs: {trees}"
    dirty = [s for s in ("parent", "change") if not ids[s]["bench_clean"]]
    if dirty:
        return f"uncommitted changes under bench/ in the {' and '.join(dirty)} checkout: {trees}"
    return None


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
            "scipy_blas": blas(scipy.show_config(mode="dicts")),
            # BLAS thread counts set in the environment, null when unset:
            # cpu_s cannot be read without them
            **{k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


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
        row["change_higher"] = sum(c > p for p, c in zip(side["parent"], side["change"]))
        row["pairs"] = len(pairs)
        out[name] = row
    for s in ("parent", "change"):
        out[f"{s}_failed"] = sum(p[s]["failed"] for p in pairs)
        out[f"{s}_attempted"] = sum(p[s]["attempted"] for p in pairs)
        out[f"{s}_all_correct"] = all(p[s]["correct"] for p in pairs)
    return out


def verdict(row, better, bound):
    """The verdict on one metric's `summary` row, for a metric that is
    better "lower" or "higher" and may be worse by at most the relative
    `bound`: the relative change of the median, whether it stays within
    the bound, the parent's quartile distance, and whether the gain rule
    holds (the change better in at least 9 of 10 pairs, and its median
    better than the parent's by more than that distance)."""
    sign = 1.0 if better == "lower" else -1.0
    parent, change = row["parent"]["median"], row["change"]["median"]
    relative = (change - parent) / parent
    distance = row["parent"]["q3"] - row["parent"]["q1"]
    better_pairs = row["change_lower" if better == "lower" else "change_higher"]
    return {"relative_change": relative, "bound": bound,
            "within_bound": sign * relative <= bound,
            "parent_quartile_distance": distance,
            "gain": 10 * better_pairs >= 9 * row["pairs"]
            and sign * (parent - change) > distance}


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
    ids = {s: identity(d) for s, d in dirs.items()}
    mismatch = bench_mismatch(ids)
    if mismatch:
        sys.exit(f"bench_pairs: {mismatch} (parent {dirs['parent']}, change {dirs['change']})")
    with open(os.path.join(dirs["change"], "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]

    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {"seed": seed, "order": order}
        for side in order:
            pair[side] = run(dirs[side], args.workload, seed, args.seconds, 0)
            print(args.workload, seed, side, json.dumps(pair[side]["metrics"]),
                  file=sys.stderr)
        pairs.append(pair)
    rows = summary(pairs)
    entry = {"seconds": args.seconds, "pairs": pairs, "summary": rows,
             "verdict": {m["name"]: verdict(rows[m["name"]], m["better"], m["bound"])
                         for m in end_to_end}}
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
    doc["checkouts"] = ids
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
