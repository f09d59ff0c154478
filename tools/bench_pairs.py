"""Run bench/run.py on a parent commit and on this checkout, alternately, and record both.

    python3 tools/bench_pairs.py --parent HEAD~1 --out BENCH_<n>.json \\
        --workload text-bulk --seeds 101 102 103 --seconds 30

The parent's committed files are exported with ``git archive`` into a
temporary directory; this checkout is the working tree as it stands. For
every workload and seed the two sides run one after the other, parent first
in even-numbered pairs and this checkout first in odd-numbered ones, so that
drift in the machine's speed does not favour one side. The output holds each
pair's two records (without the per-input manifest, which is only compared)
and, per workload and metric, the median of each side and their ratio.

A ``*_tail`` metric is the highest percentile rung with enough samples
beyond it, and a faster program fits more passes into the same seconds, so
the rung can differ between the two sides. Each record keeps its rung next
to the value; the medians of a tail metric cover only the pairs whose two
sides ran at the same rung, and ``tail_rungs_differ`` counts the others.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TAILS = ("call_ms_tail", "inproc_ms_tail")


def export(rev, directory):
    """The committed files of rev, written under directory; rev's full sha."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True).stdout
    tree = os.path.join(directory, "parent")
    os.mkdir(tree)
    subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
    return sha, tree


def run_once(root, workload, seed, seconds):
    """One bench/run.py run in root; its full record."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv + ["--trace", "0"], cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(argv)} in {root} exited {done.returncode}:\n{done.stderr}")
    path = os.path.join(root, "bench", "_run", "results", f"{workload}-seed{seed}-trace0.json")
    with open(path) as f:
        return json.load(f)


def trimmed(record):
    """The record without its input manifest, each tail value next to its rung."""
    out = {k: v for k, v in record.items() if k != "inputs"}
    for name in TAILS:
        out["result"]["metrics"][name]["percentile"] = record["detail"][name]["percentile"]
    return out


def medians(pairs):
    """Per metric: each side's median over the pairs, and change / parent."""
    out = {}
    for name in pairs[0]["parent"]["result"]["metrics"]:
        usable = [p for p in pairs if name not in TAILS or p["tail_rungs"][name][0] == p["tail_rungs"][name][1]]
        row = {"pairs": len(usable)}
        if usable:
            for side in ("parent", "change"):
                row[side] = statistics.median(p[side]["result"]["metrics"][name]["value"] for p in usable)
            row["ratio"] = row["change"] / row["parent"] if row["parent"] else None
        if name in TAILS:
            row["tail_rungs_differ"] = len(pairs) - len(usable)
        out[name] = row
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the commit to compare this checkout against")
    ap.add_argument("--out", required=True, help="the JSON file to write, e.g. BENCH_<n>.json")
    ap.add_argument("--workload", action="append", required=True, help="repeat for more workloads")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, capture_output=True, text=True)
    dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, check=True, capture_output=True, text=True)
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_sha, parent_root = export(args.parent, tmp)
        roots = {"parent": parent_root, "change": ROOT}
        workloads = {}
        for workload in args.workload:
            pairs = []
            for i, seed in enumerate(args.seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                records = {}
                for side in order:
                    records[side] = run_once(roots[side], workload, seed, args.seconds)
                    metrics = records[side]["result"]["metrics"]
                    print(f"{workload} seed={seed} {side:6s} inproc_ms_p50={metrics['inproc_ms_p50']['value']:.2f}")
                pairs.append(
                    {
                        "seed": seed,
                        "order": list(order),
                        "same_inputs": records["parent"]["inputs"] == records["change"]["inputs"],
                        "tail_rungs": {
                            n: [records[s]["detail"][n]["percentile"] for s in ("parent", "change")] for n in TAILS
                        },
                        **{side: trimmed(r) for side, r in records.items()},
                    }
                )
            workloads[workload] = {"medians": medians(pairs), "pairs": pairs}
    result = {
        "command": f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "parent": parent_sha,
        "change": head.stdout.strip() + (" with uncommitted changes" if dirty.stdout.strip() else ""),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workloads": workloads,
    }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    for workload, w in workloads.items():
        for name, row in w["medians"].items():
            if "ratio" in row:
                print(f"{workload:14s} {name:16s} {row['parent']:12.4f} -> {row['change']:12.4f}  x{row['ratio']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
