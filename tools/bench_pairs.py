"""Run bench/run.py on a parent commit and on this checkout, alternately, and record both.

    python3 tools/bench_pairs.py --parent HEAD~1 --out BENCH_<n>.json \\
        --workload text-bulk --seeds 101 102 103 --seconds 30

The parent's committed src/ is exported with ``git archive`` into a
temporary directory, beside a copy of this checkout's bench/ without its
_run/, so that one harness measures both sides; this checkout is the working
tree as it stands. For every workload and seed the two sides run one after
the other, parent first in even-numbered pairs and this checkout first in
odd-numbered ones, so that drift in the machine's speed does not favour one
side. The output holds each pair's two records (without the per-input
manifest, which is only compared) and, per workload and metric, the median
of each side and their ratio, the pairs the change won, lost and tied, the
parent's quartiles, and whether the claim rule holds: the change won at
least nine tenths of the pairs, and its median is better than the parent's
by more than the parent's quartile gap.

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
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TAILS = ("call_ms_tail", "inproc_ms_tail")
SIDES = ("parent", "change")


def export(rev, directory):
    """rev's full sha, and a new tree under directory that holds rev's committed src/."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", sha, "src"], cwd=ROOT, check=True, capture_output=True).stdout
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


def medians(pairs, better):
    """Per metric: each side's median over the pairs, change / parent, and the claim rule's terms.

    better maps a metric to "lower" or "higher", as BENCHMARK.json states it. A pair is won
    when the change's value is better than the parent's, lost when it is worse, and tied
    when they are equal. The parent's quartiles are those of statistics.quantiles. The claim
    rule is met when the change won at least nine tenths of all pairs run and its median is
    better than the parent's by more than the distance between the parent's quartiles.
    """
    out = {}
    for name in pairs[0]["parent"]["result"]["metrics"]:
        usable = [p for p in pairs if name not in TAILS or p["tail_rungs"][name][0] == p["tail_rungs"][name][1]]
        row = {"pairs": len(usable)}
        if usable:
            values = {side: [p[side]["result"]["metrics"][name]["value"] for p in usable] for side in SIDES}
            for side in SIDES:
                row[side] = statistics.median(values[side])
            row["ratio"] = row["change"] / row["parent"] if row["parent"] else None
            sign = -1 if better[name] == "lower" else 1  # sign * (change - parent) > 0: the change is better
            gains = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
            row["won"], row["lost"] = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
            row["tied"] = len(gains) - row["won"] - row["lost"]
            if len(usable) > 1:
                row["parent_q1"], _, row["parent_q3"] = statistics.quantiles(values["parent"], n=4)
                gap = sign * (row["change"] - row["parent"])
                row["claim_met"] = row["won"] >= 0.9 * len(pairs) and gap > row["parent_q3"] - row["parent_q1"]
        if name in TAILS:
            row["tail_rungs_differ"] = len(pairs) - len(usable)
        out[name] = row
    return out


def describe(row):
    """One printed line's worth of a medians row: the ratio, the pairs won, lost and tied, and the claim rule."""
    text = f"{row['parent']:12.4f} -> {row['change']:12.4f}  x{row['ratio']:.3f}" if row["ratio"] is not None else ""
    text += f"  won {row['won']} lost {row['lost']} tied {row['tied']}"
    if "claim_met" in row:
        text += f"  parent quartiles {row['parent_q1']:.4f} {row['parent_q3']:.4f}"
        text += f"  claim {'met' if row['claim_met'] else 'not met'}"
    return text


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
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_sha, parent_root = export(args.parent, tmp)
        shutil.copytree(
            os.path.join(ROOT, "bench"), os.path.join(parent_root, "bench"), ignore=shutil.ignore_patterns("_run")
        )
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
            workloads[workload] = {"medians": medians(pairs, better), "pairs": pairs}
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
                print(f"{workload:14s} {name:16s} {describe(row)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
