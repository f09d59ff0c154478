"""Print the benchmark trajectory: each BENCH_<n>.json's change/parent ratio and their chained product.

    python3 tools/bench_trajectory.py

It reads every BENCH_<n>.json at the root of the repository, in order of n,
as tools/bench_pairs.py writes them. For each workload and each end-to-end
metric of BENCHMARK.json it prints one line: the ratio of the change's median
to the parent's in each file, then the product of those ratios. Absolute
values move between sessions on a shared machine, so only ratios measured
within one file are chained. A file without a ratio for a metric (a tail
metric with no pair at one rung, or a parent median of 0) shows "-" and
leaves the product as it is. A file that is not such a record ends the run
with exit status 1 and a message naming it.
"""

import json
import math
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench_files():
    """The BENCH_<n>.json files at the root of the repository, in order of n."""
    names = [f for f in os.listdir(ROOT) if re.fullmatch(r"BENCH_\d+\.json", f)]
    return [os.path.join(ROOT, f) for f in sorted(names, key=lambda f: int(f[len("BENCH_") : -len(".json")]))]


def ratios(path, metrics):
    """{workload: {metric: change/parent or None}} of one BENCH file; ValueError if malformed."""
    name = os.path.basename(path)
    try:
        with open(path) as f:
            workloads = json.load(f)["workloads"]
        out = {}
        for workload, record in workloads.items():
            medians = record["medians"]
            row = out[workload] = {}
            for metric in metrics:
                parent, change = medians[metric].get("parent"), medians[metric].get("change")
                for value in (parent, change):
                    if value is not None and (type(value) not in (int, float) or not math.isfinite(value)):
                        raise ValueError(f"{metric} median {value!r} is not a finite number")
                row[metric] = change / parent if parent and change is not None else None
        return out
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as e:
        raise ValueError(f"{name}: not a benchmark record ({type(e).__name__}: {e})") from None


def trajectory(paths, metrics):
    """(file labels, {workload: {metric: [ratio or None per file]}}) over paths in order."""
    per_file = [ratios(path, metrics) for path in paths]
    workloads = list(dict.fromkeys(w for r in per_file for w in r))
    table = {w: {m: [r.get(w, {}).get(m) for r in per_file] for m in metrics} for w in workloads}
    labels = [os.path.basename(p)[len("BENCH_") : -len(".json")] for p in paths]
    return labels, table


def render(labels, table):
    """The trajectory as text: one block per workload, one line per metric."""
    lines = []
    width = max(map(len, (m for rows in table.values() for m in rows)), default=0)
    for workload, rows in table.items():
        lines.append(workload)
        lines.append(f"  {'metric':{width}s}" + "".join(f"{'#' + label:>8s}" for label in labels) + f"{'chained':>9s}")
        for metric, values in rows.items():
            cells = "".join(f"{'-' if v is None else f'{v:.3f}':>8s}" for v in values)
            chained = math.prod(v for v in values if v is not None)
            lines.append(f"  {metric:{width}s}{cells}{'x' + format(chained, '.3f'):>9s}")
    return "\n".join(lines)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = [m["name"] for m in json.load(f)["end_to_end"]]
    paths = bench_files()
    if not paths:
        sys.exit("bench_trajectory: no BENCH_<n>.json at the root of the repository")
    try:
        labels, table = trajectory(paths, metrics)
    except ValueError as e:
        sys.exit(f"bench_trajectory: {e}")
    print(render(labels, table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
