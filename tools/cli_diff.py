"""Run the same smx command lines with a parent commit's src/ and with this checkout's, and compare.

    python3 tools/cli_diff.py --parent HEAD~1 --seeds 5 11 23

The calls are every call of the three benchmark workloads (bench/workloads.py)
at each seed, then a fixed list of error and edge calls: entries beyond the
int/str digit limit, undecodable bytes, a byte order mark, a parse error, an
improper union, incompatible operands, usage errors, a missing input and -o
into a missing directory. Each side runs all of them in order through
smx.cli.run, in a fresh interpreter whose only smx is that side's src/, on the
same input files and into the same emptied output directory, so that the paths
in messages agree. For every call the exit code, stdout, stderr and the bytes
of the -o file must be equal; a call that raises instead compares by its
exception's type and message. Prints each difference (the first ten in full)
and a count, and exits 1 on any difference.
"""

import argparse
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, d) for d in ("tools", "bench")]

import workloads  # noqa: E402
from bench_pairs import export  # noqa: E402

WORKLOADS = ("dense-product", "text-bulk", "coeff-growth")
_WIDE = "9" * 5000  # more digits than the default int/str conversion limit of 4300
EDGE_INPUTS = {
    "wide.smx": f"[ 1 -{_WIDE}/7 | 2\n  {_WIDE} 3 | 1/{_WIDE} ]\n".encode(),
    "column.smx": b"[ 1\n  --\n  2 ]\n",
    "bad-utf8.smx": b"[ 1 \xff 2 ]\n",
    "bom.smx": "\ufeff[ 1 2 | 3 ]\nU\n[ 4 ]\n".encode(),
    "ragged.smx": b"[ 1 2\n  3 ]\n",
    "improper.smx": b"[ 1 2 ]\nU\n[ 1 2 ]\n",
}
EDGE_CALLS = [
    ["transpose", "{in}/wide.smx"],
    ["scale", "-3/2", "{in}/wide.smx"],
    ["scale", f"-{_WIDE}/3", "{in}/bom.smx"],
    ["gram", "--side", "left", "{in}/wide.smx"],
    ["add", "{in}/wide.smx", "{in}/wide.smx", "-o", "{out}/wide-sum.smx"],
    ["sub", "{in}/wide.smx", "{out}/wide-sum.smx"],
    ["mul", "{in}/wide.smx", "{in}/column.smx"],
    ["check", "{in}/wide.smx"],
    ["check", "{in}/bad-utf8.smx"],
    ["transpose", "{in}/bom.smx"],
    ["check", "--json", "{in}/bom.smx"],
    ["check", "{in}/ragged.smx"],
    ["check", "{in}/improper.smx"],
    ["classify", "{in}/improper.smx"],
    ["add", "{in}/bom.smx", "{in}/improper.smx"],
    ["eq", "--mode", "value", "{in}/bom.smx", "{in}/improper.smx"],
    ["check", "{in}/missing.smx"],
    ["transpose", "{in}/bom.smx", "-o", "{out}/no-such-dir/t.smx"],
    [],
    ["bogus"],
    ["mul", "{in}/bom.smx"],
    ["scale", "q", "{in}/bom.smx"],
    ["scale", "1/0", "{in}/bom.smx"],
    ["gram", "{in}/bom.smx"],
    ["eq", "{in}/bom.smx", "{in}/bom.smx"],
    ["-h"],
    ["scale", "-h"],
]


def _digest(data):
    return None if data is None else f"{len(data)} bytes, sha256 {hashlib.sha256(data).hexdigest()[:16]}"


def _read(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except (FileNotFoundError, NotADirectoryError):
        return None


def run_jobs(path):
    """In a side's interpreter: run each (argv, -o file) job of the JSON file at path.

    Prints one JSON list with, per job, its exit code (or the exception it
    raised), stdout, stderr and the -o file's bytes, the long ones as digests.
    """
    from smx.cli import run

    with open(path) as f:
        jobs = json.load(f)
    results = []
    for argv, target in jobs:
        out, err = io.StringIO(), io.StringIO()
        try:
            code = run(argv, out, err)
        except Exception as e:  # a traceback is an outcome to compare, whatever its type
            code = f"raised {type(e).__name__}: {e}"
        written = _read(target) if target else None
        results.append([code, _digest(out.getvalue().encode()), err.getvalue(), _digest(written)])
    json.dump(results, sys.stdout)


def jobs(seeds, tiny, inputs, outputs):
    """Write every input under inputs. (label, argv, -o file) of every call in order, and the output directories."""
    out, out_dirs = [], []
    for name in WORKLOADS:
        for seed in seeds:
            wl = workloads.build(name, seed, tiny)
            in_dir = os.path.join(inputs, f"{name}-{seed}")
            out_dir = os.path.join(outputs, f"{name}-{seed}")
            os.makedirs(in_dir)
            out_dirs.append(out_dir)
            for fname, union in wl.inputs.items():
                with open(os.path.join(in_dir, fname), "wb") as f:
                    f.write(workloads.to_text(union).encode())
            for call in wl.calls:
                target = os.path.join(out_dir, call.out) if call.out else None
                out.append((f"{name} seed {seed}", call.resolve(in_dir, out_dir), target))
    in_dir, out_dir = os.path.join(inputs, "edge"), os.path.join(outputs, "edge")
    os.makedirs(in_dir)
    out_dirs.append(out_dir)
    for fname, data in EDGE_INPUTS.items():
        with open(os.path.join(in_dir, fname), "wb") as f:
            f.write(data)
    for argv in EDGE_CALLS:
        argv = [a.format(**{"in": in_dir, "out": out_dir}) for a in argv]
        target = argv[argv.index("-o") + 1] if "-o" in argv else None
        out.append(("edge", argv, target))
    return out, out_dirs


def run_side(src, job_list, out_dirs, work):
    """Every job's outcome with the smx under src, starting from empty output directories."""
    for d in out_dirs:
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
    path = os.path.join(work, "jobs.json")
    with open(path, "w") as f:
        json.dump([[argv, target] for _, argv, target in job_list], f)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = src
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--run-jobs", path], env=env, capture_output=True, text=True
    )
    if done.returncode != 0:
        sys.exit(f"cli_diff: the side under {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


FIELDS = ("exit code", "stdout", "stderr", "-o file")


def differences(job_list, parent, change):
    """(label, argv, field, parent value, change value) for every field that differs."""
    return [
        (label, argv, field, a, b)
        for (label, argv, _), pa, pb in zip(job_list, parent, change)
        for field, a, b in zip(FIELDS, pa, pb)
        if a != b
    ]


def _short(value):
    text = repr(value)
    return text if len(text) <= 300 else text[:300] + "..."


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="the commit to compare this checkout against")
    ap.add_argument("--seeds", type=int, nargs="+", default=[5, 11, 23])
    ap.add_argument("--tiny", action="store_true", help="the workloads' small self-test inputs")
    ap.add_argument("--run-jobs", metavar="JOBS", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.run_jobs:
        run_jobs(args.run_jobs)
        return 0
    if not args.parent:
        ap.error("--parent is required")
    with tempfile.TemporaryDirectory(prefix="cli-diff-") as work:
        parent_sha, parent_root = export(args.parent, work)
        inputs, outputs = os.path.join(work, "in"), os.path.join(work, "out")
        job_list, out_dirs = jobs(args.seeds, args.tiny, inputs, outputs)
        parent = run_side(os.path.join(parent_root, "src"), job_list, out_dirs, work)
        change = run_side(os.path.join(ROOT, "src"), job_list, out_dirs, work)
    found = differences(job_list, parent, change)
    for k, (label, call, field, a, b) in enumerate(found):
        if k < 10:
            print(f"{label}: smx {' '.join(call)}: {field} differs\n  parent {_short(a)}\n  change {_short(b)}")
    print(
        f"parent {parent_sha[:12]}, seeds {' '.join(map(str, args.seeds))}{' (tiny)' if args.tiny else ''}: "
        f"{len(job_list)} calls, {len(found)} differences"
    )
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
