"""Run the same smx calls, and parse the same texts, with a parent commit's src/ and with this checkout's.

    python3 tools/cli_diff.py --parent HEAD~1 --seeds 5 11 23

Each side runs in a fresh interpreter whose only smx is its own src/. The two
run at once, each in its own working directory, on the same input files.

The calls are every call of the three benchmark workloads (bench/workloads.py)
at each seed, then error and edge calls: entries beyond the int/str digit
limit, a product in 1-byte slots, undecodable bytes, a byte order mark, a
parse error, an improper union, incompatible operands, usage errors, a missing
input and -o into a missing directory. Outputs go to relative paths, so that
the paths in messages agree. Exit code, stdout, stderr and the -o file must be
equal; a call that raises compares by its exception's type and message.

The texts are 100,000 (300 with --tiny), an equal share drawn with
random.Random(seed) for each seed. A quarter come from the parse alphabet; the
rest are seed texts, mostly ones this checkout parses, with up to three
character edits or a copied span. The seed texts are test_textio's
PARSE_ERRORS, a few valid layouts, and the workloads' tiny inputs at seeds 1
and 7 with windows of their lines. format(parse(text)), or the error's type,
message, line and column, must be equal.

Prints the first ten differences in full and a count; exits 1 on any.
"""

import argparse
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, d) for d in ("tools", "bench")]

import workloads  # noqa: E402
from bench_pairs import export  # noqa: E402

_WIDE = "9" * 5000  # more digits than the default int/str conversion limit of 4300
EDGE_INPUTS = {
    "wide.smx": f"[ 1 -{_WIDE}/7 | 2\n  {_WIDE} 3 | 1/{_WIDE} ]\n".encode(),
    "column.smx": b"[ 1\n  --\n  2 ]\n",
    "row.smx": b"[ 1 | 2 ]\n",
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
    ["mul", "{in}/row.smx", "{in}/column.smx"],
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
TEXTS, TINY_TEXTS = 100_000, 300
VALID = [  # and test_textio.CANONICAL, first
    "[ 1 2\n3 4 ]",
    "[1 2;3 4]",
    "[\t1\t|\t2 ]",
    "[ 1|2 ]",
    "[ 5\n+-+-\n7 ]",
    "[\n1 2\n  ]",
    "  [ 1\n  --\n2 ]",
    "[1]\n∪\n[2]",
    "[ 1 2\r\n3 4 ]\r\n",
]
# The alphabet of test_errors_stay_inside_input, the row characters again (so that edits
# often keep a text valid), and characters the format refuses.
ALPHABET = "[]|;U∪-+/0123456789 \n\r\t" + "[]|U -0123456789\n" + "\xa0\x0c\v@x"


def _digest(data):
    return None if data is None else f"{len(data)} bytes, sha256 {hashlib.sha256(data).hexdigest()[:16]}"


def parse_outcomes(texts):
    """Per text: format(parse(text))'s digest and four Nones, or None and the error's type, message, line, column."""
    from smx import format, parse

    out = []
    for text in texts:
        try:
            out.append([_digest(format(parse(text)).encode()), None, None, None, None])
        except Exception as e:  # an error is an outcome to compare, whatever its type
            out.append([None, type(e).__name__, str(e), getattr(e, "line", None), getattr(e, "column", None)])
    return out


def run_jobs(path):
    """In a side's interpreter: run each (argv, -o file) call and parse each text of the JSON file at path.

    Prints one JSON object. Its "calls" hold, per call, the exit code (or the
    exception it raised), stdout, stderr and the -o file's bytes, the long ones
    as digests; its "texts" hold each text's parse outcome.
    """
    from smx.cli import run

    with open(path) as f:
        jobs = json.load(f)
    results = []
    for argv, target in jobs["calls"]:
        out, err = io.StringIO(), io.StringIO()
        try:
            code = run(argv, out, err)
        except Exception as e:  # a traceback is an outcome to compare, whatever its type
            code = f"raised {type(e).__name__}: {e}"
        written = pathlib.Path(target).read_bytes() if target and os.path.isfile(target) else None
        results.append([code, _digest(out.getvalue().encode()), err.getvalue(), _digest(written)])
    json.dump({"calls": results, "texts": parse_outcomes(jobs["texts"])}, sys.stdout)


def jobs(seeds, tiny, inputs, cwds):
    """Write every input under inputs, and make the empty output directories under each side's cwd.

    Returns (label, argv, -o file) of every call in order. Output paths are relative to the cwd.
    """
    groups = []  # (label, directory name, {file name: bytes}, argv templates)
    for name in workloads.WORKLOADS:
        for seed in seeds:
            wl = workloads.build(name, seed, tiny)
            files = {fname: workloads.to_text(union).encode() for fname, union in wl.inputs.items()}
            groups.append((f"{name} seed {seed}", f"{name}-{seed}", files, [call.argv for call in wl.calls]))
    groups.append(("edge", "edge", EDGE_INPUTS, EDGE_CALLS))
    out = []
    for label, name, files, calls in groups:
        in_dir, out_dir = os.path.join(inputs, name), os.path.join("out", name)
        os.makedirs(in_dir)
        for cwd in cwds:
            os.makedirs(os.path.join(cwd, out_dir))
        for fname, data in files.items():
            with open(os.path.join(in_dir, fname), "wb") as f:
                f.write(data)
        for argv in calls:
            argv = [a.format(**{"in": in_dir, "out": out_dir}) for a in argv]
            out.append((label, argv, argv[argv.index("-o") + 1] if "-o" in argv else None))
    return out


def seed_texts():
    from test_textio import CANONICAL, PARSE_ERRORS

    texts = [text for text, *_ in PARSE_ERRORS] + [CANONICAL] + VALID
    for name in workloads.WORKLOADS:
        for seed in (1, 7):
            rng = random.Random(f"{name}:{seed}")
            for union in workloads.build(name, seed, tiny=True).inputs.values():
                text = workloads.to_text(union)
                texts.append(text)
                lines = text.split("\n")
                for _ in range(5):
                    i = rng.randrange(len(lines))
                    texts.append("\n".join(lines[i : i + rng.randint(1, 6)]))
    return texts


def mutate(rng, text):
    chars = list(text)
    for _ in range(rng.choice((0, 1, 1, 1, 2, 3))):
        i, r = rng.randint(0, len(chars)), rng.random()
        if r < 0.35 and chars:
            del chars[min(i, len(chars) - 1)]
        elif r < 0.7:
            chars.insert(i, rng.choice(ALPHABET))
        elif r < 0.85 and chars:
            chars[min(i, len(chars) - 1)] = rng.choice(ALPHABET)
        else:
            j = rng.randint(0, len(chars))
            chars[i:i] = chars[j : j + rng.randint(1, 12)]
    return "".join(chars)


def fuzz_texts(seeds, count):
    """count texts, an equal share drawn with random.Random(seed) for each seed, from the alphabet or the seed texts."""
    base = seed_texts()
    valid = [text for text, outcome in zip(base, parse_outcomes(base)) if outcome[1] is None]
    texts = []
    for seed in seeds:
        rng = random.Random(seed)
        for _ in range(-(-count // len(seeds))):
            r = rng.random()
            if r < 0.25:
                texts.append("".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 40))))
            else:
                texts.append(mutate(rng, rng.choice(valid if r < 0.6 else base)))
    return texts


def run_side(src, path, cwd):
    """The outcome of every call and text in the jobs file at path with the smx under src, run in cwd."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = src
    argv = [sys.executable, os.path.abspath(__file__), "--run-jobs", path]
    done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"cli_diff: the side under {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


FIELDS = ("exit code", "stdout", "stderr", "-o file")
PARSE_FIELDS = ("format output", "error type", "error message", "error line", "error column")


def differences(items, parent, change, fields=FIELDS):
    """(label, subject, field, parent value, change value) for every field that differs.

    An item is a call (label, argv, -o file) or a text ("parse", text).
    """
    return [
        (label, subject, field, a, b)
        for (label, subject, *_), pa, pb in zip(items, parent, change)
        for field, a, b in zip(fields, pa, pb)
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
    sys.path[:0] = [os.path.join(ROOT, d) for d in ("tests", "src")]  # test_textio, and this checkout's smx
    texts = fuzz_texts(args.seeds, TINY_TEXTS if args.tiny else TEXTS)
    with tempfile.TemporaryDirectory(prefix="cli-diff-") as work:
        parent_sha, parent_root = export(args.parent, work)
        cwds = [os.path.join(work, "parent-run"), os.path.join(work, "change-run")]
        job_list = jobs(args.seeds, args.tiny, os.path.join(work, "in"), cwds)
        path = os.path.join(work, "jobs.json")
        with open(path, "w") as f:
            json.dump({"calls": [[argv, target] for _, argv, target in job_list], "texts": texts}, f)
        with ThreadPoolExecutor(2) as pool:  # the two sides at once
            srcs = [os.path.join(parent_root, "src"), os.path.join(ROOT, "src")]
            parent, change = pool.map(run_side, srcs, [path, path], cwds)
    found = differences(job_list, parent["calls"], change["calls"])
    found += differences([("parse", text) for text in texts], parent["texts"], change["texts"], PARSE_FIELDS)
    for label, subject, field, a, b in found[:10]:
        shown = repr(subject[:200]) if label == "parse" else "smx " + " ".join(subject)
        print(f"{label}: {shown}: {field} differs\n  parent {_short(a)}\n  change {_short(b)}")
    parsed = sum(outcome[1] is None for outcome in parent["texts"])
    print(
        f"parent {parent_sha[:12]}, seeds {' '.join(map(str, args.seeds))}{' (tiny)' if args.tiny else ''}: "
        f"{len(job_list)} calls, {len(texts)} texts ({parsed} parsed, {len(texts) - parsed} errors), "
        f"{len(found)} differences"
    )
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
