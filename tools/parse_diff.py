"""Parse the same random and mutated .smx texts with a parent commit's smx and with this checkout's.

    python3 tools/parse_diff.py --parent HEAD~1 --texts 100000 --seed 1

The seed texts are every PARSE_ERRORS text in tests/test_textio.py, a few
valid layouts, the small-size inputs of the three benchmark workloads at
seeds 1 and 7, and windows of their lines. A quarter of the texts are drawn
from the parse alphabet outright; the rest are seed texts, mostly valid ones,
with zero to three random character edits or a copied span. For each text
both sides give either their format output or their error's type, message,
line and column, and the two must be equal. Exits 1 on any difference.
"""

import argparse
import importlib
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, d) for d in ("tools", "bench", "tests", "src")]  # tests import smx

import workloads  # noqa: E402
from bench_pairs import export  # noqa: E402
from test_textio import CANONICAL, PARSE_ERRORS  # noqa: E402

VALID = [
    CANONICAL,
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


def load(src):
    """(parse, format) of the smx package under src, imported afresh."""
    for name in [n for n in sys.modules if n == "smx" or n.startswith("smx.")]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        smx = importlib.import_module("smx")
    finally:
        sys.path.remove(src)
    return smx.parse, smx.format


def outcome(side, text):
    parse, format = side
    try:
        return ("ok", format(parse(text)))
    except Exception as e:  # an error is an outcome to compare, whatever its type
        return ("error", type(e).__name__, str(e), getattr(e, "line", None), getattr(e, "column", None))


def seed_texts():
    texts = [text for text, *_ in PARSE_ERRORS] + VALID
    for name in ("dense-product", "text-bulk", "coeff-growth"):
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the commit to compare this checkout against")
    ap.add_argument("--texts", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="parse-diff-") as tmp:
        parent_sha, parent_root = export(args.parent, tmp)
        parent = load(os.path.join(parent_root, "src"))
    change = load(os.path.join(ROOT, "src"))
    seeds = seed_texts()
    valid = [t for t in seeds if outcome(change, t)[0] == "ok"]
    rng = random.Random(args.seed)
    parsed = differences = 0
    for _ in range(args.texts):
        r = rng.random()
        if r < 0.25:
            text = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 40)))
        else:
            text = mutate(rng, rng.choice(valid if r < 0.6 else seeds))
        a, b = outcome(parent, text), outcome(change, text)
        parsed += a[0] == "ok"
        if a != b:
            differences += 1
            if differences <= 10:
                print(f"differ on {text[:200]!r}:\n  parent {a}\n  change {b}")
    print(
        f"parent {parent_sha[:12]}, seed {args.seed}: {args.texts} texts, {parsed} parsed, "
        f"{args.texts - parsed} errors, {differences} differences"
    )
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
