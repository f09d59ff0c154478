"""Seeded inputs and fixed call lists for the three benchmark workloads.

Shapes, partitions and zero-block patterns are fixed per workload; the seed
draws only the entry values. So every seed gives the same amount of work
and different numbers, and the run-to-run spread measures the program rather
than the draw. Inputs are never reselected: whatever a seed produces is used.

A union is kept here as a list of components ``(rows, row_cuts, col_cuts)``
with ``rows`` a list of lists of ``Fraction``. The program only ever sees the
``.smx`` files written from them.
"""

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction

@dataclass
class Call:
    """One smx invocation. ``argv`` holds ``{in}`` and ``{out}`` placeholders."""

    argv: list
    op: str
    operands: tuple  # names of inputs or of earlier outputs
    out: str = None  # name given to the result when written with -o
    params: dict = field(default_factory=dict)

    def resolve(self, in_dir, out_dir):
        return [a.format(**{"in": in_dir, "out": out_dir}) for a in self.argv]

    def operand_paths(self, in_dir, out_dir):
        """The files the call reads: every path in argv except the -o target."""
        argv = self.resolve(in_dir, out_dir)
        return [p for k, (p, a) in enumerate(zip(argv, self.argv)) if a.startswith("{") and self.argv[k - 1] != "-o"]


@dataclass
class Workload:
    inputs: dict  # file name -> union
    calls: list
    notes: dict  # stated properties, copied into the result


# --- entry profiles ---------------------------------------------------------


def _integer(rng):
    return Fraction(rng.randint(-9, 9))


def _small(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _mixed(rng):
    """Small integers, small rationals and long rationals of up to 30 digits."""
    r = rng.random()
    if r < 0.4:
        return _integer(rng)
    if r < 0.7:
        return _small(rng)
    digits = rng.randint(8, 30)
    num = rng.randint(-(10**digits), 10**digits)
    den = rng.randint(1, 10 ** rng.randint(1, 30))
    return Fraction(num, den)


PROFILES = {"integer": _integer, "small": _small, "mixed": _mixed}


def _cuts(length, count):
    """``count`` cuts spread evenly inside an axis of ``length``."""
    count = min(count, length - 1)
    return tuple(sorted({(k * length) // (count + 1) for k in range(1, count + 1)}))


def _blocks(cuts, length):
    edges = (0,) + tuple(cuts) + (length,)
    return list(zip(edges, edges[1:]))


def _matrix(rng, rows, cols, profile, row_cuts=(), col_cuts=(), zero=None):
    """Random matrix; ``zero(i, j)`` says which blocks of the grid are all zero."""
    draw = PROFILES[profile]
    m = [[draw(rng) for _ in range(cols)] for _ in range(rows)]
    if zero is not None:
        for bi, (r0, r1) in enumerate(_blocks(row_cuts, rows)):
            for bj, (c0, c1) in enumerate(_blocks(col_cuts, cols)):
                if zero(bi, bj):
                    for r in range(r0, r1):
                        m[r][c0:c1] = [Fraction(0)] * (c1 - c0)
    return m


def _symmetric(rng, n, profile):
    draw = PROFILES[profile]
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(rng)
    return m


# Which grid blocks are all zero: off-diagonal ones, or a fixed third of them.
SPARSITY = {
    None: None,
    "block-diagonal": lambda i, j: i != j,
    "block-sparse": lambda i, j: (i + 2 * j) % 3 == 1,
}


# --- dense-product -------------------------------------------------------------

# (left rows, inner, right cols, row cuts, inner cuts, col cuts, profile, arity, sparsity)
# Arity 2 repeats the shapes with fresh values. The inner partition is shared,
# so every product is defined. Sizes spread out so that the median call does
# not sit on a step between two call costs.
_DENSE_MUL = (
    (20, 20, 20, 2, 2, 2, "small", 1, None),
    (29, 24, 22, 3, 2, 3, "integer", 1, "block-sparse"),
    (18, 18, 18, 2, 2, 2, "small", 2, "block-diagonal"),
    (33, 31, 26, 3, 3, 2, "small", 1, None),
    (24, 26, 24, 2, 3, 2, "integer", 1, None),
    (22, 22, 22, 3, 3, 3, "small", 2, "block-sparse"),
    (37, 29, 31, 2, 3, 3, "small", 1, "block-diagonal"),
    (26, 33, 29, 3, 2, 2, "integer", 1, None),
)
# (rows, cols, row cuts, col cuts, profile, arity, sparsity, side)
_DENSE_GRAM = (
    (31, 18, 3, 2, "small", 1, None, "left"),
    (18, 31, 2, 3, "small", 1, "block-sparse", "right"),
    (22, 26, 2, 2, "integer", 2, None, "right"),
    (29, 24, 3, 2, "small", 1, "block-diagonal", "left"),
)


def _dense_product(rng, tiny):
    inputs, calls = {}, []
    shrink = (lambda d: max(3, d // 5)) if tiny else (lambda d: d)
    zero_operands = total_operands = 0
    for k, (n, t, m, rc, ic, cc, profile, arity, sparse) in enumerate(_DENSE_MUL):
        n, t, m = shrink(n), shrink(t), shrink(m)
        rcuts, icuts, ccuts = _cuts(n, rc), _cuts(t, ic), _cuts(m, cc)
        zero = SPARSITY[sparse]
        # The left operand carries the zero pattern; the right one stays dense.
        left = [(_matrix(rng, n, t, profile, rcuts, icuts, zero), rcuts, icuts) for _ in range(arity)]
        right = [(_matrix(rng, t, m, profile, icuts, ccuts), icuts, ccuts) for _ in range(arity)]
        inputs[f"a{k}.smx"], inputs[f"b{k}.smx"] = left, right
        zero_operands += arity if sparse else 0
        total_operands += 2 * arity
        argv = ["mul", "{in}/" + f"a{k}.smx", "{in}/" + f"b{k}.smx"]
        out = None
        if k % 2 == 0:
            out = f"p{k}.smx"
            argv += ["-o", "{out}/" + out]
        calls.append(Call(argv, "mul", (f"a{k}.smx", f"b{k}.smx"), out))
    for k, (n, m, rc, cc, profile, arity, sparse, side) in enumerate(_DENSE_GRAM):
        n, m = shrink(n), shrink(m)
        rcuts, ccuts = _cuts(n, rc), _cuts(m, cc)
        zero = SPARSITY[sparse]
        inputs[f"g{k}.smx"] = [(_matrix(rng, n, m, profile, rcuts, ccuts, zero), rcuts, ccuts) for _ in range(arity)]
        zero_operands += arity if sparse else 0
        total_operands += arity
        argv = ["gram", "{in}/" + f"g{k}.smx", "--side", side]
        out = None
        if k % 2 == 1:
            out = f"q{k}.smx"
            argv += ["-o", "{out}/" + out]
        calls.append(Call(argv, "gram", (f"g{k}.smx",), out, {"side": side}))
    # Interleave muls and grams so a pass is not ordered by cost.
    muls, grams = calls[: len(_DENSE_MUL)], calls[len(_DENSE_MUL) :]
    calls = [c for pair in zip(muls[::2], muls[1::2], grams) for c in pair]
    notes = {"block_sparse_or_diagonal_operand_share": zero_operands / total_operands}
    return inputs, calls, notes


# --- text-bulk -----------------------------------------------------------------

# Component shapes of the bulk unions: (rows, cols, row cuts, col cuts).
def _bulk_layout(arity, tiny):
    out = []
    for k in range(arity):
        rows = 3 + k % 4 if tiny else 12 + (7 * k) % 11
        cols = 3 + (k + 1) % 3 if tiny else 12 + (5 * k) % 13
        out.append((rows, cols, _cuts(rows, 1 + k % 3), _cuts(cols, k % 4)))
    return out


def _text_bulk(rng, tiny):
    arity = 5 if tiny else 28
    layout = _bulk_layout(arity, tiny)
    a = [(_matrix(rng, r, c, "mixed"), rc, cc) for r, c, rc, cc in layout]
    b = [(_matrix(rng, r, c, "mixed"), rc, cc) for r, c, rc, cc in layout]
    # c shares b's entries and a's layout except one component's column cuts.
    c = [(rows, rc, cc) for rows, rc, cc in b]
    mid = arity // 2
    rows, rc, cc = c[mid]
    c[mid] = (rows, rc, _cuts(len(rows[0]), len(cc) + 1))
    # v and w: value-equal components under pairwise different partitions,
    # so improper_pair compares every pair entry by entry and finds none equal.
    sym_arity = 4 if tiny else 18
    n = 4 if tiny else 20
    base = _matrix(rng, n, n, "mixed")
    v = [(base, _cuts(n, 1 + k % 5), _cuts(n, k // 5)) for k in range(sym_arity)]
    w = [(base, cc, rc) for _, rc, cc in v]
    # s: symmetric components (square, equal partitions, mirrored entries),
    # which make the symmetry check scan every entry pair.
    s = []
    for k in range(sym_arity):
        size = n - k % 3
        cuts = _cuts(size, 1 + k % 3)
        s.append((_symmetric(rng, size, "mixed"), cuts, cuts))
    # i: s with its first component repeated last, an improper union.
    i = s + [s[0]]
    inputs = {"a.smx": a, "b.smx": b, "c.smx": c, "v.smx": v, "w.smx": w, "s.smx": s, "i.smx": i}

    def call(argv, op, operands, out=None, **params):
        argv = ["{in}/" + x if x.endswith(".smx") else x for x in argv]
        if out is not None:
            argv += ["-o", "{out}/" + out]
        return Call(argv, op, operands, out, params)

    calls = [
        call(["check", "s.smx"], "check", ("s.smx",), json=False),
        call(["add", "a.smx", "b.smx"], "add", ("a.smx", "b.smx"), "sum.smx"),
        call(["eq", "v.smx", "w.smx", "--mode", "value"], "eq", ("v.smx", "w.smx"), mode="value"),
        call(["sub", "a.smx", "b.smx"], "sub", ("a.smx", "b.smx")),
        call(["check", "i.smx"], "check", ("i.smx",), json=False),
        call(["scale", "7/3", "a.smx"], "scale", ("a.smx",), "scaled.smx", scalar="7/3"),
        call(["classify", "--json", "s.smx"], "classify", ("s.smx",), json=True),
        call(["transpose", "b.smx"], "transpose", ("b.smx",)),
        call(["add", "a.smx", "c.smx"], "add", ("a.smx", "c.smx")),
        call(["eq", "a.smx", "b.smx", "--mode", "strict"], "eq", ("a.smx", "b.smx"), mode="strict"),
        call(["check", "v.smx", "--json"], "check", ("v.smx",), json=True),
        call(["flatten", "a.smx"], "flatten", ("a.smx",), "flat.smx"),
        call(["eq", "v.smx", "w.smx", "--mode", "strict"], "eq", ("v.smx", "w.smx"), mode="strict"),
        call(["sub", "b.smx", "c.smx"], "sub", ("b.smx", "c.smx"), "diff.smx"),
    ]
    return inputs, calls, {"arity": arity, "value_equal_arity": sym_arity, "symmetric_arity": sym_arity}


# --- coeff-growth ----------------------------------------------------------------

# The chain starts from a small union and applies gram repeatedly, each link
# reading the previous link's output, with a check on every link. Numerator
# and denominator bit lengths roughly double per link, from 4 bits to about
# 4,000 after 8 links. The length is fixed, not tuned to any limit. One chain
# per pass keeps a pass short, so a run holds several whole passes.
_CHAIN = ((9, 6, 2, 1), (7, 7, 1, 2), (6, 10, 1, 2))  # (rows, cols, row cuts, col cuts)
CHAIN_LINKS = 8


def _coeff_growth(rng, tiny):
    links = 3 if tiny else CHAIN_LINKS
    comps = ((3, 2, 1, 1),) * 2 if tiny else _CHAIN
    name = "c0.smx"
    inputs = {name: [(_matrix(rng, r, c, "small"), _cuts(r, rc), _cuts(c, cc)) for r, c, rc, cc in comps]}
    calls, src, side = [], "{in}/" + name, "right"
    for j in range(1, links + 1):
        out = f"c{j}.smx"
        calls.append(Call(["gram", src, "--side", side, "-o", "{out}/" + out], "gram", (name,), out, {"side": side}))
        calls.append(Call(["check", "{out}/" + out], "check", (out,), params={"json": False}))
        name, src = out, "{out}/" + out
        side = "left" if side == "right" else "right"
    return inputs, calls, {"arity": len(comps), "links": links}


_BUILDERS = {"dense-product": _dense_product, "text-bulk": _text_bulk, "coeff-growth": _coeff_growth}
WORKLOADS = tuple(_BUILDERS)


def build(name, seed, tiny=False):
    """The workload's inputs and call list for ``seed``; ``tiny`` for self-tests."""
    rng = random.Random(f"{name}:{seed}")
    inputs, calls, notes = _BUILDERS[name](rng, tiny)
    return Workload(inputs, calls, notes)


# --- .smx writing and the input manifest ---------------------------------------


def to_text(union):
    """Plain (not canonical) .smx text: single spaces, ' | ' cuts, '--' rule lines."""
    parts = []
    for rows, row_cuts, col_cuts in union:
        edges = (0,) + tuple(col_cuts) + (len(rows[0]),)
        lines = []
        for r, row in enumerate(rows):
            cells = [str(x) for x in row]
            lines.append(" | ".join(" ".join(cells[c0:c1]) for c0, c1 in zip(edges, edges[1:])))
            if r + 1 in row_cuts:
                lines.append("--")
        parts.append("[ " + "\n  ".join(lines) + " ]")
    return "\nU\n".join(parts) + "\n"


def _profile(union):
    dens = [x.denominator for rows, _, _ in union for row in rows for x in row]
    big = max(dens)
    if big == 1:
        return "integer"
    return "small-rational" if big <= 9 else f"mixed (max denominator {len(str(big))} digits)"


def max_bits(union):
    return max(
        max(abs(x.numerator).bit_length(), x.denominator.bit_length())
        for rows, _, _ in union
        for row in rows
        for x in row
    )


def manifest_entry(union, data):
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "arity": len(union),
        "shapes": [[len(rows), len(rows[0])] for rows, _, _ in union],
        "cuts": [[list(rc), list(cc)] for _, rc, cc in union],
        "denominators": _profile(union),
        "max_bits": max_bits(union),
    }
