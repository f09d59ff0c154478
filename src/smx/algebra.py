"""Arithmetic on supermatrices.

Addition wants identical shape and identical partitions; the sum keeps them.
Transposition swaps the two partitions along with the entries. The block
product is the unified rule: A*B is defined exactly when the flat shapes
multiply and A's column partition equals B's row partition; the entries are
the ordinary dense product, the result carries A's row partition and B's
column partition, and the shared inner partition is reported in a witness
rather than in the result. The product puts each row of A and each column of B
over its lcm and computes a whole row of integer dot products as one packed
big-integer sum, one slot per column, wide enough that no slot overflows.

The gram products a*a^T and a^T*a are symmetric by construction, so gram puts
each row (or column) of a over its lcm once, computes only the entries on and
above the diagonal, and mirrors them; it never builds the transpose.
"""

import math
import operator
from fractions import Fraction
from itertools import chain

from .core import DenseMatrix, Record, SuperMatrix, _columns, _expect, _rows, as_rational
from .errors import DimensionMismatch, InvalidValue, PartitionMismatch


class ProductWitness(Record):
    """The partitions that made a block product well formed."""

    __slots__ = ("inner_partition", "left_row_partition", "right_col_partition")

    def __init__(self, inner_partition, left_row_partition, right_col_partition):
        self._init(inner_partition, left_row_partition, right_col_partition)


def value_eq(a, b):
    """Same shape and entries; partitions ignored."""
    _expect(SuperMatrix, a, b)
    return a.data.rows == b.data.rows and a.data.cols == b.data.cols and a.data.entries == b.data.entries


def strict_eq(a, b):
    """Same entries and the same partitions on both axes."""
    _expect(SuperMatrix, a, b)
    return a.row_partition == b.row_partition and a.col_partition == b.col_partition and value_eq(a, b)


def _entrywise(op, a, b):
    """op on matching entries of two supermatrices of identical shape and partitions."""
    _expect(SuperMatrix, a, b)
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch(f"operand shapes differ: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    if a.row_partition != b.row_partition:
        raise PartitionMismatch(
            f"partition mismatch: row cuts {list(a.row_cuts)} vs {list(b.row_cuts)}"
        )
    if a.col_partition != b.col_partition:
        raise PartitionMismatch(
            f"partition mismatch: column cuts {list(a.col_cuts)} vs {list(b.col_cuts)}"
        )
    entries = tuple(map(op, a.data.entries, b.data.entries))
    return SuperMatrix(DenseMatrix._trusted(a.rows, a.cols, entries), a.row_partition, a.col_partition)


def add(a, b):
    return _entrywise(operator.add, a, b)


def sub(a, b):
    return _entrywise(operator.sub, a, b)


def scale(k, a):
    k = as_rational(k)
    _expect(SuperMatrix, a)
    entries = tuple(k * x for x in a.data.entries)
    return SuperMatrix(DenseMatrix._trusted(a.rows, a.cols, entries), a.row_partition, a.col_partition)


def transpose(a):
    _expect(SuperMatrix, a)
    entries = tuple(chain.from_iterable(_columns(a.data)))
    return SuperMatrix(DenseMatrix._trusted(a.cols, a.rows, entries), a.col_partition, a.row_partition)


def _over_lcm(xs):
    """(integer numerators over one common denominator, that denominator)."""
    ratios = [x.as_integer_ratio() for x in xs]
    d = math.lcm(*(q for _, q in ratios))
    return [n * (d // q) for n, q in ratios], d


def _dense_mul(a, b):
    """Rows of a and columns of b over their own lcm denominators, and each row of
    the integer product computed as one big-integer sum (Kronecker substitution).

    Row k of the scaled b is packed into P_k = sum_j c_kj << (s*j), so that
    sum_k r_ik * P_k holds the m dot products of row i in slots of s = 8w bits.
    Every |dot| <= t * max|r| * max|c| < 2^(s-1), t being a's column count, and a
    bias of 2^(s-1) in every slot makes each slot non-negative, so no slot
    borrows from the next and each is read back from the row's little-endian
    bytes. Each entry is then one Fraction, not t Fraction sums.
    """
    rows = [_over_lcm(row) for row in _rows(a)]
    cols = [_over_lcm(col) for col in _columns(b)]
    bits = (
        max(max(map(abs, r)) for r, _ in rows).bit_length()
        + max(max(map(abs, c)) for c, _ in cols).bit_length()
        + a.cols.bit_length()
    )
    w = bits // 8 + 1  # bytes per slot, the least with 8w - 1 >= bits
    shifts = range(0, 8 * w * b.cols, 8 * w)
    packed = [sum(map(operator.lshift, line, shifts)) for line in zip(*(c for c, _ in cols))]
    half = 1 << (8 * w - 1)
    bias = sum(half << shift for shift in shifts)
    size = w * b.cols
    out = []
    for r, p in rows:
        slots = sum(map(operator.mul, r, packed), bias).to_bytes(size, "little")
        out += [
            Fraction(int.from_bytes(slots[k : k + w], "little") - half, p * q)
            for k, (_, q) in zip(range(0, size, w), cols)
        ]
    return DenseMatrix._trusted(a.rows, b.cols, tuple(out))


def super_mul(a, b):
    """Unified block product: (result, witness)."""
    _expect(SuperMatrix, a, b)
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    if a.col_partition != b.row_partition:
        raise PartitionMismatch(
            f"partition mismatch: inner cuts {list(a.col_cuts)} vs {list(b.row_cuts)}"
        )
    product = SuperMatrix(_dense_mul(a.data, b.data), a.row_partition, b.col_partition)
    witness = ProductWitness(a.col_partition, a.row_partition, b.col_partition)
    return product, witness


def gram(a, side="right"):
    """a * a^T (side="right") or a^T * a (side="left"). Always defined.

    Entry (i, j) is the dot product of rows (right) or columns (left) i and j
    of a, so only i <= j is computed and each entry is mirrored. The result
    carries a's row (right) or column (left) partition on both axes.
    """
    if side not in ("right", "left"):
        raise InvalidValue(f"side must be 'left' or 'right', got {side!r}")
    _expect(SuperMatrix, a)
    if side == "right":
        lines, partition = _rows(a.data), a.row_partition
    else:
        lines, partition = _columns(a.data), a.col_partition
    scaled = [_over_lcm(line) for line in lines]
    n = len(scaled)
    out = [None] * (n * n)
    for i, (r, p) in enumerate(scaled):
        for j in range(i, n):
            c, q = scaled[j]
            out[i * n + j] = out[j * n + i] = Fraction(sum(map(operator.mul, r, c)), p * q)
    return SuperMatrix(DenseMatrix._trusted(n, n, tuple(out)), partition, partition)
