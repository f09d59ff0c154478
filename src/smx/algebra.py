"""Arithmetic on supermatrices.

Addition wants identical shape and identical partitions; the sum keeps them.
Transposition swaps the two partitions along with the entries. The block
product is the unified rule: A*B is defined exactly when the flat shapes
multiply and A's column partition equals B's row partition; the entries are
the ordinary dense product, the result carries A's row partition and B's
column partition, and the shared inner partition is reported in a witness
rather than in the result.

The gram products a*a^T and a^T*a are symmetric by construction, so gram puts
each row (or column) of a over its lcm once, computes only the entries on and
above the diagonal, and mirrors them; it never builds the transpose.
"""

import math
import operator
from fractions import Fraction
from itertools import chain

from .core import DenseMatrix, Record, SuperMatrix, _columns, _rows, as_rational
from .errors import DimensionMismatch, InvalidValue, PartitionMismatch


class ProductWitness(Record):
    """The partitions that made a block product well formed."""

    __slots__ = ("inner_partition", "left_row_partition", "right_col_partition")

    def __init__(self, inner_partition, left_row_partition, right_col_partition):
        self._init(inner_partition, left_row_partition, right_col_partition)


def value_eq(a, b):
    """Same shape and entries; partitions ignored."""
    return a.data.rows == b.data.rows and a.data.cols == b.data.cols and a.data.entries == b.data.entries


def strict_eq(a, b):
    """Same entries and the same partitions on both axes."""
    return a.row_partition == b.row_partition and a.col_partition == b.col_partition and value_eq(a, b)


def _entrywise(op, a, b):
    """op on matching entries of two supermatrices of identical shape and partitions."""
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
    entries = tuple(k * x for x in a.data.entries)
    return SuperMatrix(DenseMatrix._trusted(a.rows, a.cols, entries), a.row_partition, a.col_partition)


def transpose(a):
    entries = tuple(chain.from_iterable(_columns(a.data)))
    return SuperMatrix(DenseMatrix._trusted(a.cols, a.rows, entries), a.col_partition, a.row_partition)


def _over_lcm(xs):
    """(integer numerators over one common denominator, that denominator)."""
    d = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def _dense_mul(a, b):
    """Rows of a and columns of b over their own lcm denominators: each product
    entry is one integer dot product and one Fraction, not k Fraction sums."""
    rows = [_over_lcm(row) for row in _rows(a)]
    cols = [_over_lcm(col) for col in _columns(b)]
    out = tuple(Fraction(sum(map(operator.mul, r, c)), p * q) for r, p in rows for c, q in cols)
    return DenseMatrix._trusted(a.rows, b.cols, out)


def super_mul(a, b):
    """Unified block product: (result, witness)."""
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
    if side == "right":
        lines, partition = _rows(a.data), a.row_partition
    elif side == "left":
        lines, partition = _columns(a.data), a.col_partition
    else:
        raise InvalidValue(f"side must be 'left' or 'right', got {side!r}")
    scaled = [_over_lcm(line) for line in lines]
    n = len(scaled)
    out = [None] * (n * n)
    for i, (r, p) in enumerate(scaled):
        for j in range(i, n):
            c, q = scaled[j]
            out[i * n + j] = out[j * n + i] = Fraction(sum(map(operator.mul, r, c)), p * q)
    return SuperMatrix(DenseMatrix._trusted(n, n, tuple(out)), partition, partition)
