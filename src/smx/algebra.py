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
from itertools import repeat

from .core import DenseMatrix, Record, SuperMatrix, _columns, _expect, _flat, _ratio, _rows, _stacked
from .core import as_rational  # noqa: F401  bench/spans.py counts the coercions made through this name
from .errors import DimensionMismatch, InvalidValue, PartitionMismatch


class ProductWitness(Record):
    """The partitions that made a block product well formed."""

    __slots__ = ("inner_partition", "left_row_partition", "right_col_partition")

    def __init__(self, inner_partition, left_row_partition, right_col_partition):
        self._init(inner_partition, left_row_partition, right_col_partition)


def value_eq(a, b):
    """Same shape and entries; partitions ignored."""
    _expect(SuperMatrix, a, b)
    return a.data == b.data  # entries in lowest terms: equal values are equal pairs


def strict_eq(a, b):
    """Same entries and the same partitions on both axes."""
    _expect(SuperMatrix, a, b)
    return a.row_partition == b.row_partition and a.col_partition == b.col_partition and value_eq(a, b)


def _reduced(rows, cols, nums, dens):
    """The DenseMatrix of the entries nums[k] / dens[k], each put in lowest terms by one gcd."""
    g = list(map(math.gcd, nums, dens))
    nums, dens = tuple(map(operator.floordiv, nums, g)), tuple(map(operator.floordiv, dens, g))
    return DenseMatrix._trusted(rows, cols, nums, dens)


def _entrywise(op, a, b):
    """op (add or sub) on matching entries of two supermatrices of identical shape and partitions."""
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
    (an, ad), (bn, bd) = _flat(a.data), _flat(b.data)
    nums = list(map(op, map(operator.mul, an, bd), map(operator.mul, bn, ad)))
    data = _reduced(a.rows, a.cols, nums, list(map(operator.mul, ad, bd)))
    return SuperMatrix(data, a.row_partition, a.col_partition)


def add(a, b):
    return _entrywise(operator.add, a, b)


def sub(a, b):
    return _entrywise(operator.sub, a, b)


def scale(k, a):
    kn, kd = _ratio(k)
    _expect(SuperMatrix, a)
    nums, dens = _flat(a.data)
    nums, dens = list(map(operator.mul, repeat(kn), nums)), list(map(operator.mul, repeat(kd), dens))
    data = _reduced(a.rows, a.cols, nums, dens)
    return SuperMatrix(data, a.row_partition, a.col_partition)


def transpose(a):
    _expect(SuperMatrix, a)
    return SuperMatrix(_stacked(_columns(a.data)), a.col_partition, a.row_partition)


def _over_lcm(line):
    """(integer numerators, d) of a line, a (numerators, denominators) pair, put over d, the lcm of its denominators."""
    nums, dens = line
    d = math.lcm(*dens)
    return list(map(operator.mul, nums, map(operator.floordiv, repeat(d), dens))), d


def _dense_mul(a, b):
    """Rows of a and columns of b over their own lcm denominators, and each row of
    the integer product computed as one big-integer sum (Kronecker substitution).

    Row k of the scaled b is packed into P_k = sum_j c_kj << (s*j), so that
    sum_k r_ik * P_k holds the m dot products of row i in slots of s = 8w bits.
    Every |dot| <= t * max|r| * max|c| < 2^(s-1), t being a's column count, and a
    bias of 2^(s-1) in every slot makes each slot non-negative, so no slot
    borrows from the next and each is read back from the row's little-endian
    bytes. Entry (i, j) is then the dot over p_i * q_j, not t rational sums.
    """
    rows = [_over_lcm(line) for line in _rows(a)]
    cols = [_over_lcm(line) for line in _columns(b)]
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
    col_dens = [q for _, q in cols]
    nums, dens = [], []
    for r, p in rows:
        slots = sum(map(operator.mul, r, packed), bias).to_bytes(size, "little")
        nums += [int.from_bytes(slots[k : k + w], "little") - half for k in range(0, size, w)]
        dens += map(operator.mul, repeat(p), col_dens)
    return _reduced(a.rows, b.cols, nums, dens)


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
    nums, dens = [0] * (n * n), [1] * (n * n)
    for i, (r, p) in enumerate(scaled):
        for j in range(i, n):
            c, q = scaled[j]
            dot, pq = sum(map(operator.mul, r, c)), p * q
            g = math.gcd(dot, pq)
            nums[i * n + j] = nums[j * n + i] = dot // g
            dens[i * n + j] = dens[j * n + i] = pq // g
    return SuperMatrix(DenseMatrix._trusted(n, n, tuple(nums), tuple(dens)), partition, partition)
