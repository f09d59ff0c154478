"""Arithmetic on supermatrices.

Addition wants identical shape and identical partitions; the sum keeps them.
Transposition swaps the two partitions along with the entries. The block
product is the unified rule: A*B is defined exactly when the flat shapes
multiply and A's column partition equals B's row partition; the entries are
the ordinary dense product, the result carries A's row partition and B's
column partition, and the shared inner partition is reported in a witness
rather than in the result. The product puts each row of A and each column of B
over its lcm and computes a whole row of integer dot products as one packed
big-integer sum, one slot per column, wide enough that no slot overflows. One
struct.unpack reads back all rows' little-endian slots of 1, 2, 4 or 8 bytes,
wider ones one at a time. Lines over lcm 1 are not rescaled, nor entries over 1 reduced.

The gram products a*a^T and a^T*a are symmetric by construction, so gram puts
each row (or column) of a over its lcm once, computes only the entries on and
above the diagonal, and mirrors them; it never builds the transpose.
"""

import math
import operator
import struct
from itertools import chain, repeat

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
    return (list(map(operator.mul, nums, map(operator.floordiv, repeat(d), dens))) if d != 1 else nums), d


_SLOT_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}  # struct's signed standard sizes, the same on every platform


def _dense_mul(a, b):
    """Rows of a and columns of b over their own lcm denominators, and each row of
    the integer product computed as one big-integer sum (Kronecker substitution).

    Row k of the scaled b is packed into P_k = sum_j c_kj << (s*j), so that
    sum_k r_ik * P_k holds the m dot products of row i in slots of s = 8w bits.
    Every |dot| <= t * max|r| * max|c| < 2^(s-1), t being a's column count. A bias
    of 2^(s-1) per slot keeps each slot non-negative, so none borrows from the next,
    and xor with the bias leaves each dot in two's complement. w is the least of 1,
    2, 4 and 8 bytes that holds the bound, so one struct.unpack reads all n*m dots
    from the rows' little-endian bytes; a wider w reads each slot with int.from_bytes.
    Entry (i, j) is the dot over p_i * q_j, reduced unless every p_i and q_j is 1.
    """
    rows = [_over_lcm(line) for line in _rows(a)]
    m, b_dens = b.cols, _flat(b)[1]
    col_dens = [math.lcm(*b_dens[j::m]) for j in range(m)]
    unit = max(col_dens) == 1
    right = [c if unit else list(map(operator.mul, c, map(operator.floordiv, col_dens, e))) for c, e in _rows(b)]
    bits = max(max(map(abs, r)) for r, _ in rows).bit_length() + a.cols.bit_length()
    bits += max(max(map(abs, c)) for c in right).bit_length()
    w = next((k for k in _SLOT_FORMATS if 8 * k > bits), bits // 8 + 1)
    shifts = range(0, 8 * w * m, 8 * w)  # column 0 in the lowest bits: the first little-endian bytes
    packed = [sum(map(operator.lshift, c, shifts)) for c in right]
    bias = sum((1 << (8 * w - 1)) << shift for shift in shifts)
    buf = b"".join((sum(map(operator.mul, r, packed), bias) ^ bias).to_bytes(w * m, "little") for r, _ in rows)
    if w in _SLOT_FORMATS:
        nums = struct.unpack(f"<{a.rows * m}{_SLOT_FORMATS[w]}", buf)
    else:  # wider than any format: one slot at a time
        nums = tuple(int.from_bytes(buf[k : k + w], "little", signed=True) for k in range(0, len(buf), w))
    if unit and all(p == 1 for _, p in rows):
        return DenseMatrix._trusted(a.rows, m, nums, (1,) * len(nums))
    dens = list(chain.from_iterable(map(operator.mul, repeat(p), col_dens) for _, p in rows))
    return _reduced(a.rows, m, nums, dens)


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
            if pq > 1:
                g = math.gcd(dot, pq)
                dot, pq = dot // g, pq // g
            nums[i * n + j] = nums[j * n + i] = dot
            dens[i * n + j] = dens[j * n + i] = pq
    return SuperMatrix(DenseMatrix._trusted(n, n, tuple(nums), tuple(dens)), partition, partition)
