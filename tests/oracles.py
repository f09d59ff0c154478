"""Reference arithmetic over plain row lists, independent of the library.

Used to cross-check library results; everything here works on lists of
lists of numbers and knows nothing about partitions.
"""

from fractions import Fraction


def o_rows(nrows, ncols, flat):
    """The row lists of Fractions that a row-major flat list of nrows * ncols rationals holds."""
    assert len(flat) == nrows * ncols
    return [[Fraction(x) for x in flat[i * ncols : (i + 1) * ncols]] for i in range(nrows)]


def o_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def o_scale(k, a):
    k = Fraction(k)
    return [[k * x for x in row] for row in a]


def o_transpose(a):
    return [list(col) for col in zip(*a)]


def o_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
        for i in range(n)
    ]


def o_is_symmetric(a):
    n = len(a)
    return all(len(r) == n for r in a) and all(
        a[i][j] == a[j][i] for i in range(n) for j in range(n)
    )
