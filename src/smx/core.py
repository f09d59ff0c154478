"""Core data model: exact scalars, axis partitions, dense matrices, supermatrices.

A supermatrix is an ordinary dense matrix of rationals together with one
partition per axis. A partition of an axis of length n is a strictly
increasing tuple of cut positions, each strictly between 0 and n; the cuts
slice the axis into contiguous blocks. No cuts means the trivial partition,
and a supermatrix with two trivial partitions is a simple matrix that
happens to carry its (empty) partition data along.

Entries are fractions.Fraction at the API and reduced int pairs inside: a
DenseMatrix keeps two tuples of ints, the numerators in lowest terms and their
positive denominators, and its .entries builds its Fractions on each access.
Floats are refused rather than converted: binary floats would smuggle rounding
into a library whose whole point is exactness. A string entry has one grammar
wherever it comes from (a .smx file, the CLI scalar, make_super): an optional
'-', ASCII digits, and optionally '/' and more ASCII digits. Numbers of any
length are read and written without touching Python's int/str digit limit.
"""

import math
import operator
import re
from fractions import Fraction
from itertools import chain, pairwise

from .errors import (
    BlockIndexOutOfRange,
    CutOutOfRange,
    DimensionMismatch,
    DuplicateCut,
    InvalidArgument,
    InvalidValue,
    UnsortedCuts,
)

Rational = Fraction

_SCALAR = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_BLANKS = " \t"  # the only whitespace the .smx text form allows


def _int(digits):
    """int(digits) for an optionally signed ASCII digit string of any length."""
    try:
        return int(digits)
    except ValueError:  # longer than the int/str digit limit: read it in halves
        if digits[0] == "-":
            return -_int(digits[1:])
        half = len(digits) // 2
        return _int(digits[:-half]) * 10**half + _int(digits[-half:])


def _str(n):
    """str(n) for an int of any size."""
    try:
        return str(n)
    except ValueError:  # longer than the int/str digit limit: write it in halves
        if n < 0:
            return "-" + _str(-n)
        half = n.bit_length() * 3 // 20  # about half of its decimal digits
        high, low = divmod(n, 10**half)
        return _str(high) + _str(low).zfill(half)


def _expect(cls, *values):
    """The check at the public edge: InvalidArgument for any value that is not a cls."""
    for v in values:
        if not isinstance(v, cls):
            raise InvalidArgument(f"expected a {cls.__name__}, got {type(v).__name__}")


def _ratio(x):
    """The one reader of an entry: (numerator, denominator) in lowest terms, denominator > 0, of an
    int, a Fraction or a scalar string. InvalidArgument for a float, a bool or any other type that
    Fraction refuses; InvalidValue, a ValueError, for a str outside the grammar."""
    if type(x) is int:
        return x, 1
    if type(x) is Fraction:
        return x.numerator, x.denominator
    if isinstance(x, str):
        m = _SCALAR.fullmatch(x.strip(_BLANKS))
        if m is None:
            raise InvalidValue(f"invalid rational {x!r}")
        n, d = _int(m[1]), _int(m[2] or "1")
        if not d:
            raise InvalidValue(f"zero denominator in {x!r}")
        g = math.gcd(n, d)
        return n // g, d // g
    if isinstance(x, float):
        raise InvalidArgument(f"refusing float {x!r}; use Fraction or a string like '7/2'")
    if isinstance(x, bool):  # an int subclass, but never an entry
        raise InvalidArgument(f"refusing bool {x!r}; use an int, a Fraction or a string like '7/2'")
    try:
        x = Fraction(x)
    except TypeError:
        raise InvalidArgument(
            f"refusing {type(x).__name__} {x!r}; use an int, a Fraction or a string like '7/2'"
        ) from None
    except (ValueError, OverflowError) as e:  # a NaN or infinite Decimal
        raise InvalidValue(str(e)) from None
    return x.numerator, x.denominator


def parse_scalar(text):
    """One rational like '-3' or '7/2'. Raises InvalidValue, a ValueError, on any other str."""
    _expect(str, text)
    return Fraction(*_ratio(text))


def as_rational(x):
    """Coerce int / Fraction / scalar string to Fraction. Floats and bools are rejected."""
    return x if type(x) is Fraction else Fraction(*_ratio(x))


def format_scalar(n, d):
    """The text of the entry n/d, a reduced pair, as str(Fraction(n, d)) writes it, at any size."""
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:  # beyond the int/str digit limit
        return _str(n) if d == 1 else f"{_str(n)}/{_str(d)}"


def _tuple(items, what):
    """tuple(items), a tuple passed as it is; InvalidArgument if items cannot be iterated,
    or is a str or bytes, which would be read one character or byte at a time."""
    if isinstance(items, (str, bytes, bytearray)):
        raise InvalidArgument(f"{what} must not be a {type(items).__name__}")
    try:
        iterator = iter(items)
    except TypeError:
        raise InvalidArgument(f"{what} must be iterable, got {type(items).__name__}") from None
    return items if type(items) is tuple else tuple(iterator)


class Record:
    """Base of the immutable value classes; the fields are the subclass's __slots__.

    A subclass's __init__ hands its arguments to _init, which stores them and
    runs __post_init__ to validate them (and to normalise a field with
    object.__setattr__). Records compare equal when they are of the same class
    with equal fields, hash by their fields, print as Name(field=value, ...),
    refuse assignment, and pickle and copy by calling the class again. A
    subclass that stores its fields in another form names the public ones in
    __match_args__: they are what it prints, pickles and matches by.
    """

    __slots__ = ("_values",)  # the fields once validated, compared and hashed as one

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls.__match_args__ = cls.__dict__.get("__match_args__", cls.__slots__)
        cls._get_values = operator.attrgetter(*cls.__slots__)  # a single field is read bare

    def _init(self, *values, check=True):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        if check:
            self.__post_init__()
        object.__setattr__(self, "_values", self._get_values(self))

    @classmethod
    def _trusted(cls, *values):
        """Only the library calls this, on values it made itself in the form __post_init__ leaves
        them. They are stored unchecked; the record compares, hashes and pickles as a public one."""
        self = object.__new__(cls)
        self._init(*values, check=False)
        return self

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


class Partition(Record):
    """Cut positions for one axis. cuts=() is the trivial partition."""

    __slots__ = ("length", "cuts")

    def __init__(self, length, cuts=()):
        self._init(length, cuts)

    def __post_init__(self):
        # type(), not isinstance: bool is an int subclass but never a length or a cut.
        if type(self.length) is not int or self.length < 1:
            raise DimensionMismatch(f"axis length must be a positive integer, got {self.length!r}")
        cuts = _tuple(self.cuts, "cuts")
        object.__setattr__(self, "cuts", cuts)
        prev = 0
        for c in cuts:
            if type(c) is not int or c < 1 or c > self.length - 1:
                raise CutOutOfRange(c, self.length)
            if c == prev:
                raise DuplicateCut(c)
            if c < prev:
                raise UnsortedCuts(cuts)
            prev = c

    @property
    def is_trivial(self):
        return not self.cuts

    @property
    def block_count(self):
        return len(self.cuts) + 1

    @property
    def bounds(self):
        """Block edges as 0-based half-open positions: (0, *cuts, length)."""
        return (0,) + self.cuts + (self.length,)

    def blocks(self):
        """Iterate (start, stop) per block, 0-based half-open."""
        return pairwise(self.bounds)


def make_partition(length, cuts=()):
    return Partition(length, cuts)


class DenseMatrix(Record):
    """Row-major immutable matrix of rationals, kept as reduced numerators and positive denominators."""

    __slots__ = ("rows", "cols", "_nums", "_dens")
    __match_args__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        self._init(rows, cols, entries, None)  # __post_init__ reads the entries into _nums and _dens

    def __post_init__(self):
        if type(self.rows) is not int or type(self.cols) is not int or self.rows < 1 or self.cols < 1:
            raise DimensionMismatch(
                f"matrix dimensions must be positive integers, got {self.rows!r}x{self.cols!r}"
            )
        ratios = list(map(_ratio, _tuple(self._nums, "entries")))
        if len(ratios) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, got {len(ratios)}"
            )
        nums, dens = zip(*ratios)
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_dens", dens)

    @classmethod
    def from_rows(cls, rows):
        # a list row is only read, never kept; any other row is iterated once, or refused
        rows = [r if type(r) is list else _tuple(r, "each row") for r in _tuple(rows, "rows")]
        if not rows:
            raise DimensionMismatch("matrix needs at least one row")
        width = len(rows[0])
        for i, r in enumerate(rows):
            if len(r) != width:
                raise DimensionMismatch(f"row {i + 1} has {len(r)} entries, row 1 has {width}")
        return cls(len(rows), width, chain.from_iterable(rows))

    @property
    def entries(self):
        """The entries in row-major order: a tuple of Fractions, built on each access."""
        return tuple(map(Fraction, self._nums, self._dens))

    def at(self, i, j):
        """Entry at 0-based (i, j)."""
        k = i * self.cols + j
        return Fraction(self._nums[k], self._dens[k])

    def to_rows(self):
        return [list(map(Fraction, nums, dens)) for nums, dens in _rows(self)]

    def __repr__(self):  # Record's text, each entry as Fraction's repr writes it but at any size
        cells = ", ".join(map("Fraction({}, {})".format, map(_str, self._nums), map(_str, self._dens)))
        entries = f"({cells},)" if len(self._nums) == 1 else f"({cells})"
        return f"{type(self).__qualname__}(rows={self.rows!r}, cols={self.cols!r}, entries={entries})"


def _flat(m):
    """(numerators, denominators) of DenseMatrix m, two row-major tuples."""
    return m._nums, m._dens


def _rows(m):
    """The rows of DenseMatrix m, each a pair (numerators, denominators) of tuple slices."""
    x, y, w = m._nums, m._dens, m.cols
    return [(x[i : i + w], y[i : i + w]) for i in range(0, len(x), w)]


def _columns(m):
    """The columns of DenseMatrix m, each a pair (numerators, denominators) of tuple slices."""
    x, y, w = m._nums, m._dens, m.cols
    return [(x[j::w], y[j::w]) for j in range(w)]


def _stacked(lines, c0=0, c1=None):
    """The DenseMatrix whose rows are columns c0:c1 of lines, pairs (numerators, denominators) of one length."""
    nums, dens = (tuple(chain.from_iterable(x[c0:c1] for x in side)) for side in zip(*lines))
    return DenseMatrix._trusted(len(lines), len(nums) // len(lines), nums, dens)


class SuperMatrix(Record):
    """A dense matrix plus one partition per axis."""

    __slots__ = ("data", "row_partition", "col_partition")

    def __init__(self, data, row_partition, col_partition):
        self._init(data, row_partition, col_partition)

    def __post_init__(self):
        if not isinstance(self.data, DenseMatrix):
            raise InvalidArgument(f"data must be a DenseMatrix, got {type(self.data).__name__}")
        for p in (self.row_partition, self.col_partition):
            if not isinstance(p, Partition):
                raise InvalidArgument(f"a partition must be a Partition, got {type(p).__name__}")
        if self.row_partition.length != self.data.rows:
            raise DimensionMismatch(
                f"row partition covers {self.row_partition.length} rows, matrix has {self.data.rows}"
            )
        if self.col_partition.length != self.data.cols:
            raise DimensionMismatch(
                f"column partition covers {self.col_partition.length} columns, matrix has {self.data.cols}"
            )

    @property
    def rows(self):
        return self.data.rows

    @property
    def cols(self):
        return self.data.cols

    @property
    def row_cuts(self):
        return self.row_partition.cuts

    @property
    def col_cuts(self):
        return self.col_partition.cuts


def make_super(data, row_partition=(), col_partition=()):
    """Build a SuperMatrix from a DenseMatrix or nested row lists.

    Each partition argument may be a Partition or a bare iterable of cuts.
    """
    if not isinstance(data, DenseMatrix):
        data = DenseMatrix.from_rows(data)
    if not isinstance(row_partition, Partition):
        row_partition = Partition(data.rows, row_partition)
    if not isinstance(col_partition, Partition):
        col_partition = Partition(data.cols, col_partition)
    return SuperMatrix(data, row_partition, col_partition)  # which checks a Partition's length


def grid_shape(s):
    """(row blocks, column blocks) of the partition grid."""
    _expect(SuperMatrix, s)
    return (s.row_partition.block_count, s.col_partition.block_count)


def block(s, i, j):
    """Block (i, j) of the grid, 1-based, as a SuperMatrix with trivial partitions."""
    _expect(SuperMatrix, s)
    if type(i) is not int or type(j) is not int:  # bool too, as for a partition's cuts
        raise InvalidArgument(f"block indices must be ints, got {type(i).__name__} and {type(j).__name__}")
    rb, cb = grid_shape(s)
    if not (1 <= i <= rb) or not (1 <= j <= cb):
        raise BlockIndexOutOfRange(f"block ({i}, {j}) outside {rb}x{cb} grid")
    (r0, r1), (c0, c1) = s.row_partition.bounds[i - 1 : i + 1], s.col_partition.bounds[j - 1 : j + 1]
    return make_super(_stacked(_rows(s.data)[r0:r1], c0, c1))


def flatten(s):
    """Forget the partitions: the underlying DenseMatrix."""
    _expect(SuperMatrix, s)
    return s.data


def strips(s, axis):
    """Slice a supermatrix along one partitioned axis into a list of supermatrices.

    axis="row" keeps the column partition on every strip; axis="column" keeps
    the row partition. Re-stacking the strips in order recovers the original.
    """
    if axis not in ("row", "column"):
        raise InvalidValue(f"axis must be 'row' or 'column', got {axis!r}")
    _expect(SuperMatrix, s)
    rows = _rows(s.data)
    if axis == "row":
        return [make_super(_stacked(rows[r0:r1]), (), s.col_cuts) for r0, r1 in s.row_partition.blocks()]
    return [make_super(_stacked(rows, c0, c1), s.row_cuts, ()) for c0, c1 in s.col_partition.blocks()]
