"""Shape, symmetry and properness taxonomy.

Single supermatrices fall into four shapes by which axes carry cuts. Unions
get a collective label: vector families first (components cut along one
axis only), then uniform or mixed square/rectangular families. A union is
symmetric when every component is, quasi symmetric when at least one is,
and semi super when it mixes simple and partitioned components.

A union is proper unless two components coincide exactly (entries and
partitions), with two carve-outs: a single component is always proper, and
a union in which every component is zero is proper by convention.

Symmetry here is stricter than entry symmetry: the matrix must be square,
the two partitions must coincide, and entries must mirror. A square matrix
with mirrored entries but different row and column cuts is not symmetric as
a supermatrix.
"""

from itertools import combinations

from . import algebra
from .core import Record
from .union import _expect_unions

SIMPLE = "simple"
ROW_SUPERVECTOR = "row_supervector"
COLUMN_SUPERVECTOR = "column_supervector"
GENERAL_SUPER = "general_super"

ROW_N_VECTOR = "row_n_vector"
COLUMN_N_VECTOR = "column_n_vector"
SPECIAL_ROW_N_VECTOR = "special_row_n_vector"
SPECIAL_COLUMN_N_VECTOR = "special_column_n_vector"
MIXED_SQUARE = "mixed_square"
MIXED_RECTANGULAR = "mixed_rectangular"
MIXED = "mixed"

SYMMETRIC = "symmetric"
QUASI_SYMMETRIC = "quasi_symmetric"
NONE = "none"


class ClassReport(Record):
    """What union_class finds: shapes, symmetry, semi-superness and properness."""

    __slots__ = ("arity", "component_shapes", "union_shape", "symmetry", "semi_super", "proper")

    def __init__(self, arity, component_shapes, union_shape, symmetry, semi_super, proper):
        self._init(arity, component_shapes, union_shape, symmetry, semi_super, proper)

    def to_dict(self):
        """The fields in declared order, with component_shapes as a list."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields["component_shapes"] = list(self.component_shapes)
        return fields


def shape_class(s):
    has_row = not s.row_partition.is_trivial
    has_col = not s.col_partition.is_trivial
    if not has_row and not has_col:
        return SIMPLE
    if has_col and not has_row:
        return ROW_SUPERVECTOR
    if has_row and not has_col:
        return COLUMN_SUPERVECTOR
    return GENERAL_SUPER


def is_symmetric_super(s):
    if s.rows != s.cols:
        return False
    if s.row_partition != s.col_partition:
        return False
    return all(
        s.data.at(i, j) == s.data.at(j, i) for i in range(s.rows) for j in range(i + 1, s.cols)
    )


def symmetry_class(u):
    _expect_unions(u)
    flags = [is_symmetric_super(c) for c in u.components]
    if all(flags):
        return SYMMETRIC
    if any(flags):
        return QUASI_SYMMETRIC
    return NONE


def union_shape(u):
    _expect_unions(u)
    comps = u.components
    any_cut = any(c.row_cuts or c.col_cuts for c in comps)
    # Vector families: every cut lies along a single axis across the union.
    if any_cut and not any(c.row_cuts for c in comps):
        if all(c.rows == 1 for c in comps):
            return ROW_N_VECTOR
        if all(c.cols > c.rows for c in comps):
            return SPECIAL_ROW_N_VECTOR
        return ROW_N_VECTOR
    if any_cut and not any(c.col_cuts for c in comps):
        if all(c.cols == 1 for c in comps):
            return COLUMN_N_VECTOR
        if all(c.rows > c.cols for c in comps):
            return SPECIAL_COLUMN_N_VECTOR
        return COLUMN_N_VECTOR
    if all(c.rows == c.cols for c in comps):
        orders = {c.rows for c in comps}
        if len(orders) == 1:
            return f"square({orders.pop()})"
        return MIXED_SQUARE
    if all(c.rows != c.cols for c in comps):
        dims = {(c.rows, c.cols) for c in comps}
        if len(dims) == 1:
            m, t = dims.pop()
            return f"rectangular({m},{t})"
        return MIXED_RECTANGULAR
    return MIXED


def improper_pair(u):
    """First (i, j), 1-based, with identical components; None if proper."""
    _expect_unions(u)
    if u.arity == 1 or all(x == 0 for c in u.components for x in c.data.entries):
        return None
    for (i, a), (j, b) in combinations(enumerate(u.components, start=1), 2):
        if algebra.strict_eq(a, b):
            return (i, j)
    return None


def is_proper(u):  # improper_pair checks u
    return improper_pair(u) is None


def _mixes_simple(shapes):
    return 0 < shapes.count(SIMPLE) < len(shapes)


def is_semi_super(u):
    """True when the union mixes simple and partitioned components."""
    _expect_unions(u)
    return _mixes_simple([shape_class(c) for c in u.components])


def union_class(u):
    _expect_unions(u)
    shapes = tuple(shape_class(c) for c in u.components)
    return ClassReport(
        arity=u.arity,
        component_shapes=shapes,
        union_shape=union_shape(u),
        symmetry=symmetry_class(u),
        semi_super=_mixes_simple(shapes),
        proper=is_proper(u),
    )
