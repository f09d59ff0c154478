"""Ordered unions of supermatrices.

A SuperNMatrix is a finite nonempty sequence of supermatrix components.
Operations lift componentwise and demand equal arity; pairwise operations
name the 1-based component that failed. The shape, symmetry and properness
of a union are decided in classify.
"""

from . import algebra
from .core import Record, SuperMatrix, _tuple, make_super
from .errors import ArityMismatch, DimensionMismatch, EmptyUnion, InvalidArgument, PartitionMismatch


class SuperNMatrix(Record):
    """Ordered union of n >= 1 supermatrix components."""

    __slots__ = ("components",)

    def __init__(self, components):
        self._init(components)

    def __post_init__(self):
        comps = _tuple(self.components, "components")
        if not comps:
            raise EmptyUnion("union needs at least one component")
        for k, c in enumerate(comps, start=1):
            if not isinstance(c, SuperMatrix):
                raise InvalidArgument(f"component {k} is a {type(c).__name__}, not a SuperMatrix")
        object.__setattr__(self, "components", comps)

    @property
    def arity(self):
        return len(self.components)


def make_union(components):
    return SuperNMatrix(components)


def _lift(op, u):
    """The union of op applied to each component."""
    return make_union(map(op, u.components))


def _lift_pairs(op, u, v, opname):
    """Yield op over matched component pairs; errors name the 1-based component."""
    if u.arity != v.arity:
        raise ArityMismatch(f"cannot {opname} unions of arity {u.arity} and {v.arity}")
    for k, (a, b) in enumerate(zip(u.components, v.components), start=1):
        try:
            result = op(a, b)
        except (DimensionMismatch, PartitionMismatch) as e:
            raise type(e)(f"component {k}: {e}", component=k) from e
        yield result


def union_add(u, v):
    return make_union(_lift_pairs(algebra.add, u, v, "add"))


def union_sub(u, v):
    return make_union(_lift_pairs(algebra.sub, u, v, "subtract"))


def union_scale(k, u):
    return _lift(lambda c: algebra.scale(k, c), u)


def union_transpose(u):
    return _lift(algebra.transpose, u)


def union_mul(u, v):
    return make_union(_lift_pairs(lambda a, b: algebra.super_mul(a, b)[0], u, v, "multiply"))


def union_gram(u, side="right"):
    return _lift(lambda c: algebra.gram(c, side), u)


def union_flatten(u):
    """Forget every partition; components become simple."""
    return _lift(lambda c: make_super(c.data), u)


def union_value_eq(u, v):
    return u.arity == v.arity and all(_lift_pairs(algebra.value_eq, u, v, "compare"))


def union_strict_eq(u, v):
    return u.arity == v.arity and all(_lift_pairs(algebra.strict_eq, u, v, "compare"))
