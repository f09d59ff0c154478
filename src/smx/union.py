"""Ordered unions of supermatrices.

A SuperNMatrix is a finite nonempty sequence of supermatrix components.
Operations lift componentwise and demand equal arity; pairwise operations
name the 1-based component that failed. The shape, symmetry and properness
of a union are decided in classify.
"""

from . import algebra
from .core import Record, SuperMatrix, _expect, _tuple, make_super
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


def _lift(op, verb, *unions):
    """The union of op over matched components; a mismatch names the 1-based component."""
    _expect(SuperNMatrix, *unions)
    if len({u.arity for u in unions}) > 1:
        raise ArityMismatch(f"cannot {verb} unions of arity " + " and ".join(str(u.arity) for u in unions))
    out = []
    for k, components in enumerate(zip(*(u.components for u in unions)), start=1):
        try:
            out.append(op(*components))
        except (DimensionMismatch, PartitionMismatch) as e:
            raise type(e)(f"component {k}: {e}", component=k) from e
    return make_union(out)


def union_add(u, v):
    return _lift(algebra.add, "add", u, v)


def union_sub(u, v):
    return _lift(algebra.sub, "subtract", u, v)


def union_scale(k, u):
    return _lift(lambda c: algebra.scale(k, c), "scale", u)


def union_transpose(u):
    return _lift(algebra.transpose, "transpose", u)


def union_mul(u, v):
    return _lift(lambda a, b: algebra.super_mul(a, b)[0], "multiply", u, v)


def union_gram(u, side="right"):
    return _lift(lambda c: algebra.gram(c, side), "gram", u)


def union_flatten(u):
    """Forget every partition; components become simple."""
    return _lift(lambda c: make_super(c.data), "flatten", u)


def union_value_eq(u, v):
    _expect(SuperNMatrix, u, v)
    return u.arity == v.arity and all(map(algebra.value_eq, u.components, v.components))


def union_strict_eq(u, v):
    _expect(SuperNMatrix, u, v)
    return u.arity == v.arity and all(map(algebra.strict_eq, u.components, v.components))
