"""Hypothesis strategies for partitions, supermatrices, and unions."""

from fractions import Fraction

from hypothesis import strategies as st

from smx import make_super, make_union

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


def cuts_for(length):
    if length < 2:
        return st.just(())
    return st.sets(st.integers(1, length - 1), max_size=3).map(lambda s: tuple(sorted(s)))


def _rows(nrows, ncols):
    return st.lists(
        st.lists(rationals, min_size=ncols, max_size=ncols),
        min_size=nrows,
        max_size=nrows,
    )


@st.composite
def supermatrices(draw, max_rows=8, max_cols=8):
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    rows = draw(_rows(nrows, ncols))
    return make_super(rows, draw(cuts_for(nrows)), draw(cuts_for(ncols)))


@st.composite
def same_layout(draw, count=2, max_rows=6, max_cols=6):
    """Matrices sharing one shape and one pair of partitions."""
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    rcuts = draw(cuts_for(nrows))
    ccuts = draw(cuts_for(ncols))
    return tuple(
        make_super(draw(_rows(nrows, ncols)), rcuts, ccuts) for _ in range(count)
    )


@st.composite
def mul_pairs(draw, max_dim=8):
    """(a, b) with a.cols == b.rows and matching inner partitions."""
    n = draw(st.integers(1, max_dim))
    k = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    inner = draw(cuts_for(k))
    a = make_super(draw(_rows(n, k)), draw(cuts_for(n)), inner)
    b = make_super(draw(_rows(k, m)), inner, draw(cuts_for(m)))
    return a, b


@st.composite
def unions(draw, max_components=4, max_rows=5, max_cols=5):
    comps = draw(
        st.lists(
            supermatrices(max_rows=max_rows, max_cols=max_cols),
            min_size=1,
            max_size=max_components,
        )
    )
    return make_union(comps)


@st.composite
def unions_with_repeats(draw, max_components=4):
    """Unions that may repeat one of their components, so both proper and improper occur."""
    comps = list(draw(unions(max_components=max_components)).components)
    if draw(st.booleans()):
        comps.insert(draw(st.integers(0, len(comps))), draw(st.sampled_from(comps)))
    return make_union(comps)


@st.composite
def union_pairs_same_layout(draw, max_components=3):
    """Two unions whose components pair up with identical layouts."""
    arity = draw(st.integers(1, max_components))
    pairs = [draw(same_layout(count=2, max_rows=4, max_cols=4)) for _ in range(arity)]
    return make_union(p[0] for p in pairs), make_union(p[1] for p in pairs)
