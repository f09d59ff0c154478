"""Hypothesis strategies for partitions, supermatrices, and unions."""

import functools
from fractions import Fraction

from hypothesis import strategies as st

from smx import make_super, make_union

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


# cuts_for and _rows build each size's strategy once: Hypothesis validates every new one again.
@functools.cache
def cuts_for(length):
    if length < 2:
        return st.just(())
    return st.sets(st.integers(1, length - 1), max_size=3).map(lambda s: tuple(sorted(s)))


@functools.cache
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


# --- .smx text written independently of smx.format, in non-canonical layouts -----------

_GAPS = st.sampled_from([" ", "\t", "  ", " \t", "\t ", "\t\t", "   ", " \t "])  # runs of spaces and tabs
_BLANKS = st.sampled_from(["", " ", "\t", "  ", " \t", "\t\t "])
_NEWLINES = st.sampled_from(["\n", "\r\n"])


def _scalar_text(draw, x):
    """Text of x: 'kn/kd' for k in 1..3, or for k = 0 '-0' for zero and 'n' for an integer."""
    k = draw(st.sampled_from([0, 1, 2, 3]))
    if k == 0 and x == 0:
        return "-0"
    if k == 0 and x.denominator == 1:
        return str(x.numerator)
    k = k or 1
    return f"{x.numerator * k}/{x.denominator * k}"


def _line_end(draw):
    """A newline, perhaps with blank lines after it, and the next line's indent."""
    lines = [draw(_BLANKS) + draw(_NEWLINES) for _ in range(draw(st.integers(1, 2)))]
    return "".join(lines) + draw(_BLANKS)


def _rule(draw):
    """A row cut line: '-' and '+' in any order, with at least two dashes."""
    plus_or_dash = st.sampled_from(["", "-", "+", "--", "-+", "+-", "++", "+-+"])
    return draw(plus_or_dash) + "-" + draw(plus_or_dash) + "-" + draw(plus_or_dash)


# A second ';', or a '; ' that opens a row, ends a row with no entries: it ends nothing.
_SEMICOLONS = st.sampled_from([";", ";;", " ; ;"])
_BEFORE_NEWLINE = st.one_of(st.just(""), _SEMICOLONS)
_ROW_OPENS = st.sampled_from(["", "; "])


def _component_text(draw, s):
    entries, cols = s.data.entries, s.cols
    text = "[" + draw(st.sampled_from(["", " ", "\t  "]))
    if draw(st.booleans()):
        text += _line_end(draw)  # the first row on its own line
    for r in range(s.rows):
        if r in s.row_cuts:  # nothing but blanks before the rule line
            text += draw(_BEFORE_NEWLINE) + _line_end(draw) + _rule(draw) + _line_end(draw)
        elif r and draw(st.booleans()):
            text += draw(_BEFORE_NEWLINE) + _line_end(draw)
        elif r:
            text += draw(_SEMICOLONS) + draw(_BLANKS)  # the next row on the same line
        text += draw(_ROW_OPENS)
        for c in range(cols):
            if c in s.col_cuts:
                text += draw(_BLANKS) + "|" + draw(_BLANKS)  # '1|2' as well as '1 | 2'
            elif c:
                text += draw(_GAPS)
            text += _scalar_text(draw, entries[r * cols + c])
    return text + draw(st.sampled_from(["", " ", "\t ;", " ; ", "\n", "\r\n  ", " ;\n"])) + "]"


@st.composite
def union_texts(draw, max_components=4, max_rows=5, max_cols=5):
    """(union, .smx text of it): tabs and runs of blanks, ';' and CRLF row ends, row ends
    with no entries before them, '2/4' and '-0', '|' with or without blanks, ']' attached
    or on its own line, '+' anywhere in a rule line, blank lines, and 'U' or '∪' separators."""
    u = draw(unions(max_components=max_components, max_rows=max_rows, max_cols=max_cols))
    text = draw(_BLANKS)
    for k, s in enumerate(u.components):
        if k:
            text += _line_end(draw) + draw(st.sampled_from(["U", "∪"])) + _line_end(draw)
        text += _component_text(draw, s)
    return u, text + draw(st.sampled_from(["", "\n", "\r\n", " \t\n\n"]))
