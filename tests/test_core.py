import copy
import pickle
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures as fx
import strategies as sts
from oracles import o_rows
from smx import (
    ClassReport,
    DenseMatrix,
    Partition,
    ProductWitness,
    SuperMatrix,
    SuperNMatrix,
    add,
    as_rational,
    block,
    flatten,
    format,
    grid_shape,
    make_partition,
    make_super,
    gram,
    improper_pair,
    is_proper,
    is_semi_super,
    is_symmetric_super,
    make_union,
    parse,
    parse_scalar,
    scale,
    shape_class,
    strict_eq,
    strips,
    sub,
    super_mul,
    symmetry_class,
    transpose,
    union_add,
    union_class,
    union_flatten,
    union_gram,
    union_mul,
    union_scale,
    union_shape,
    union_strict_eq,
    union_sub,
    union_transpose,
    union_value_eq,
    value_eq,
)
from smx.errors import (
    BlockIndexOutOfRange,
    CutOutOfRange,
    DimensionMismatch,
    DuplicateCut,
    InvalidArgument,
    InvalidValue,
    SmxError,
    UnsortedCuts,
)


class TestPartition:
    def test_trivial(self):
        p = make_partition(4)
        assert p.is_trivial
        assert p.block_count == 1
        assert list(p.blocks()) == [(0, 4)]

    def test_cuts(self):
        p = make_partition(7, [3, 5])
        assert not p.is_trivial
        assert p.block_count == 3
        assert p.bounds == (0, 3, 5, 7)
        assert list(p.blocks()) == [(0, 3), (3, 5), (5, 7)]

    def test_single_position_axis(self):
        assert make_partition(1).block_count == 1

    @pytest.mark.parametrize("cut", [0, -1, 5, 99, True])
    def test_cut_out_of_range(self, cut):
        with pytest.raises(CutOutOfRange):
            make_partition(5, [cut])

    @pytest.mark.parametrize("cut, shown", [("1", "'1'"), (7, "7")])
    def test_cut_out_of_range_shows_the_cut_as_given(self, cut, shown):
        with pytest.raises(CutOutOfRange, match=rf"^cut {shown} out of range \[1, 2\] for axis of length 3$"):
            make_partition(3, [cut])

    def test_duplicate_cut(self):
        with pytest.raises(DuplicateCut):
            make_partition(5, [2, 2])

    def test_unsorted_cuts(self):
        with pytest.raises(UnsortedCuts):
            make_partition(5, [3, 1])

    def test_bad_length(self):
        with pytest.raises(DimensionMismatch):
            make_partition(0)

    @pytest.mark.parametrize("length", [True, 3.0])
    def test_non_int_length(self, length):
        with pytest.raises(DimensionMismatch):
            make_partition(length)


class TestDenseMatrix:
    def test_from_rows(self):
        m = DenseMatrix.from_rows([[1, 2], [3, 4]])
        assert m.rows == 2 and m.cols == 2
        assert m.at(1, 0) == 3
        assert m.to_rows() == [[1, 2], [3, 4]]

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionMismatch):
            DenseMatrix.from_rows([[1, 2], [3]])

    def test_entry_count_checked(self):
        with pytest.raises(DimensionMismatch):
            DenseMatrix(2, 2, (1, 2, 3))

    @pytest.mark.parametrize(
        "rows, cols, entries", [(2.0, 1, (1, 2)), (1, 2.0, (1, 2)), (True, 1, (1,)), (1, True, (1,))]
    )
    def test_non_int_dimensions_rejected(self, rows, cols, entries):
        with pytest.raises(DimensionMismatch):
            DenseMatrix(rows, cols, entries)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            DenseMatrix.from_rows([[0.5]])

    @pytest.mark.parametrize("text", ["0.1", "1e3", "1_000", "+3", "\u0663", "\xa07"])
    def test_strings_outside_the_scalar_grammar_rejected(self, text):
        with pytest.raises(ValueError):
            make_super([[text]])

    def test_mixed_entries_coerced_and_floats_still_refused(self):
        class Half(Fraction):
            pass

        m = DenseMatrix(1, 4, (Fraction(1, 3), 2, "5/4", Half(1, 2)))
        assert m.entries == (Fraction(1, 3), 2, Fraction(5, 4), Fraction(1, 2))
        assert {type(x) for x in m.entries} == {Fraction}
        with pytest.raises(TypeError):
            DenseMatrix(1, 2, (Fraction(1), 0.5))

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_entries_rejected(self, flag):
        with pytest.raises(InvalidArgument, match="refusing bool"):
            make_super([[flag]])
        with pytest.raises(InvalidArgument):
            DenseMatrix(1, 2, (Fraction(1), flag))

    def test_string_entries_coerced(self):
        m = DenseMatrix.from_rows([["7/2", "-3"]])
        assert m.at(0, 0) == Fraction(7, 2)
        assert m.at(0, 1) == -3


class TestSuperMatrix:
    def test_make_super_with_cut_lists(self):
        s = make_super([[1, 2], [3, 4]], [1], [1])
        assert s.row_cuts == (1,)
        assert s.col_cuts == (1,)

    def test_make_super_with_partitions(self):
        s = make_super([[1, 2], [3, 4]], Partition(2, (1,)), Partition(2))
        assert s.row_cuts == (1,)
        assert s.col_cuts == ()

    def test_partition_length_must_match(self):
        with pytest.raises(DimensionMismatch):
            make_super([[1, 2], [3, 4]], Partition(3, (1,)), ())

    def test_grid_shape(self):
        assert grid_shape(fx.BLOCKED_5X5) == (2, 2)
        assert grid_shape(fx.COLS_ONLY_6X6) == (1, 2)
        assert grid_shape(fx.ROWS_ONLY_6X6) == (2, 1)
        assert grid_shape(fx.QUAD_6X6) == (2, 2)


class TestBlock:
    def test_quadrants(self):
        for (i, j), expected in fx.QUAD_BLOCKS.items():
            got = block(fx.QUAD_6X6, i, j)
            assert flatten(got).to_rows() == expected
            assert got.row_cuts == () and got.col_cuts == ()

    @pytest.mark.parametrize("ij", [(0, 1), (1, 0), (3, 1), (1, 3)])
    def test_out_of_grid(self, ij):
        with pytest.raises(BlockIndexOutOfRange):
            block(fx.QUAD_6X6, *ij)

    @pytest.mark.parametrize("ij", [(1.5, 1), ("1", 1), (1, None), (True, True)])
    def test_non_int_index(self, ij):
        with pytest.raises(InvalidArgument, match="^block indices must be ints, got "):
            block(fx.QUAD_6X6, *ij)

    def test_whole_matrix_when_trivial(self):
        s = make_super([[1, 2], [3, 4]])
        assert flatten(block(s, 1, 1)).to_rows() == [[1, 2], [3, 4]]


class TestFlatten:
    def test_returns_underlying_data(self):
        assert flatten(fx.BLOCKED_5X5) is fx.BLOCKED_5X5.data


def _restack_rows(parts, original):
    rows = [r for p in parts for r in flatten(p).to_rows()]
    return make_super(rows, original.row_cuts, original.col_cuts)


def _restack_cols(parts, original):
    rows = [sum((flatten(p).to_rows()[i] for p in parts), []) for i in range(original.rows)]
    return make_super(rows, original.row_cuts, original.col_cuts)


class TestStrips:
    def test_row_strips_keep_column_partition(self):
        parts = strips(fx.TALL_7X5, "row")
        assert [p.rows for p in parts] == [3, 2, 2]
        assert all(p.col_cuts == (3,) for p in parts)
        assert all(p.row_cuts == () for p in parts)

    def test_column_strips_keep_row_partition(self):
        parts = strips(fx.TALL_7X5, "column")
        assert [p.cols for p in parts] == [3, 2]
        assert all(p.row_cuts == (3, 5) for p in parts)

    def test_round_trip_fixture(self):
        assert strict_eq(_restack_rows(strips(fx.TALL_7X5, "row"), fx.TALL_7X5), fx.TALL_7X5)
        assert strict_eq(_restack_cols(strips(fx.TALL_7X5, "column"), fx.TALL_7X5), fx.TALL_7X5)

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            strips(fx.TALL_7X5, "diagonal")

    def test_bad_axis_is_typed(self):
        with pytest.raises(InvalidValue, match="axis must be 'row' or 'column', got 'diagonal'"):
            strips(fx.TALL_7X5, "diagonal")

    @given(sts.supermatrices(max_rows=6, max_cols=6))
    def test_round_trip(self, s):
        assert strict_eq(_restack_rows(strips(s, "row"), s), s)
        assert strict_eq(_restack_cols(strips(s, "column"), s), s)


@pytest.mark.parametrize(
    "call",
    [
        lambda: make_super([[0.5]]),
        lambda: scale(1.5, make_super([[1]])),
        lambda: make_super([[None]]),
        lambda: format(42),
        lambda: make_partition(3, None),
        lambda: make_partition(3, 5),
        lambda: make_super(None),
        lambda: make_super([1, 2]),
        lambda: make_super([[1]], None),
        lambda: make_union(None),
        lambda: DenseMatrix(1, 1, None),
        lambda: SuperMatrix(DenseMatrix(1, 1, [1]), None, None),
        lambda: SuperMatrix([[1]], Partition(1), Partition(1)),
    ],
    ids=[
        "float-entry",
        "float-scalar",
        "none-entry",
        "format-int",
        "none-cuts",
        "int-cuts",
        "none-rows",
        "int-rows",
        "none-partition",
        "none-components",
        "none-entries",
        "none-super-partitions",
        "list-super-data",
    ],
)
def test_wrong_types_raise_invalid_argument(call):
    with pytest.raises(InvalidArgument) as raised:
        call()
    assert isinstance(raised.value, TypeError)  # existing `except TypeError` code still catches it


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: make_super(["12", "34"]), "each row must not be a str"),
        (lambda: make_super("12"), "rows must not be a str"),
        (lambda: DenseMatrix(1, 2, "12"), "entries must not be a str"),
        (lambda: make_super([[1, 2]], (), b"\x01"), "cuts must not be a bytes"),
        (lambda: make_partition(3, "12"), "cuts must not be a str"),
    ],
    ids=["str-rows-in-list", "str-rows", "str-entries", "bytes-cuts", "str-cuts"],
)
def test_text_is_not_read_as_a_container(call, message):
    with pytest.raises(InvalidArgument, match=f"^{message}$"):
        call()
    assert make_super([["7/2", "12"]]).data.entries == (Fraction(7, 2), Fraction(12))  # a str entry stays one value


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: parse_scalar("1e3"), "invalid rational '1e3'"),
        (lambda: make_super([["1e3"]]), "invalid rational '1e3'"),
        (lambda: make_super([["1/0"]]), "zero denominator in '1/0'"),
        (lambda: make_super([[Decimal("NaN")]]), "cannot convert NaN to integer ratio"),
        (lambda: make_super([[Decimal("sNaN")]]), "cannot convert NaN to integer ratio"),
        (lambda: make_super([[Decimal("Infinity")]]), "cannot convert Infinity to integer ratio"),
        (lambda: scale(Decimal("-Infinity"), make_super([[1]])), "cannot convert Infinity to integer ratio"),
    ],
    ids=["parse-scalar", "string-entry", "zero-denominator", "nan", "snan", "infinity", "infinite-scalar"],
)
def test_bad_values_raise_invalid_value(call, message):
    with pytest.raises(InvalidValue) as raised:
        call()
    assert str(raised.value) == message
    assert isinstance(raised.value, ValueError)  # existing `except ValueError` code still catches it


_JUNK = st.one_of(
    st.floats(),
    st.none(),
    st.booleans(),
    st.sampled_from([Decimal(v) for v in ("NaN", "-NaN", "sNaN", "Infinity", "-Infinity")]),
    st.decimals(min_value=-(10**6), max_value=10**6, places=3),
    st.text("0123456789-+/.e_ \t\n\u0663\u096a\uff17", max_size=10),  # includes non-ASCII digits
    st.text(max_size=6),
    st.integers(),
    st.fractions(),
    st.complex_numbers(),
    st.binary(max_size=4),
    st.lists(st.integers(-2, 4), max_size=3),
    st.builds(object),
    st.sampled_from([make_super([[1, 2]], (), (1,)), DenseMatrix(1, 1, [1]), Partition(2)]),  # not a union
)
_U = make_union([make_super([[1, 2]], (), (1,))])
# Every public function that takes a union, with the junk in place of one.
_UNION_CALLS = {
    "union_add": lambda x: union_add(x, _U),
    "union_sub": lambda x: union_sub(_U, x),
    "union_mul": lambda x: union_mul(x, _U),
    "union_scale": lambda x: union_scale(2, x),
    "union_transpose": union_transpose,
    "union_gram": union_gram,
    "union_flatten": union_flatten,
    "union_value_eq": lambda x: union_value_eq(_U, x),
    "union_strict_eq": lambda x: union_strict_eq(x, _U),
    "union_class": union_class,
    "union_shape": union_shape,
    "symmetry_class": symmetry_class,
    "improper_pair": improper_pair,
    "is_proper": is_proper,
    "is_semi_super": is_semi_super,
}
_V = make_super([[1, 2]], (), (1,))
# Every public function that takes a supermatrix, with the junk in place of one.
_SUPER_CALLS = {
    "value_eq": lambda x: value_eq(x, _V),
    "strict_eq": lambda x: strict_eq(_V, x),
    "add": lambda x: add(x, _V),
    "sub": lambda x: sub(_V, x),
    "super_mul": lambda x: super_mul(_V, x),
    "scale": lambda x: scale(2, x),
    "transpose": transpose,
    "gram": gram,
    "grid_shape": grid_shape,
    "block": lambda x: block(x, 1, 1),
    "flatten": flatten,
    "strips": lambda x: strips(x, "row"),
    "shape_class": shape_class,
    "is_symmetric_super": is_symmetric_super,
}
_EDGE_CALLS = {
    "entry": lambda x: make_super([[1, x]]),
    "scale-factor": lambda x: scale(x, make_super([[1, 2]])),
    "parse_scalar": parse_scalar,
    "as_rational": as_rational,
    "cuts": lambda x: make_partition(3, x),
    "rows": make_super,
    "row": lambda x: make_super([x]),
    "partition": lambda x: make_super([[1, 2]], (), x),
    "components": make_union,
    "entries": lambda x: DenseMatrix(1, 1, x),
    "super-data": lambda x: SuperMatrix(x, Partition(1), Partition(1)),
    "super-row-partition": lambda x: SuperMatrix(DenseMatrix(1, 1, [1]), x, Partition(1)),
    "super-column-partition": lambda x: SuperMatrix(DenseMatrix(1, 1, [1]), Partition(1), x),
    **_UNION_CALLS,
    **_SUPER_CALLS,
}


@pytest.mark.parametrize("call", _EDGE_CALLS.values(), ids=_EDGE_CALLS)
@given(junk=_JUNK)
@settings(max_examples=200)
def test_junk_at_the_public_edge_succeeds_or_raises_smx_error(call, junk):
    try:
        call(junk)
    except SmxError:
        pass


@pytest.mark.parametrize("call", _UNION_CALLS.values(), ids=_UNION_CALLS)
def test_a_supermatrix_is_not_a_union(call):
    with pytest.raises(InvalidArgument, match="^expected a SuperNMatrix, got SuperMatrix$"):
        call(make_super([[1, 2]]))


@pytest.mark.parametrize("call", _SUPER_CALLS.values(), ids=_SUPER_CALLS)
def test_a_union_is_not_a_supermatrix(call):
    with pytest.raises(InvalidArgument, match="^expected a SuperMatrix, got SuperNMatrix$"):
        call(_U)


@pytest.mark.parametrize(
    "call",
    [lambda: scale("q", _U), lambda: gram(_U, "up"), lambda: strips(_U, "diag")],
    ids=["scale-factor", "gram-side", "strips-axis"],
)
def test_a_bad_value_is_reported_before_a_wrong_type(call):
    with pytest.raises(InvalidValue):
        call()


_P = Partition(3, (1,))
_S = SuperMatrix(DenseMatrix(1, 3, (Fraction(1), Fraction(2), Fraction(3))), Partition(1), _P)
_S_TEXT = (
    "SuperMatrix(data=DenseMatrix(rows=1, cols=3, entries=(Fraction(1, 1), Fraction(2, 1), Fraction(3, 1))), "
    "row_partition=Partition(length=1, cuts=()), col_partition=Partition(length=3, cuts=(1,)))"
)
_REPORT = {
    "arity": 1,
    "component_shapes": ("simple",),
    "union_shape": "square(1)",
    "symmetry": "symmetric",
    "semi_super": False,
    "proper": True,
}


@pytest.mark.parametrize(
    "cls, fields, text",
    [
        pytest.param(Partition, {"length": 3, "cuts": (1,)}, "Partition(length=3, cuts=(1,))", id="Partition"),
        pytest.param(Partition, {"length": 2}, "Partition(length=2, cuts=())", id="Partition-default-cuts"),
        pytest.param(
            DenseMatrix,
            {"rows": 1, "cols": 2, "entries": (Fraction(1, 2), Fraction(3))},
            "DenseMatrix(rows=1, cols=2, entries=(Fraction(1, 2), Fraction(3, 1)))",
            id="DenseMatrix",
        ),
        pytest.param(
            SuperMatrix,
            {"data": _S.data, "row_partition": Partition(1), "col_partition": _P},
            _S_TEXT,
            id="SuperMatrix",
        ),
        pytest.param(
            ProductWitness,
            {"inner_partition": _P, "left_row_partition": Partition(1), "right_col_partition": _P},
            "ProductWitness(inner_partition=Partition(length=3, cuts=(1,)), "
            "left_row_partition=Partition(length=1, cuts=()), right_col_partition=Partition(length=3, cuts=(1,)))",
            id="ProductWitness",
        ),
        pytest.param(SuperNMatrix, {"components": (_S,)}, f"SuperNMatrix(components=({_S_TEXT},))", id="SuperNMatrix"),
        pytest.param(
            ClassReport,
            _REPORT,
            "ClassReport(arity=1, component_shapes=('simple',), union_shape='square(1)', symmetry='symmetric', "
            "semi_super=False, proper=True)",
            id="ClassReport",
        ),
    ],
)
def test_records_behave_as_frozen_values(cls, fields, text):
    r = cls(**fields)
    assert r == cls(*fields.values()) and hash(r) == hash(cls(*fields.values()))
    assert repr(r) == text
    assert tuple(getattr(r, name) for name in cls.__match_args__[: len(fields)]) == tuple(fields.values())
    for twin in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
        assert type(twin) is cls and twin == r and hash(twin) == hash(r)
    for name in cls.__match_args__:
        with pytest.raises(AttributeError):
            setattr(r, name, getattr(r, name))
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert r == cls(*(getattr(r, name) for name in cls.__match_args__))


def test_records_compare_by_class_and_fields():
    assert Partition(3, (1,)) != Partition(3, (2,)) and Partition(3) == Partition(3, ())
    assert hash(Partition(3, [1])) == hash(Partition(3, (1,)))  # cuts are stored as a tuple

    class Sub(Partition):
        pass

    assert Partition(3, (1,)) != Sub(3, (1,))  # the same fields in another class are not equal
    assert Partition(3, (1,)) != (3, (1,))
    match make_super([[1, 2]], (), (1,)):
        case SuperMatrix(DenseMatrix(rows, cols, _), Partition(), Partition(_, cuts)):
            assert (rows, cols, cuts) == (1, 2, (1,))
        case _:
            pytest.fail("positional patterns follow the declared fields")


def test_library_results_equal_publicly_built_records():
    a = make_super([[1, "1/2"], [3, -4]], [1], [1])
    b = make_super([["2/3", 0], [5, 7]], [1], [1])
    results = [
        DenseMatrix._trusted(1, 2, (1, 3), (2, 1)),
        parse("[ 1/2 3 ]").components[0].data,
        scale(3, a).data,
        transpose(a).data,
        super_mul(a, b)[0].data,
        gram(a, "left").data,
        union_add(make_union([a]), make_union([b])).components[0].data,
        sub(a, b).data,
        flatten(a),
        block(a, 2, 1).data,
        *(s.data for s in strips(a, "row") + strips(a, "column")),
    ]
    for m in results:
        public = DenseMatrix(m.rows, m.cols, list(m.entries))
        assert m == public and public == m and hash(m) == hash(public) and repr(m) == repr(public)
        assert repr(m) == f"DenseMatrix(rows={m.rows}, cols={m.cols}, entries={m.entries!r})"  # Fraction's text
        assert type(m.entries) is tuple and all(type(x) is Fraction for x in m.entries)
        twin = pickle.loads(pickle.dumps(m))
        assert twin == public and hash(twin) == hash(public)
        assert pickle.dumps(m) == pickle.dumps(public)
    # entries wider than the int/str digit limit, which Fraction's own repr cannot write
    w = make_super([[10**5000 + 1, Fraction(-7, 10**4400 + 3)], ["6/4", 2]], [1], [1])
    wide = [w.data, parse(format(w)).components[0].data, scale("1/3", w).data, add(w, w).data, sub(w, a).data]
    wide += [transpose(w).data, super_mul(w, w)[0].data, gram(w).data, block(w, 1, 2).data, strips(w, "row")[1].data]
    for m in wide:
        public = DenseMatrix(m.rows, m.cols, list(m.entries))
        assert m == public and public == m and hash(m) == hash(public) and repr(m) == repr(public)
        assert type(m.entries) is tuple and all(type(x) is Fraction for x in m.entries)


def test_repr_writes_entries_of_any_size_as_python_does_without_the_digit_limit():
    one = make_super([[-(10**5000)]])
    two = make_super([[10**5000 + 1, Fraction(-7, 10**4400 + 3)]], (), [1])
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # no limit: Fraction's own repr writes these entries
    try:
        e1, e2 = repr(one.data.entries), repr(two.data.entries)
    finally:
        sys.set_int_max_str_digits(limit)
    assert e1.endswith(",)")  # a one-entry tuple keeps its trailing comma
    p1, p2 = "Partition(length=1, cuts=())", "Partition(length=2, cuts=(1,))"
    s1 = f"SuperMatrix(data=DenseMatrix(rows=1, cols=1, entries={e1}), row_partition={p1}, col_partition={p1})"
    s2 = f"SuperMatrix(data=DenseMatrix(rows=1, cols=2, entries={e2}), row_partition={p1}, col_partition={p2})"
    assert repr(one.data) == f"DenseMatrix(rows=1, cols=1, entries={e1})"
    assert repr(one) == s1 and repr(two) == s2
    assert repr(make_union([one, two])) == f"SuperNMatrix(components=({s1}, {s2}))"


_ENTRIES = st.one_of(
    st.integers(),
    st.fractions(),
    st.decimals(allow_nan=False, allow_infinity=False, places=3),
    st.integers().map(str),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(), st.integers(1)),
)


@given(st.data())
def test_entries_at_to_rows_and_value_eq_agree_with_the_oracle(data):
    nrows, ncols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    xs = data.draw(st.lists(_ENTRIES, min_size=nrows * ncols, max_size=nrows * ncols))
    m = DenseMatrix(nrows, ncols, xs)
    rows = o_rows(nrows, ncols, xs)
    assert m.entries == tuple(map(Fraction, xs)) and all(type(x) is Fraction for x in m.entries)
    assert m.to_rows() == rows
    assert [[m.at(i, j) for j in range(ncols)] for i in range(nrows)] == rows
    # the same values written another way, not in lowest terms, and other values of the same shape
    unreduced = [f"{2 * Fraction(x).numerator}/{2 * Fraction(x).denominator}" for x in xs]
    ys = data.draw(st.lists(_ENTRIES, min_size=nrows * ncols, max_size=nrows * ncols))
    for other in (unreduced, ys):
        same = o_rows(nrows, ncols, other) == rows
        n = DenseMatrix(nrows, ncols, other)
        assert value_eq(make_super(m), make_super(n)) is same and (m == n) is same
        assert not same or hash(m) == hash(n)
