import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fixtures as fx
import reference
import strategies as sts
from smx import (
    add,
    flatten,
    gram,
    is_symmetric_super,
    make_super,
    scale,
    strict_eq,
    sub,
    super_mul,
    transpose,
    value_eq,
)
from smx.errors import DimensionMismatch, InvalidValue, PartitionMismatch, SmxError


def rows_of(s):
    return flatten(s).to_rows()


class TestEquality:
    def test_value_eq_ignores_partitions(self):
        a, b = fx.VALUE_EQ_PAIR
        assert value_eq(a, b)
        assert not strict_eq(a, b)

    def test_strict_eq_same_object_layout(self):
        a, _ = fx.VALUE_EQ_PAIR
        assert strict_eq(a, make_super(fx.EQ_BASE_5X5, [3], [3]))

    def test_value_eq_different_entries(self):
        assert not value_eq(fx.SCALE_BASE, fx.SCALE_TRIPLE)

    @given(sts.supermatrices(max_rows=4, max_cols=4), st.data())
    def test_strict_eq_is_value_eq_and_equal_partitions(self, a, data):
        rows = flatten(a).to_rows()
        b = make_super(rows, data.draw(sts.cuts_for(a.rows)), data.draw(sts.cuts_for(a.cols)))
        same_cuts = a.row_partition == b.row_partition and a.col_partition == b.col_partition
        assert strict_eq(a, b) == (value_eq(a, b) and same_cuts)


class TestAdd:
    def test_small_sum(self):
        a = make_super([[1, 2], [3, 4]], [1], [1])
        b = make_super([[10, 0], [0, 10]], [1], [1])
        assert strict_eq(add(a, b), make_super([[11, 2], [3, 14]], [1], [1]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            add(fx.SCALE_BASE, fx.SYM_4X4)

    def test_partition_mismatch(self):
        a, b = fx.ADD_MISMATCH_PAIR
        with pytest.raises(PartitionMismatch) as exc:
            add(a, b)
        assert "row cuts [2] vs [1]" in str(exc.value)

    @given(sts.same_layout(count=2))
    def test_matches_oracle_and_commutes(self, pair):
        a, b = pair
        s = add(a, b)
        assert rows_of(s) == reference.o_add(rows_of(a), rows_of(b))
        assert s.row_partition == a.row_partition and s.col_partition == a.col_partition
        assert strict_eq(s, add(b, a))

    @given(sts.same_layout(count=3))
    def test_associative(self, triple):
        a, b, c = triple
        assert strict_eq(add(add(a, b), c), add(a, add(b, c)))


class TestScale:
    def test_triple(self):
        assert strict_eq(scale(3, fx.SCALE_BASE), fx.SCALE_TRIPLE)

    def test_rational_scalar(self):
        assert rows_of(scale("1/2", fx.SCALE_BASE)) == [
            [1, 0, Fraction(1, 2)],
            [Fraction(3, 2), Fraction(3, 2), Fraction(-1, 2)],
        ]

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            scale(0.5, fx.SCALE_BASE)

    @given(sts.supermatrices(), sts.rationals)
    def test_matches_oracle(self, s, k):
        assert rows_of(scale(k, s)) == reference.o_scale(k, rows_of(s))

    @given(sts.supermatrices(), sts.rationals, sts.rationals)
    def test_scalars_compose(self, s, j, k):
        assert strict_eq(scale(j, scale(k, s)), scale(j * k, s))


class TestSub:
    def test_self_difference_is_zero(self):
        z = sub(fx.TALL_7X5, fx.TALL_7X5)
        assert all(x == 0 for x in flatten(z).entries)
        assert z.row_partition == fx.TALL_7X5.row_partition

    @pytest.mark.parametrize(
        "pair, error",
        [
            ((fx.SCALE_BASE, fx.SYM_4X4), DimensionMismatch),
            (fx.ADD_MISMATCH_PAIR, PartitionMismatch),
            ((make_super([[1, 2]], (), [1]), make_super([[1, 2]])), PartitionMismatch),
        ],
    )
    def test_errors_match_add(self, pair, error):
        with pytest.raises(error) as from_add:
            add(*pair)
        with pytest.raises(error) as from_sub:
            sub(*pair)
        assert str(from_sub.value) == str(from_add.value)

    @given(sts.same_layout(count=2))
    def test_add_back(self, pair):
        a, b = pair
        assert strict_eq(add(sub(a, b), b), a)


class TestTranspose:
    def test_partitioned_fixture(self):
        assert strict_eq(transpose(fx.TALL_7X5), fx.TALL_7X5_T)

    def test_swaps_partitions(self):
        t = transpose(fx.WIDE_3X6)
        assert t.rows == 6 and t.cols == 3
        assert t.row_cuts == (4,) and t.col_cuts == ()

    @given(sts.supermatrices())
    def test_involution(self, s):
        assert strict_eq(transpose(transpose(s)), s)

    @given(sts.supermatrices())
    def test_matches_oracle(self, s):
        assert rows_of(transpose(s)) == reference.o_transpose(rows_of(s))


class TestSuperMul:
    def test_small_product(self):
        p, w = super_mul(fx.MUL_SMALL_A, fx.MUL_SMALL_B)
        assert strict_eq(p, fx.MUL_SMALL_PRODUCT)
        assert w.inner_partition == fx.MUL_SMALL_A.col_partition
        assert w.left_row_partition == fx.MUL_SMALL_A.row_partition
        assert w.right_col_partition == fx.MUL_SMALL_B.col_partition

    def test_wide_product(self):
        p, _ = super_mul(fx.MUL_WIDE_X, fx.MUL_WIDE_Y)
        assert strict_eq(p, fx.MUL_WIDE_PRODUCT)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            super_mul(fx.MUL_SMALL_A, fx.MUL_SMALL_A)

    def test_inner_partition_mismatch(self):
        b = make_super([[1, 2], [3, 1]], (), ())
        with pytest.raises(PartitionMismatch) as exc:
            super_mul(fx.MUL_SMALL_A, b)
        assert "inner cuts [1] vs []" in str(exc.value)

    def test_row_vector_times_column_vector(self):
        p, _ = super_mul(fx.ROW_TIMES_COL_LEFT, fx.ROW_TIMES_COL_RIGHT)
        assert strict_eq(p, fx.ROW_TIMES_COL_OUT)

    def test_column_vector_times_row_vector(self):
        p, w = super_mul(fx.ROW_TIMES_COL_RIGHT, fx.ROW_TIMES_COL_LEFT)
        assert p.rows == 9 and p.cols == 9
        assert p.row_cuts == (3, 7) and p.col_cuts == (3, 7)
        right, left = rows_of(fx.ROW_TIMES_COL_RIGHT), rows_of(fx.ROW_TIMES_COL_LEFT)
        assert len(right[0]) == len(left)  # reference.o_mul would cut a longer side short
        assert rows_of(p) == reference.o_mul(right, left)
        assert w.inner_partition.is_trivial

    def test_result_partitions_come_from_outer_axes(self):
        p, _ = super_mul(fx.MUL_WIDE_X, fx.MUL_WIDE_Y)
        assert p.row_partition == fx.MUL_WIDE_X.row_partition
        assert p.col_partition == fx.MUL_WIDE_Y.col_partition

    @given(sts.mul_pairs(max_dim=8))
    @settings(max_examples=1000)
    def test_matches_oracle(self, pair):
        a, b = pair
        p, witness = super_mul(a, b)
        assert a.cols == b.rows  # reference.o_mul would cut a longer side short
        assert rows_of(p) == reference.o_mul(rows_of(a), rows_of(b))
        assert p.row_partition == a.row_partition
        assert p.col_partition == b.col_partition
        assert witness.inner_partition == a.col_partition

    @given(sts.mul_pairs(max_dim=6))
    @example((fx.MUL_WIDE_X, fx.MUL_WIDE_Y))
    @example((fx.MUL_SMALL_A, fx.MUL_SMALL_B))
    @settings(max_examples=300)
    def test_reversal_law(self, pair):
        a, b = pair
        p, _ = super_mul(a, b)
        q, _ = super_mul(transpose(b), transpose(a))
        assert strict_eq(transpose(p), q)


_BITS = st.integers(1, 300)
_WIDE = st.builds(
    Fraction,
    _BITS.flatmap(lambda n: st.integers(-(2**n), 2**n)),
    _BITS.flatmap(lambda n: st.integers(1, 2**n)),
)


@st.composite
def _wide_mul_operands(draw):
    """(a, b) as row lists: entries of up to about 300 bits, or small entries with
    one wide one among them, and perhaps an all-zero row of a and column of b."""
    n, t, m = (draw(st.integers(1, 6)) for _ in range(3))
    entries = draw(st.sampled_from([_WIDE, sts.rationals]))
    a = [draw(st.lists(entries, min_size=t, max_size=t)) for _ in range(n)]
    b = [draw(st.lists(entries, min_size=m, max_size=m)) for _ in range(t)]
    if entries is sts.rationals:
        rows = draw(st.sampled_from([a, b]))
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(_WIDE)
    if draw(st.booleans()):
        a[draw(st.integers(0, n - 1))] = [Fraction(0)] * t
    if draw(st.booleans()):
        j = draw(st.integers(0, m - 1))
        for row in b:
            row[j] = Fraction(0)
    return a, b


# Magnitudes at and beside powers of two, and inner lengths at and beside them,
# so that some products come within one bit of filling their slots. The bounds
# reach both sides of the 1-, 2-, 4- and 8-byte slots that one struct.unpack
# reads (2**15 - 1 squared is the last 4-byte bound), and the wider slots beyond.
_EDGE_MAGNITUDES = (0, 1, 3, 7, 8, 127, 128, 255, 256, 2**15 - 1, 2**16 - 1)
_EDGE_MAGNITUDES += (2**31 - 1, 2**31, 2**32 - 1, 2**64, 2**300 - 1)
_EDGE_SHAPES = ((1, 1, 1), (3, 1, 4), (2, 3, 2), (2, 7, 3), (2, 8, 3), (3, 15, 2))


class TestWideProducts:
    @given(_wide_mul_operands())
    @settings(max_examples=300)
    def test_wide_entries_match_the_oracle(self, operands):
        a, b = operands
        p, _ = super_mul(make_super(a), make_super(b))
        assert len(a[0]) == len(b)  # reference.o_mul would cut a longer side short
        assert rows_of(p) == reference.o_mul(a, b)

    @pytest.mark.parametrize("byteorder", ["little", "big"])
    def test_every_dot_product_at_its_largest(self, byteorder, monkeypatch):
        monkeypatch.setattr(sys, "byteorder", byteorder)  # the product's bytes must not depend on the machine's order
        for (n, t, m), r, c, sr, sc in product(_EDGE_SHAPES, _EDGE_MAGNITUDES, _EDGE_MAGNITUDES, (1, -1), (1, -1)):
            a = make_super([[sr * r] * t] * n)
            b = make_super([[sc * c] * m] * t)
            dot = t * sr * r * sc * c
            assert rows_of(super_mul(a, b)[0]) == [[dot] * m] * n, (n, t, m, sr * r, sc * c)


class TestGram:
    def test_right_fixture(self):
        right = gram(fx.GRAM_RIGHT_IN, "right")
        assert strict_eq(right, fx.GRAM_RIGHT_OUT)
        assert is_symmetric_super(right)

    def test_left_fixture(self):
        left = gram(fx.GRAM_LEFT_IN, "left")
        assert strict_eq(left, fx.GRAM_LEFT_OUT)
        assert is_symmetric_super(left)

    def test_minor_vector_product(self):
        p, witness = super_mul(transpose(fx.COLVEC_A), fx.COLVEC_B)
        assert rows_of(p) == fx.MINOR_PRODUCT
        assert p.rows == 1 and p.cols == 1
        assert witness.inner_partition == fx.COLVEC_A.row_partition

    def test_bad_side(self):
        with pytest.raises(ValueError):
            gram(fx.GRAM_RIGHT_IN, "up")

    def test_bad_side_is_typed(self):
        with pytest.raises(InvalidValue, match="side must be 'left' or 'right', got 'up'") as exc:
            gram(fx.GRAM_RIGHT_IN, "up")
        assert isinstance(exc.value, SmxError)

    @given(sts.supermatrices())
    def test_equals_the_product_with_the_transpose(self, s):
        assert strict_eq(gram(s, "right"), super_mul(s, transpose(s))[0])
        assert strict_eq(gram(s, "left"), super_mul(transpose(s), s)[0])

    def test_long_entries_match_the_product_with_the_transpose(self):
        big = 10**300
        for rows, cols, row_cuts, col_cuts in ((1, 7, (), (2, 5)), (7, 1, (1, 4), ()), (5, 4, (2,), (1, 3))):
            # every row has its own denominator, so each row's lcm differs
            entries = [
                [Fraction((-1) ** (i + j) * (big + 7 * i + j), big // 10 ** (37 * i + 1) + 3) for j in range(cols)]
                for i in range(rows)
            ]
            s = make_super(entries, row_cuts, col_cuts)
            assert strict_eq(gram(s, "right"), super_mul(s, transpose(s))[0])
            assert strict_eq(gram(s, "left"), super_mul(transpose(s), s)[0])
            assert max(x.numerator.bit_length() for x in gram(s, "right").data.entries) > 1900
        # integers only, so every p*q is 1: negative entries, a zero row and a zero column
        entries = [[0 if 1 in (i, j) else (-1) ** (i * j) * (big + 5 * i - j) for j in range(4)] for i in range(5)]
        s = make_super(entries, (2,), (1, 3))
        assert strict_eq(gram(s, "right"), super_mul(s, transpose(s))[0])
        assert strict_eq(gram(s, "left"), super_mul(transpose(s), s)[0])
        entries_t = reference.o_transpose(entries)
        assert len(entries[0]) == len(entries_t)  # reference.o_mul would cut a longer side short
        assert rows_of(gram(s, "right")) == reference.o_mul(entries, entries_t)

    @given(sts.supermatrices(max_rows=6, max_cols=6))
    @settings(max_examples=500)
    def test_square_symmetric_matched_partitions(self, s):
        for side, axis in (("right", s.row_partition), ("left", s.col_partition)):
            g = gram(s, side)
            assert g.rows == g.cols
            assert g.row_partition == axis and g.col_partition == axis
            assert rows_of(g) == reference.o_transpose(rows_of(g))
            assert is_symmetric_super(g)
