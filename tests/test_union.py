import pytest
from hypothesis import given

import fixtures as fx
import strategies as sts
from smx import (
    improper_pair,
    is_proper,
    is_semi_super,
    make_super,
    make_union,
    scale,
    strict_eq,
    union_add,
    union_flatten,
    union_gram,
    union_mul,
    union_scale,
    union_strict_eq,
    union_sub,
    union_transpose,
    union_value_eq,
)
from smx.errors import ArityMismatch, EmptyUnion, InvalidArgument, PartitionMismatch
from smx.union import SuperNMatrix


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(EmptyUnion):
            make_union([])

    @pytest.mark.parametrize("junk", ["x", None, make_super([[1]]).data, [[1, 2]]])
    def test_non_supermatrix_component_rejected(self, junk):
        with pytest.raises(InvalidArgument, match="component 2 is a"):
            make_union([make_super([[1]]), junk])
        with pytest.raises(TypeError):  # InvalidArgument is also a TypeError
            make_union([junk])

    def test_arity(self):
        assert fx.UNION_ADD_A.arity == 2
        assert fx.UNION_MUL3_LEFT.arity == 3


class TestProperness:
    def test_distinct_partitions_proper(self):
        assert is_proper(fx.PROPER_UNION)
        assert improper_pair(fx.PROPER_UNION) is None

    def test_identical_components_improper(self):
        assert not is_proper(fx.IMPROPER_UNION)
        assert improper_pair(fx.IMPROPER_UNION) == (1, 2)

    def test_single_component_proper(self):
        assert is_proper(make_union([fx.SYM_4X4]))

    def test_all_zero_union_proper(self):
        z = make_super([[0, 0], [0, 0]], [1], [1])
        assert is_proper(make_union([z, z, z]))

    def test_zero_alongside_nonzero_still_matters(self):
        z = make_super([[0, 0], [0, 0]], [1], [1])
        nz = make_super([[1, 0], [0, 1]], [1], [1])
        assert improper_pair(make_union([z, nz, z])) == (1, 3)

    def test_same_entries_different_partitions_proper(self):
        a, b = fx.VALUE_EQ_PAIR
        assert is_proper(make_union([a, b]))

    def test_first_pair_reported(self):
        s = fx.IMPROPER_UNION.components[0]
        other = make_super(fx.IMPROPER_BASE_3X3, [1], [1])
        assert improper_pair(make_union([other, s, s])) == (2, 3)


class TestSemiSuper:
    def test_mixed_union(self):
        assert is_semi_super(fx.SEMI_UNION)
        assert is_semi_super(fx.ASYM_SEMI_FOUR)
        assert is_semi_super(fx.MIXED_GRAM_IN)

    def test_all_partitioned(self):
        assert not is_semi_super(fx.PROPER_UNION)

    def test_all_plain(self):
        u = make_union([make_super([[1, 2]]), make_super([[3], [4]])])
        assert not is_semi_super(u)


class TestUnionArithmetic:
    def test_add_fixture(self):
        assert union_strict_eq(union_add(fx.UNION_ADD_A, fx.UNION_ADD_B), fx.UNION_ADD_SUM)

    def test_add_arity_mismatch(self):
        single = make_union([fx.UNION_ADD_A.components[0]])
        with pytest.raises(ArityMismatch) as exc:
            union_add(fx.UNION_ADD_A, single)
        assert "arity 2 and 1" in str(exc.value)

    def test_add_partition_mismatch_names_component(self):
        a, b = fx.UNION_ADD_MISMATCH
        with pytest.raises(PartitionMismatch) as exc:
            union_add(a, b)
        assert exc.value.component == 1
        assert str(exc.value).startswith("component 1:")

    def test_scale_fixture(self):
        assert union_strict_eq(union_scale(8, fx.UNION_SCALE_IN), fx.UNION_SCALE_BY_8)

    def test_sub_then_add_back(self):
        d = union_sub(fx.UNION_ADD_SUM, fx.UNION_ADD_B)
        assert union_strict_eq(d, fx.UNION_ADD_A)

    def test_n_fold_sum_is_scaling(self):
        u = fx.SMALL_TRIO
        assert union_strict_eq(union_add(union_add(u, u), u), union_scale(3, u))

    def test_transpose_components(self):
        t = union_transpose(fx.ROW_VECTOR_PAIR)
        first, second = t.components
        assert first.rows == 9 and first.cols == 1 and first.row_cuts == (4,)
        assert second.rows == 11 and second.col_cuts == ()
        assert second.row_cuts == (3, 6)

    def test_transpose_involution_fixture(self):
        t = union_transpose(union_transpose(fx.SMALL_TRIO))
        assert union_strict_eq(t, fx.SMALL_TRIO)

    def test_mul_fixture(self):
        got = union_mul(fx.UNION_MUL_LEFT, fx.UNION_MUL_RIGHT)
        assert isinstance(got, SuperNMatrix)
        assert union_strict_eq(got, fx.UNION_MUL_PRODUCT)

    def test_mul_triple_fixture(self):
        got = union_mul(fx.UNION_MUL3_LEFT, fx.UNION_MUL3_RIGHT)
        assert union_strict_eq(got, fx.UNION_MUL3_PRODUCT)

    def test_gram_right_fixture(self):
        got = union_gram(fx.UNION_GRAM_IN, "right")
        assert union_strict_eq(got, fx.UNION_GRAM_RIGHT_OUT)

    def test_flatten_drops_partitions(self):
        f = union_flatten(fx.UNION_SCALE_IN)
        assert all(c.row_cuts == () and c.col_cuts == () for c in f.components)
        assert union_value_eq(f, fx.UNION_SCALE_IN)

    @given(sts.union_pairs_same_layout())
    def test_add_commutes(self, pair):
        u, v = pair
        assert union_strict_eq(union_add(u, v), union_add(v, u))

    @given(sts.unions(), sts.rationals)
    def test_scale_distributes_over_components(self, u, k):
        s = union_scale(k, u)
        for c, sc in zip(u.components, s.components):
            assert strict_eq(sc, scale(k, c))


class TestUnionEquality:
    def test_arity_mismatch_is_false_not_error(self):
        single = make_union([fx.UNION_ADD_A.components[0]])
        assert not union_value_eq(fx.UNION_ADD_A, single)
        assert not union_strict_eq(fx.UNION_ADD_A, single)

    def test_value_vs_strict(self):
        a, b = fx.VALUE_EQ_PAIR
        ua, ub = make_union([a]), make_union([b])
        assert union_value_eq(ua, ub)
        assert not union_strict_eq(ua, ub)

    def test_different_dimensions_false(self):
        assert not union_value_eq(fx.MIXED_GRAM_LEFT_OUT, fx.MIXED_GRAM_RIGHT_OUT)
