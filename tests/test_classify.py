from hypothesis import given, settings

import fixtures as fx
import reference
import strategies as sts
from smx import (
    flatten,
    improper_pair,
    is_proper,
    is_semi_super,
    is_symmetric_super,
    make_super,
    make_union,
    shape_class,
    symmetry_class,
    union_class,
    union_shape,
    union_transpose,
)


class TestShapeClass:
    def test_simple(self):
        assert shape_class(fx.SCALE_BASE) == "simple"

    def test_row_supervector(self):
        assert shape_class(fx.WIDE_3X6) == "row_supervector"
        assert shape_class(fx.COLS_ONLY_6X6) == "row_supervector"

    def test_column_supervector(self):
        assert shape_class(fx.ROWS_ONLY_6X6) == "column_supervector"
        assert shape_class(fx.GRAM_LEFT_IN) == "column_supervector"

    def test_general_super(self):
        assert shape_class(fx.BLOCKED_5X5) == "general_super"
        assert shape_class(fx.QUAD_6X6) == "general_super"


class TestSymmetricSuper:
    def test_symmetric_fixture(self):
        assert is_symmetric_super(fx.SYM_4X4)

    def test_symmetric_entries_but_unequal_partitions(self):
        k1, k2, k3 = fx.SYM_TRIO.components
        assert is_symmetric_super(k1)
        assert not is_symmetric_super(k2)
        assert is_symmetric_super(k3)

    def test_asymmetric_entries(self):
        q1, q2, _ = fx.QUASI_TRIO.components
        assert not is_symmetric_super(q1)
        assert is_symmetric_super(q2)

    def test_non_square_never_symmetric(self):
        assert not is_symmetric_super(fx.WIDE_3X6)


class TestSymmetryClass:
    def test_all_symmetric(self):
        assert symmetry_class(fx.SYMMETRIC_FIVE) == "symmetric"

    def test_some_symmetric(self):
        assert symmetry_class(fx.QUASI_SIX) == "quasi_symmetric"
        assert symmetry_class(fx.QUASI_TRIO) == "quasi_symmetric"
        assert symmetry_class(fx.SYM_TRIO) == "quasi_symmetric"

    def test_none_symmetric(self):
        assert symmetry_class(fx.ASYM_SEMI_FOUR) == "none"

    def test_single_symmetric_component(self):
        assert symmetry_class(make_union([fx.SYM_4X4])) == "symmetric"

    @given(sts.unions())
    def test_label_matches_component_flags(self, u):
        flags = [is_symmetric_super(c) for c in u.components]
        label = symmetry_class(u)
        if all(flags):
            assert label == "symmetric"
        elif any(flags):
            assert label == "quasi_symmetric"
        else:
            assert label == "none"


class TestUnionShape:
    def test_row_vectors(self):
        assert union_shape(fx.ROW_VECTOR_SIX) == "row_n_vector"
        assert union_shape(fx.ROW_VECTOR_PAIR) == "row_n_vector"

    def test_column_vectors_after_transpose(self):
        assert union_shape(union_transpose(fx.ROW_VECTOR_PAIR)) == "column_n_vector"

    def test_wide_components(self):
        assert union_shape(fx.WIDE_PAIR) == "special_row_n_vector"

    def test_tall_components(self):
        assert union_shape(fx.TALL_PAIR) == "special_column_n_vector"

    def test_special_transposes_to_special(self):
        assert union_shape(union_transpose(fx.WIDE_PAIR)) == "special_column_n_vector"

    def test_same_order_squares(self):
        assert union_shape(fx.SQUARE_FOUR) == "square(4)"
        assert union_shape(fx.PROPER_UNION) == "square(4)"

    def test_squares_of_different_orders(self):
        assert union_shape(fx.MIXED_SQUARE_FIVE) == "mixed_square"

    def test_rectangles_of_different_shapes(self):
        assert union_shape(fx.MIXED_RECT_FOUR) == "mixed_rectangular"

    def test_rectangles_of_one_shape(self):
        u = make_union(
            [
                make_super([[1, 2, 3], [4, 5, 6]], [1], [1]),
                make_super([[0, 1, 0], [1, 0, 1]], [1], [2]),
            ]
        )
        assert union_shape(u) == "rectangular(2,3)"

    def test_square_and_rectangular_mix(self):
        assert union_shape(fx.SEMI_UNION) == "mixed"

    def test_special_implies_base_family(self):
        for u in (fx.WIDE_PAIR, fx.ROW_VECTOR_SIX):
            if union_shape(u) in ("row_n_vector", "special_row_n_vector"):
                assert not any(c.row_cuts for c in u.components)
        for u in (fx.TALL_PAIR,):
            if union_shape(u) in ("column_n_vector", "special_column_n_vector"):
                assert not any(c.col_cuts for c in u.components)

    @given(sts.unions())
    def test_transpose_swaps_labels(self, u):
        swap = {
            "row_n_vector": "column_n_vector",
            "column_n_vector": "row_n_vector",
            "special_row_n_vector": "special_column_n_vector",
            "special_column_n_vector": "special_row_n_vector",
            "mixed_square": "mixed_square",
            "mixed_rectangular": "mixed_rectangular",
            "mixed": "mixed",
        }
        label = union_shape(u)
        expected = swap.get(label)
        if expected is None:
            if label.startswith("square("):
                expected = label
            else:
                assert label.startswith("rectangular(")
                m, t = label[len("rectangular(") : -1].split(",")
                expected = f"rectangular({t},{m})"
        assert union_shape(union_transpose(u)) == expected


class TestUnionClass:
    def test_report_fields(self):
        rep = union_class(fx.PROPER_UNION)
        assert rep.arity == 2
        assert rep.component_shapes == ("general_super", "general_super")
        assert rep.union_shape == "square(4)"
        assert rep.proper is True
        assert rep.semi_super is False

    def test_improper_report(self):
        rep = union_class(fx.IMPROPER_UNION)
        assert rep.proper is False

    def test_semi_report(self):
        rep = union_class(fx.ASYM_SEMI_FOUR)
        assert rep.semi_super is True
        assert rep.symmetry == "none"
        assert rep.component_shapes[2] == "simple"

    def test_to_dict_keys(self):
        d = union_class(fx.SEMI_UNION).to_dict()
        assert list(d) == [
            "arity",
            "component_shapes",
            "union_shape",
            "symmetry",
            "semi_super",
            "proper",
        ]
        assert isinstance(d["component_shapes"], list)

    @given(sts.unions_with_repeats())
    def test_report_agrees_with_the_predicates(self, u):
        rep = union_class(u)
        assert rep.proper == is_proper(u) == (improper_pair(u) is None)
        assert rep.semi_super == is_semi_super(u)

    @given(sts.unions() | sts.unions_with_repeats())
    @settings(max_examples=300)
    def test_report_agrees_with_the_reference(self, u):
        comps = [(flatten(c).to_rows(), c.row_cuts, c.col_cuts) for c in u.components]
        assert union_class(u).to_dict() == reference.report(comps)
