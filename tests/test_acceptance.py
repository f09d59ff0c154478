"""End-to-end acceptance checks: exact worked results, invariants at volume, CLI behavior.

Every comparison is exact; there is no tolerance anywhere.
"""

import io
from pathlib import Path

from hypothesis import example, given, settings

import fixtures as fx
import reference
import strategies as sts
import smx
from smx import (
    flatten,
    gram,
    improper_pair,
    is_proper,
    is_semi_super,
    is_symmetric_super,
    parse,
    strict_eq,
    super_mul,
    symmetry_class,
    transpose,
    union_add,
    union_gram,
    union_mul,
    union_scale,
    union_shape,
    union_strict_eq,
    union_value_eq,
)
from smx.cli import run


def rows_of(s):
    return flatten(s).to_rows()


def test_minor_product_of_partitioned_vectors():
    p, witness = super_mul(transpose(fx.COLVEC_A), fx.COLVEC_B)
    assert rows_of(p) == fx.MINOR_PRODUCT
    assert p.rows == 1 and p.cols == 1
    assert witness.inner_partition == fx.COLVEC_A.row_partition


def test_small_block_product_matches_worked_result():
    p, _ = super_mul(fx.MUL_SMALL_A, fx.MUL_SMALL_B)
    assert strict_eq(p, fx.MUL_SMALL_PRODUCT)
    q, _ = super_mul(fx.MUL_WIDE_X, fx.MUL_WIDE_Y)
    assert strict_eq(q, fx.MUL_WIDE_PRODUCT)


@given(sts.mul_pairs(max_dim=6))
@example((fx.MUL_WIDE_X, fx.MUL_WIDE_Y))
@example((fx.MUL_SMALL_A, fx.MUL_SMALL_B))
@settings(max_examples=300)
def test_transpose_reverses_block_products(pair):
    a, b = pair
    p, _ = super_mul(a, b)
    q, _ = super_mul(transpose(b), transpose(a))
    assert strict_eq(transpose(p), q)


def test_gram_products_match_worked_results_and_are_symmetric():
    right = gram(fx.GRAM_RIGHT_IN, "right")
    assert strict_eq(right, fx.GRAM_RIGHT_OUT)
    assert is_symmetric_super(right)
    left = gram(fx.GRAM_LEFT_IN, "left")
    assert strict_eq(left, fx.GRAM_LEFT_OUT)
    assert is_symmetric_super(left)


def test_union_arithmetic_matches_worked_results():
    assert union_strict_eq(union_add(fx.UNION_ADD_A, fx.UNION_ADD_B), fx.UNION_ADD_SUM)
    assert union_strict_eq(union_scale(8, fx.UNION_SCALE_IN), fx.UNION_SCALE_BY_8)
    assert union_strict_eq(union_mul(fx.UNION_MUL_LEFT, fx.UNION_MUL_RIGHT), fx.UNION_MUL_PRODUCT)
    assert union_strict_eq(
        union_mul(fx.UNION_MUL3_LEFT, fx.UNION_MUL3_RIGHT), fx.UNION_MUL3_PRODUCT
    )
    assert union_strict_eq(union_gram(fx.UNION_GRAM_IN, "right"), fx.UNION_GRAM_RIGHT_OUT)


def test_union_classification_matches_worked_results():
    assert is_proper(fx.PROPER_UNION)
    assert improper_pair(fx.IMPROPER_UNION) == (1, 2)
    mirrored_but_uneven_cuts = fx.SYM_TRIO.components[1]
    assert not is_symmetric_super(mirrored_but_uneven_cuts)
    assert symmetry_class(fx.SYMMETRIC_FIVE) == "symmetric"
    assert symmetry_class(fx.QUASI_SIX) == "quasi_symmetric"
    assert symmetry_class(fx.QUASI_TRIO) == "quasi_symmetric"
    assert symmetry_class(fx.ASYM_SEMI_FOUR) == "none"
    assert union_shape(fx.ROW_VECTOR_SIX) == "row_n_vector"
    assert union_shape(fx.SQUARE_FOUR) == "square(4)"
    assert union_shape(fx.MIXED_SQUARE_FIVE) == "mixed_square"
    assert union_shape(fx.MIXED_RECT_FOUR) == "mixed_rectangular"
    assert union_shape(fx.WIDE_PAIR) == "special_row_n_vector"
    assert is_semi_super(fx.SEMI_UNION)
    assert is_semi_super(fx.ASYM_SEMI_FOUR)


@given(sts.mul_pairs(max_dim=8))
@settings(max_examples=1000)
def test_block_product_agrees_with_dense_oracle(pair):
    a, b = pair
    p, witness = super_mul(a, b)
    assert a.cols == b.rows  # reference.o_mul would cut a longer side short
    assert rows_of(p) == reference.o_mul(rows_of(a), rows_of(b))
    assert p.row_partition == a.row_partition
    assert p.col_partition == b.col_partition
    assert witness.inner_partition == a.col_partition


@given(sts.unions(max_components=3, max_rows=5, max_cols=5))
@settings(max_examples=500)
def test_structural_invariants_hold(u):
    assert union_strict_eq(smx.union_transpose(smx.union_transpose(u)), u)
    for side in ("left", "right"):
        for g in union_gram(u, side).components:
            assert is_symmetric_super(g)
    for n in (2, 3, 5):
        total = u
        for _ in range(n - 1):
            total = union_add(total, u)
        assert union_strict_eq(total, union_scale(n, u))
    text = smx.format(u)
    assert union_strict_eq(parse(text), u)
    assert smx.format(parse(text)) == text


@given(sts.union_texts())
@settings(max_examples=500)
def test_any_valid_layout_reads_back_its_union(case):
    u, text = case
    assert union_strict_eq(parse(text), u)


def test_mixed_union_grams_left_and_right():
    left = union_gram(fx.MIXED_GRAM_IN, "left")
    right = union_gram(fx.MIXED_GRAM_IN, "right")
    assert union_strict_eq(left, fx.MIXED_GRAM_LEFT_OUT)
    assert union_strict_eq(right, fx.MIXED_GRAM_RIGHT_OUT)
    assert all(is_symmetric_super(c) for c in left.components)
    assert all(is_symmetric_super(c) for c in right.components)
    assert not union_value_eq(left, right)


def test_readme_library_example_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})


def test_cli_end_to_end_report_and_arithmetic(tmp_path):
    def invoke(args):
        out, err = io.StringIO(), io.StringIO()
        code = run(args, stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    def put(name, content):
        p = tmp_path / name
        p.write_text(smx.format(content))
        return str(p)

    a = put("a.smx", fx.MUL_SMALL_A)
    b = put("b.smx", fx.MUL_SMALL_B)
    code, out, err = invoke(["mul", a, b])
    assert (code, err) == (0, "")
    assert out == "[  5  5\n  18 11\n   9 13 ]\n"

    c = put("c.smx", fx.ADD_MISMATCH_PAIR[0])
    d = put("d.smx", fx.ADD_MISMATCH_PAIR[1])
    code, out, err = invoke(["add", c, d])
    assert code == 2
    assert out == ""
    assert "partition mismatch" in err

    e = put("e.smx", fx.IMPROPER_UNION)
    code, out, err = invoke(["check", e])
    assert code == 3
    assert "proper: false" in out
    assert "identical components 1 and 2" in err
