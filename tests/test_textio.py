from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures as fx
import strategies as sts
from smx import flatten, format, make_super, make_union, parse, parse_scalar, textio, union_strict_eq
from smx.core import format_scalar
from smx.errors import EmptyInput, InconsistentCuts, InvalidArgument, ParseError, RaggedRows

CANONICAL = "[ 3 0 | 1\n  2 1 | 1\n  ----+--\n  5 2 | 0 ]\nU\n[ 7/2 -1 ]\n"


class TestParse:
    def test_canonical_sample(self):
        u = parse(CANONICAL)
        assert u.arity == 2
        first, second = u.components
        assert flatten(first).to_rows() == [[3, 0, 1], [2, 1, 1], [5, 2, 0]]
        assert first.row_cuts == (2,) and first.col_cuts == (2,)
        assert flatten(second).to_rows() == [[Fraction(7, 2), -1]]
        assert second.row_cuts == () and second.col_cuts == ()

    def test_semicolon_rows(self):
        u = parse("[1 2;3 4]")
        assert flatten(u.components[0]).to_rows() == [[1, 2], [3, 4]]

    def test_newline_rows(self):
        u = parse("[ 1 2\n3 4 ]")
        assert flatten(u.components[0]).to_rows() == [[1, 2], [3, 4]]

    def test_crlf(self):
        u = parse("[ 1 2\r\n3 4 ]\r\n")
        assert flatten(u.components[0]).to_rows() == [[1, 2], [3, 4]]

    def test_blank_lines_inside(self):
        u = parse("[ 1 2\n\n3 4 ]")
        assert flatten(u.components[0]).to_rows() == [[1, 2], [3, 4]]

    def test_union_glyph_separator(self):
        u = parse("[1]\n∪\n[2]")
        assert u.arity == 2

    def test_tabs_and_spacing(self):
        u = parse("[\t1\t|\t2 ]")
        assert u.components[0].col_cuts == (1,)

    def test_cut_without_blanks(self):
        u = parse("[ 1|2 ]")
        assert flatten(u.components[0]).to_rows() == [[1, 2]]
        assert u.components[0].col_cuts == (1,)

    def test_long_token_on_a_row_line(self):
        u = parse("[ 1 | " + "9" * 5000 + "\n  2 | -" + "9" * 5000 + "/2 ]")
        assert flatten(u.components[0]).to_rows() == [[1, 10**5000 - 1], [2, Fraction(1 - 10**5000, 2)]]

    def test_long_token_errors_on_a_row_line(self):
        for tail, message in (("-1", "invalid rational"), ("/0", "zero denominator in")):
            with pytest.raises(ParseError) as exc:
                parse("[ 1 " + "9" * 5000 + tail + " ]")
            assert (exc.value.line, exc.value.column) == (1, 5)
            assert exc.value.message.startswith(f"{message} '999")

    def test_each_distinct_scalar_is_converted_once_per_parse(self, monkeypatch):
        calls, read = [], textio._ratio

        def counting(token):  # counts conversions; '2|7/2', which the split tries first, fails
            value = read(token)
            calls.append(token)
            return value

        monkeypatch.setattr(textio, "_ratio", counting)
        # split rows, then a token-loop line ('2|7/2' and ';'), then a second component
        text = "[ 1 2 | 7/2\n  2 1 | 7/2\n  1 2|7/2 ; 2 1 | -3 ]\nU\n[ -3 7/2 ]\n"
        for _ in range(2):  # the next parse converts every token again
            calls.clear()
            u = parse(text)
            assert sorted(calls) == ["-3", "1", "2", "7/2"]
        assert flatten(u.components[0]).to_rows()[3] == [2, 1, -3]

    def test_negative_and_fraction_scalars(self):
        u = parse("[ -3 7/2 ]")
        assert flatten(u.components[0]).to_rows() == [[-3, Fraction(7, 2)]]

    @pytest.mark.parametrize(
        "text, canonical",
        [
            ("[\n1 2\n  ]", "[ 1 2 ]\n"),
            ("  [ 1\n  --\n2 ]", "[ 1\n  --\n  2 ]\n"),
            ("[ 1 2]", "[ 1 2 ]\n"),
            ("[ 1 ; 2 ]", "[ 1\n  2 ]\n"),
            # a row end with no entries before it ends nothing
            ("[ 1 ; ; 2 ]", "[ 1\n  2 ]\n"),
            ("[ 1 2\n  ; 3 4 ]", "[ 1 2\n  3 4 ]\n"),
            ("[ 1 2 ;; 3 4 ]", "[ 1 2\n  3 4 ]\n"),
            ("[ ; 1 2 ]", "[ 1 2 ]\n"),
            ("[ 1 ;\n  --\n  ; 2 ]", "[ 1\n  --\n  2 ]\n"),
        ],
        ids=[
            "brackets-on-their-own-lines",
            "indented-open",
            "attached-close",
            "semicolon-then-close",
            "doubled-semicolon-spaced",
            "semicolon-opens-a-line",
            "doubled-semicolon",
            "semicolon-first",
            "semicolons-around-a-rule",
        ],
    )
    def test_bracket_and_rule_placement(self, text, canonical):
        assert format(parse(text)) == canonical

    @pytest.mark.parametrize("rule", ["--", "+-+-", "\t--+"])
    def test_single_row_cut(self, rule):
        u = parse(f"[ 5\n{rule}\n7 ]")
        assert u.components[0].row_cuts == (1,)


# (text, error type, line, column, message)
PARSE_ERRORS = [
    ("", EmptyInput, 1, 1, "empty input"),
    ("   \n\n", EmptyInput, 1, 1, "empty input"),
    ("x", ParseError, 1, 1, "expected '[' to open a component"),
    ("[ 1 2\n3 ]", RaggedRows, 2, 3, "row 2 has 1 entries, previous rows have 2"),
    ("[ 1 2\n3 ] \t", RaggedRows, 2, 3, "row 2 has 1 entries, previous rows have 2"),
    ("[ 1 | 2\n3 4 ]", InconsistentCuts, 2, 5, "row 2 cuts at [], previous rows at [1]"),
    ("[ 1 || 2 ]", ParseError, 1, 6, "duplicate column cut"),
    ("[ | 1 ]", ParseError, 1, 3, "column cut before the first entry of a row"),
    ("[ 1 | ]", ParseError, 1, 7, "column cut after the last entry of a row"),
    ("[ 1 2 | ]", ParseError, 1, 9, "column cut after the last entry of a row"),
    ("[ 1 | | 2 ]", ParseError, 1, 7, "duplicate column cut"),
    ("[\n--\n1 ]", ParseError, 2, 1, "row cut before the first row"),
    ("[ 1\n--\n--\n2 ]", ParseError, 3, 1, "duplicate row cut"),
    ("[ 1\n--\n]", ParseError, 3, 1, "row cut after the last row"),
    ("[ ]", ParseError, 1, 3, "component has no rows"),
    ("[;]", ParseError, 1, 3, "component has no rows"),
    ("[\n]\n", ParseError, 2, 1, "component has no rows"),
    ("[ 1 ] x", ParseError, 1, 7, "unexpected text after ']'"),
    ("[ 1 ]\tx", ParseError, 1, 7, "unexpected text after ']'"),
    ("[ 1 2 ] 3", ParseError, 1, 9, "unexpected text after ']'"),
    ("[ 1 2] ]", ParseError, 1, 8, "unexpected text after ']'"),
    ("[ [ ]", ParseError, 1, 3, "unexpected '[' inside a component"),
    ("[ 1 @ ]", ParseError, 1, 5, "unexpected character '@'"),
    ("[\t1\t@ ]", ParseError, 1, 5, "unexpected character '@'"),
    ("[ 1\v2 ]", ParseError, 1, 4, "unexpected character '\\x0b'"),
    ("[ 1\xa02 ]", ParseError, 1, 4, "unexpected character '\\xa0'"),
    ("[ 1\r2 ]", ParseError, 1, 4, "unexpected character '\\r'"),
    ("[ 1 2 ]\r", ParseError, 1, 8, "unexpected text after ']'"),
    ("[ 1 2 ]\n\r", ParseError, 2, 1, "expected '[' to open a component"),
    ("[ 1 ]\nU\n[ 2 ]\r", ParseError, 3, 6, "unexpected text after ']'"),
    ("\xa0[ 1 ]", ParseError, 1, 1, "expected '[' to open a component"),
    ("\x0c\n[ 1 ]", ParseError, 1, 1, "expected '[' to open a component"),
    ("[1]\nU\xa0\n[2]", ParseError, 2, 2, "unexpected text after 'U'"),
    ("[1]\nU x\n[2]", ParseError, 2, 3, "unexpected text after 'U'"),
    ("[1]\n\tU x\n[2]", ParseError, 2, 4, "unexpected text after 'U'"),
    ("[1]\n∪\t]\n[2]", ParseError, 2, 3, "unexpected text after '∪'"),
    ("U [1]", ParseError, 1, 3, "unexpected text after 'U'"),
    ("[ 1\nU x\n2 ]", ParseError, 2, 1, "unexpected character 'U'"),
    ("[ 1\n-\n2 ]", ParseError, 2, 1, "invalid rational '-'"),
    ("[ 1\n-- 3\n2 ]", ParseError, 2, 1, "invalid rational '--'"),
    ("[ 1\n\x0c\n2 ]", ParseError, 2, 1, "unexpected character '\\x0c'"),
    ("[ 1 ]\x0c", ParseError, 1, 6, "unexpected text after ']'"),
    ("[ \u0663 ]", ParseError, 1, 3, "unexpected character '\u0663'"),
    ("[ 1+2 ]", ParseError, 1, 3, "invalid rational '1+2'"),
    ("[ +1 ]", ParseError, 1, 3, "invalid rational '+1'"),
    ("[ 1/0 ]", ParseError, 1, 3, "zero denominator in '1/0'"),
    ("[ 1/0 2 ]", ParseError, 1, 3, "zero denominator in '1/0'"),
    ("[ 1 -2-3 ]", ParseError, 1, 5, "invalid rational '-2-3'"),
    ("[ 1", ParseError, 1, 1, "component is never closed"),
    ("[1]\nU", ParseError, 2, 1, "union separator with no component after it"),
    ("U\n[1]", ParseError, 1, 1, "union separator before the first component"),
    ("[1]\nU\nU\n[2]", ParseError, 3, 1, "consecutive union separators"),
    ("[1]\n[2]", ParseError, 2, 1, "expected 'U' between components"),
    ("[1]\n[ 2 3 ]", ParseError, 2, 1, "expected 'U' between components"),
    ("[ 1\nU\n2 ]", ParseError, 2, 1, "union separator inside a component"),
]


class TestParseErrors:
    # Ids name the text, type and position; the message is checked but kept out of the id.
    @pytest.mark.parametrize(
        "text,kind,line,col,message",
        PARSE_ERRORS,
        ids=[f"{text}-{kind.__name__}-{line}-{col}" for text, kind, line, col, _ in PARSE_ERRORS],
    )
    def test_position_and_type(self, text, kind, line, col, message):
        with pytest.raises(kind) as exc:
            parse(text)
        assert exc.value.line == line
        assert exc.value.column == col
        assert exc.value.message == message

    @pytest.mark.parametrize("data", [b"[ 1 ]\n", bytearray(b"[ 1 ]\n"), None, ["[ 1 ]"]])
    def test_non_str_input_rejected(self, data):
        with pytest.raises(InvalidArgument, match=f"expected a str, got {type(data).__name__}"):
            parse(data)

    def test_messages_carry_position(self):
        with pytest.raises(ParseError) as exc:
            parse("[ 1 2\n3 ]")
        assert str(exc.value).startswith("line 2, column 3:")

    @given(st.text(alphabet="[]|;U∪-+/0123456789 \n\r\t", max_size=60))
    @settings(max_examples=300)
    def test_errors_stay_inside_input(self, text):
        try:
            parse(text)
        except ParseError as e:
            lines = [ln[:-1] if ln.endswith("\r") else ln for ln in text.split("\n")]
            assert 1 <= e.line <= len(lines)
            assert 1 <= e.column <= len(lines[e.line - 1]) + 1

    @given(st.text(max_size=60))
    @settings(max_examples=200)
    def test_any_text_parses_or_raises_parse_error(self, text):
        try:
            parse(text)
        except ParseError:
            pass


class TestFormat:
    def test_alignment_golden(self):
        assert format(fx.MUL_SMALL_PRODUCT) == "[  5  5\n  18 11\n   9 13 ]\n"

    def test_single_entry(self):
        assert format(make_super([[5]])) == "[ 5 ]\n"

    def test_canonical_sample_round_trip(self):
        assert format(parse(CANONICAL)) == CANONICAL

    def test_lowest_terms_and_no_unit_denominator(self):
        assert format(make_super([["2/4", "4/2"]])) == "[ 1/2 2 ]\n"

    def test_narrow_rule_padded(self):
        s = make_super([[5], [7]], [1], ())
        text = format(s)
        assert text == "[ 5\n  --\n  7 ]\n"
        assert union_strict_eq(parse(text), make_union([s]))

    def test_rule_marks_column_cuts(self):
        text = format(make_super([[3, 0, 1], [2, 1, 1], [5, 2, 0]], [2], [2]))
        body, rule = text.split("\n")[0], text.split("\n")[2]
        assert rule.index("+") == body.index("|")

    def test_entries_beyond_the_int_str_digit_limit(self):
        s = make_super([[Fraction(-(10**5000 - 1), 10**4999), 1]])
        text = format(s)
        assert text == "[ -" + "9" * 5000 + "/1" + "0" * 4999 + " 1 ]\n"
        assert union_strict_eq(parse(text), make_union([s]))

    def test_one_entry_beyond_the_digit_limit_among_small_ones(self):
        entries = [[Fraction(7 * 10**4400 + 1, 3), -1, 0], [Fraction(22, 7), 5, -(10**4301)]]
        s = make_super(entries, [1], [2])
        text = format(s)
        assert union_strict_eq(parse(text), make_union([s]))
        cells = [c for c in text.replace("[", " ").replace("]", " ").split() if c.strip("-+|")]  # no rule, no cut
        assert cells == [format_scalar(*Fraction(x).as_integer_ratio()) for row in entries for x in row]

    def test_wrong_type(self):
        with pytest.raises(TypeError):
            format([[1, 2]])

    def test_fixture_round_trip(self):
        u = fx.MIXED_GRAM_IN
        assert union_strict_eq(parse(format(u)), u)

    @given(sts.unions())
    def test_whole_line_and_token_paths_agree(self, u):
        # ' ;' ends a row in the token grammar but is never split as a row,
        # so the second text reads every row through the token path.
        text = format(u)
        lines = []
        for line in text.split("\n"):
            if line.strip(" -+") in ("", "U"):  # rule, separator or the final empty line
                lines.append(line)
            elif line.endswith(" ]"):
                lines.append(line[:-2] + " ; ]")
            else:
                lines.append(line + " ;")
        assert union_strict_eq(parse(text), u)
        assert union_strict_eq(parse("\n".join(lines)), u)

    @given(sts.unions())
    def test_round_trip_and_idempotent(self, u):
        text = format(u)
        v = parse(text)
        assert union_strict_eq(u, v)
        assert format(v) == text


class TestParseScalar:
    def test_values(self):
        assert parse_scalar("-3") == -3
        assert parse_scalar(" 7/2 ") == Fraction(7, 2)

    @pytest.mark.parametrize("bad", ["", "x", "1.5", "+3", "3/0", "1/2/3", "1e3", "0.1", "1_000", "\u0663"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_scalar(bad)

    @pytest.mark.parametrize("text", [None, b"7", 7, True, ["7"]])
    def test_rejects_non_str(self, text):
        with pytest.raises(InvalidArgument, match=f"expected a str, got {type(text).__name__}"):
            parse_scalar(text)
