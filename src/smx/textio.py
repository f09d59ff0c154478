"""Read and write the .smx text form of supermatrix unions.

A component sits between brackets. Entries are integers or fractions
('-3', '7/2'; the grammar is core.parse_scalar's), rows end at a newline or
';', a '|' marks a column cut, and a line of two or more dashes, optionally
with '+', and nothing else marks a row cut. A line holding only 'U' or '∪'
separates components; text after it is an error at that text's column:

    [ 3 0 | 1
      2 1 | 1
      ----+--
      5 2 | 0 ]
    U
    [ 7/2 -1 ]

parse decides what each line is: blank, a separator, a row cut, or the
opening '[' of a component. The component reader reads the rest of the line
into a value: its entries, its column cuts and whether ']' closed it. Text
whose only blanks are spaces and tabs it splits on them into scalars, '|'
cuts between two of them and a last ']'; any other text ('1|2', '2]', ';',
another blank, a stray or doubled '|', an invalid scalar) it reads token by
token, reporting every error, so an error's type, line, column and message
do not depend on which way the line was read. Each parse call reads tokens
through its own functools.cache of core._ratio: each distinct one once, into
the reduced (numerator, denominator) pair that a DenseMatrix keeps.

Parsing accepts LF or CRLF line ends, any run of spaces and tabs between
tokens (no other blank) and fractions not in lowest terms ('2/4' reads as
1/2). Formatting is canonical: lowest terms, cells right-aligned per
column, single spaces inside a block, ' | ' at column cuts, rule lines with
'+' under each '|', LF newlines, trailing newline.
parse(format(u)) reproduces u exactly and format is idempotent.
"""

import functools
import re
from itertools import chain

from .core import _BLANKS, DenseMatrix, SuperMatrix, _expect, _ratio, _rows, format_scalar, make_super
from .errors import EmptyInput, InconsistentCuts, InvalidArgument, ParseError, RaggedRows
from .union import SuperNMatrix, make_union

_RULE = re.compile(r"\+*-\+*-[-+]*")  # a row cut: '-' and '+' only, at least two dashes
_SEPARATORS = ("U", "∪")
# A run of scalar characters, or any other single character; blanks between
# tokens are skipped. '+' stays in the run so that '1+2' is reported whole,
# as an invalid rational.
_TOKEN = re.compile(rf"(?P<scalar>[-+/0-9]+)|[^{_BLANKS}]")


def _split_row(text, scalars):
    """(row, cuts, closed) for text of blank-separated scalars, '|' between two and a last ']'; else None."""
    tokens = text.split()
    if len(text) != sum(map(len, tokens)) + sum(map(text.count, _BLANKS)):
        return None  # a blank the text form does not allow
    closed = tokens[-1:] == ["]"]
    if closed:
        tokens.pop()
    cuts = []
    for _ in range(tokens.count("|")):
        i = tokens.index("|")
        del tokens[i]
        if not 0 < i < len(tokens) or cuts[-1:] == [i]:
            return None  # a leading, trailing or doubled '|'
        cuts.append(i)
    try:
        return list(map(scalars, tokens)), cuts, closed
    except ValueError:
        return None  # an invalid scalar, or a token holding any other character


class _Component:
    """An open bracketed component and the rows it has finished."""

    def __init__(self, line_no, col):
        self.opened = (line_no, col)
        self.rows, self.row_cuts, self.col_cuts = [], [], None

    def end_row(self, row, cuts, line_no, col):
        if not row:
            return
        if cuts and cuts[-1] == len(row):
            raise ParseError("column cut after the last entry of a row", line_no, col)
        n = len(self.rows) + 1
        if n == 1:
            self.col_cuts = cuts
        elif len(row) != len(self.rows[0]):
            message = f"row {n} has {len(row)} entries, previous rows have {len(self.rows[0])}"
            raise RaggedRows(message, line_no, col)
        elif cuts != self.col_cuts:
            message = f"row {n} cuts at {cuts}, previous rows at {self.col_cuts}"
            raise InconsistentCuts(message, line_no, col)
        self.rows.append(row)

    def add_row_cut(self, line_no, col):
        if not self.rows:
            raise ParseError("row cut before the first row", line_no, col)
        if self.row_cuts and self.row_cuts[-1] == len(self.rows):
            raise ParseError("duplicate row cut", line_no, col)
        self.row_cuts.append(len(self.rows))

    def close(self, row, cuts, line_no, col):
        """End the last row at the ']' in column col; the finished SuperMatrix."""
        self.end_row(row, cuts, line_no, col)
        if not self.rows:
            raise ParseError("component has no rows", line_no, col)
        if self.row_cuts and self.row_cuts[-1] == len(self.rows):
            raise ParseError("row cut after the last row", line_no, col)
        nums, dens = zip(*chain.from_iterable(self.rows))
        data = DenseMatrix._trusted(len(self.rows), len(self.rows[0]), nums, dens)
        return make_super(data, self.row_cuts, self.col_cuts)

    def read(self, line, start, line_no, scalars):
        """Read line from index start on. The SuperMatrix once ']' closes the component, else None."""
        split = _split_row(line[start:], scalars)
        if split is not None:
            row, cuts, closed = split
            if closed:
                return self.close(row, cuts, line_no, len(line.rstrip(_BLANKS)))
            self.end_row(row, cuts, line_no, len(line) + 1)
            return None
        row, cuts = [], []
        rest = _TOKEN.finditer(line, start)
        for m in rest:
            token, col = m.group(), m.start() + 1
            if m.lastgroup:
                try:
                    row.append(scalars(token))
                except ValueError as e:
                    raise ParseError(str(e), line_no, col) from None
            elif token == "|":
                if not row:
                    raise ParseError("column cut before the first entry of a row", line_no, col)
                if cuts and cuts[-1] == len(row):
                    raise ParseError("duplicate column cut", line_no, col)
                cuts.append(len(row))
            elif token == ";":
                if not row:
                    raise ParseError("empty row", line_no, col)
                self.end_row(row, cuts, line_no, col)
                row, cuts = [], []
            elif token == "]":
                result = self.close(row, cuts, line_no, col)
                after = next(rest, None)
                if after is not None:
                    raise ParseError("unexpected text after ']'", line_no, after.start() + 1)
                return result
            elif token == "[":
                raise ParseError("unexpected '[' inside a component", line_no, col)
            else:
                raise ParseError(f"unexpected character {token!r}", line_no, col)
        self.end_row(row, cuts, line_no, len(line) + 1)
        return None


def parse(text):
    """Parse .smx text into a SuperNMatrix."""
    _expect(str, text)
    components, reader, pending_sep, scalars = [], None, None, functools.cache(_ratio)
    for line_no, line in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
        text_on_line = line.strip(_BLANKS)
        if not text_on_line:
            continue
        start = len(line) - len(line.lstrip(_BLANKS))  # the index of the first non-blank
        first, col = text_on_line[0], start + 1
        if text_on_line in _SEPARATORS:
            if reader is not None:
                raise ParseError("union separator inside a component", line_no, col)
            if not components:
                raise ParseError("union separator before the first component", line_no, col)
            if pending_sep:
                raise ParseError("consecutive union separators", line_no, col)
            pending_sep = (line_no, col)
            continue
        if reader is None:
            if first in _SEPARATORS:
                after = line[col:].lstrip(_BLANKS)
                raise ParseError(f"unexpected text after {first!r}", line_no, len(line) - len(after) + 1)
            if first != "[":
                raise ParseError("expected '[' to open a component", line_no, col)
            if components and not pending_sep:
                raise ParseError("expected 'U' between components", line_no, col)
            reader, pending_sep = _Component(line_no, col), None
            start += 1
        elif _RULE.fullmatch(text_on_line):
            reader.add_row_cut(line_no, col)
            continue
        result = reader.read(line, start, line_no, scalars)
        if result is not None:
            components.append(result)
            reader = None
    if reader is not None:
        raise ParseError("component is never closed", *reader.opened)
    if pending_sep:
        raise ParseError("union separator with no component after it", *pending_sep)
    if not components:
        raise EmptyInput()
    return make_union(components)


def _format_component(s):
    cells = [list(map(format_scalar, nums, dens)) for nums, dens in _rows(s.data)]
    widths = [max(map(len, column)) for column in zip(*cells)]
    groups = list(s.col_partition.blocks())
    body = []
    for r, row in enumerate(cells, start=1):
        row = list(map(str.rjust, row, widths))
        body.append(" | ".join([" ".join(row[c0:c1]) for c0, c1 in groups]))
        if r in s.row_cuts:
            rule = "-+-".join("-" * (sum(widths[c0:c1]) + (c1 - c0 - 1)) for c0, c1 in groups)
            body.append(rule.ljust(2, "-"))  # a rule line has at least two dashes
    return "[ " + "\n  ".join(body) + " ]"


def format(u):
    """Canonical .smx text for a SuperMatrix or SuperNMatrix."""
    if isinstance(u, SuperMatrix):
        comps = (u,)
    elif isinstance(u, SuperNMatrix):
        comps = u.components
    else:
        raise InvalidArgument(f"cannot format {type(u).__name__}")
    return "\nU\n".join(_format_component(c) for c in comps) + "\n"
