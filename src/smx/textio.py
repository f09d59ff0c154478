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
opening '[' of a component. The component reader takes the rest of the line.
It first tries to read it whole, as scalars, blanks, '|' and an optional
closing ']', with one regular expression and one Fraction per distinct token
text in the input. Any other text, and a row with an invalid scalar, it reads
token by token, reporting every error; so an error's type, line, column and
message do not depend on which way the line was read.

Parsing accepts LF or CRLF line ends, any run of spaces and tabs between
tokens (no other blank) and fractions not in lowest terms ('2/4' reads as
1/2). Formatting is canonical: lowest terms, cells right-aligned per
column, single spaces inside a block, ' | ' at column cuts, rule lines with
'+' under each '|', LF newlines, trailing newline.
parse(format(u)) reproduces u exactly and format is idempotent.
"""

import re

from .core import SuperMatrix, _BLANKS, _SCALAR, format_scalar, make_super, parse_scalar
from .errors import EmptyInput, InconsistentCuts, InvalidArgument, ParseError, RaggedRows
from .union import SuperNMatrix, make_union

_RULE = re.compile(r"\+*-\+*-[-+]*")  # a row cut: '-' and '+' only, at least two dashes
_SEPARATORS = ("U", "∪")
# A run of scalar characters, or any other single character; blanks between
# tokens are skipped. '+' stays in the run so that '1+2' is reported whole,
# as an invalid rational.
_TOKEN = re.compile(rf"(?P<scalar>[-+/0-9]+)|[^{_BLANKS}]")
# A whole row: scalars separated by blanks or '|', and an optional closing ']'.
# A scalar never runs into another scalar character, so the row splits into
# exactly the scalars _TOKEN would find.
_B = f"[{_BLANKS}]"
_NUMBER = rf"(?:{_SCALAR.pattern})(?![-+/0-9])"
_ROW = re.compile(
    rf"{_B}*(?P<body>{_NUMBER}(?:(?:{_B}*\|{_B}*|{_B}+){_NUMBER})*)(?:{_B}*(?P<close>\]))?{_B}*"
)


class _Scalars(dict):
    """Token -> Fraction for one parse; each distinct token is converted once."""

    def __missing__(self, token):
        self[token] = value = parse_scalar(token)
        return value


class _Component:
    """An open bracketed component, read one line at a time."""

    def __init__(self, line_no, col, scalars):
        self.opened = (line_no, col)
        self.scalars = scalars
        self.rows, self.row_cuts, self.col_cuts = [], [], None
        self.row, self.cuts = [], []  # the row being read and its column cuts

    def end_row(self, line_no, col):
        row, cuts = self.row, self.cuts
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
        self.row, self.cuts = [], []

    def add_row_cut(self, line_no, col):
        if not self.rows:
            raise ParseError("row cut before the first row", line_no, col)
        if self.row_cuts and self.row_cuts[-1] == len(self.rows):
            raise ParseError("duplicate row cut", line_no, col)
        self.row_cuts.append(len(self.rows))

    def close(self, line_no, col):
        """End the last row at the ']' in column col; the finished SuperMatrix."""
        self.end_row(line_no, col)
        if not self.rows:
            raise ParseError("component has no rows", line_no, col)
        if self.row_cuts and self.row_cuts[-1] == len(self.rows):
            raise ParseError("row cut after the last row", line_no, col)
        return make_super(self.rows, self.row_cuts, self.col_cuts)

    def read(self, line, start, line_no):
        """Read line from index start on. The SuperMatrix once ']' closes the component, else None."""
        m = _ROW.fullmatch(line, start)
        if m:
            row, cuts = [], []
            try:
                for segment in m["body"].split("|"):
                    if row:
                        cuts.append(len(row))
                    row += map(self.scalars.__getitem__, segment.split())
            except ValueError:
                pass  # an invalid scalar such as '1/0': the token loop below reports it
            else:
                self.row, self.cuts = row, cuts
                if m["close"]:
                    return self.close(line_no, m.start("close") + 1)
                self.end_row(line_no, len(line) + 1)
                return None
        rest = _TOKEN.finditer(line, start)
        for m in rest:
            token, col = m.group(), m.start() + 1
            if m.lastgroup:
                try:
                    self.row.append(self.scalars[token])
                except ValueError as e:
                    raise ParseError(str(e), line_no, col) from None
            elif token == "|":
                if not self.row:
                    raise ParseError("column cut before the first entry of a row", line_no, col)
                if self.cuts and self.cuts[-1] == len(self.row):
                    raise ParseError("duplicate column cut", line_no, col)
                self.cuts.append(len(self.row))
            elif token == ";":
                if not self.row:
                    raise ParseError("empty row", line_no, col)
                self.end_row(line_no, col)
            elif token == "]":
                result = self.close(line_no, col)
                after = next(rest, None)
                if after is not None:
                    raise ParseError("unexpected text after ']'", line_no, after.start() + 1)
                return result
            elif token == "[":
                raise ParseError("unexpected '[' inside a component", line_no, col)
            else:
                raise ParseError(f"unexpected character {token!r}", line_no, col)
        self.end_row(line_no, len(line) + 1)
        return None


def parse(text):
    """Parse .smx text into a SuperNMatrix."""
    if not isinstance(text, str):
        raise InvalidArgument(f"expected a str, got {type(text).__name__}")
    components, reader, pending_sep, scalars = [], None, None, _Scalars()
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw[:-1] if raw.endswith("\r") else raw
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
            reader, pending_sep = _Component(line_no, col, scalars), None
            start += 1
        elif _RULE.fullmatch(text_on_line):
            reader.add_row_cut(line_no, col)
            continue
        result = reader.read(line, start, line_no)
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
    cells = [[format_scalar(x) for x in row] for row in s.data.to_rows()]
    widths = [max(len(cells[r][c]) for r in range(s.rows)) for c in range(s.cols)]
    groups = list(s.col_partition.blocks())
    body = []
    for r, row in enumerate(cells):
        segs = [" ".join(row[c].rjust(widths[c]) for c in range(c0, c1)) for c0, c1 in groups]
        body.append(" | ".join(segs))
        if r + 1 in s.row_cuts:
            rule = "-+-".join("-" * (sum(widths[c0:c1]) + (c1 - c0 - 1)) for c0, c1 in groups)
            if rule.count("-") < 2:
                rule = "--"
            body.append(rule)
    lines = [("[ " if i == 0 else "  ") + ln for i, ln in enumerate(body)]
    lines[-1] += " ]"
    return "\n".join(lines)


def format(u):
    """Canonical .smx text for a SuperMatrix or SuperNMatrix."""
    if isinstance(u, SuperMatrix):
        comps = (u,)
    elif isinstance(u, SuperNMatrix):
        comps = u.components
    else:
        raise InvalidArgument(f"cannot format {type(u).__name__}")
    return "\nU\n".join(_format_component(c) for c in comps) + "\n"
