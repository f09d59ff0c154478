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

Parsing accepts LF or CRLF line ends, any run of spaces and tabs between
tokens (no other blank) and fractions not in lowest terms ('2/4' reads as
1/2). Formatting is canonical: lowest terms, cells right-aligned per
column, single spaces inside a block, ' | ' at column cuts, rule lines with
'+' under each '|', LF newlines, trailing newline.
parse(format(u)) reproduces u exactly and format is idempotent.
"""

import re

from .core import SuperMatrix, _BLANKS, format_scalar, make_super, parse_scalar
from .errors import EmptyInput, InconsistentCuts, ParseError, RaggedRows
from .union import SuperNMatrix, make_union

_RULE = re.compile(r"\+*-\+*-[-+]*")  # a row cut: '-' and '+' only, at least two dashes
_SEPARATORS = ("U", "∪")
# A run of scalar characters, or any other single character; blanks between
# tokens are skipped. '+' stays in the run so that '1+2' is reported whole,
# as an invalid rational.
_TOKEN = re.compile(rf"(?P<scalar>[-+/0-9]+)|[^{_BLANKS}]")


class _Component:
    """An open bracketed component, read one line of tokens at a time."""

    def __init__(self, line_no, col):
        self.opened = (line_no, col)
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

    def read(self, line, tokens, line_no):
        """Read one line's tokens. The SuperMatrix once ']' closes the component, else None."""
        rest = iter(tokens)
        for m in rest:
            token, col = m.group(), m.start() + 1
            if m.lastgroup:
                try:
                    self.row.append(parse_scalar(token))
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
                self.end_row(line_no, col)
                if not self.rows:
                    raise ParseError("component has no rows", line_no, col)
                if self.row_cuts and self.row_cuts[-1] == len(self.rows):
                    raise ParseError("row cut after the last row", line_no, col)
                after = next(rest, None)
                if after is not None:
                    raise ParseError("unexpected text after ']'", line_no, after.start() + 1)
                return make_super(self.rows, self.row_cuts, self.col_cuts)
            elif token == "[":
                raise ParseError("unexpected '[' inside a component", line_no, col)
            else:
                raise ParseError(f"unexpected character {token!r}", line_no, col)
        self.end_row(line_no, len(line) + 1)
        return None


def parse(text):
    """Parse .smx text into a SuperNMatrix."""
    components, reader, pending_sep = [], None, None
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw[:-1] if raw.endswith("\r") else raw
        tokens = list(_TOKEN.finditer(line))
        if not tokens:
            continue
        first, col = tokens[0].group(), tokens[0].start() + 1
        if len(tokens) == 1 and first in _SEPARATORS:
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
                raise ParseError(f"unexpected text after {first!r}", line_no, tokens[1].start() + 1)
            if first != "[":
                raise ParseError("expected '[' to open a component", line_no, col)
            if components and not pending_sep:
                raise ParseError("expected 'U' between components", line_no, col)
            pending_sep = None
            reader = _Component(line_no, col)
            del tokens[0]
        elif len(tokens) == 1 and _RULE.fullmatch(first):
            reader.add_row_cut(line_no, col)
            continue
        result = reader.read(line, tokens, line_no)
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
        raise TypeError(f"cannot format {type(u).__name__}")
    return "\nU\n".join(_format_component(c) for c in comps) + "\n"
