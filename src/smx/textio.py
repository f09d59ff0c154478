"""Read and write the .smx text form of supermatrix unions.

A component sits between brackets. Entries are integers or fractions
('-3', '7/2'; the grammar is core.parse_scalar's), rows end at a newline or
';', a '|' marks a column cut, and a whole line of dashes (optionally with
'+') marks a row cut. A line holding only 'U' separates components:

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

_RULE = re.compile(r"[-+]+\Z")
_SEPARATORS = ("U", "∪")
# A run of scalar characters, or any other single character; blanks between
# tokens are skipped. '+' stays in the run so that '1+2' is reported whole,
# as an invalid rational.
_TOKEN = re.compile(rf"(?P<scalar>[-+/0-9]+)|[^{_BLANKS}]")


def _is_rule(stripped):
    return bool(_RULE.match(stripped)) and stripped.count("-") >= 2


class _ComponentReader:
    """Accumulates one bracketed component row by row."""

    def __init__(self, open_line, open_col):
        self.open_line = open_line
        self.open_col = open_col
        self.rows = []
        self.row_cuts = []
        self.width = None
        self.col_cuts = None
        self.pending = []
        self.pending_cuts = []

    def add_scalar(self, value):
        self.pending.append(value)

    def add_col_cut(self, line, col):
        if not self.pending:
            raise ParseError("column cut before the first entry of a row", line, col)
        if self.pending_cuts and self.pending_cuts[-1] == len(self.pending):
            raise ParseError("duplicate column cut", line, col)
        self.pending_cuts.append(len(self.pending))

    def end_row(self, line, col, explicit):
        if not self.pending:
            if explicit:
                raise ParseError("empty row", line, col)
            return
        if self.pending_cuts and self.pending_cuts[-1] == len(self.pending):
            raise ParseError("column cut after the last entry of a row", line, col)
        n = len(self.rows) + 1
        if self.width is None:
            self.width = len(self.pending)
            self.col_cuts = tuple(self.pending_cuts)
        else:
            if len(self.pending) != self.width:
                raise RaggedRows(
                    f"row {n} has {len(self.pending)} entries, previous rows have {self.width}",
                    line,
                    col,
                )
            if tuple(self.pending_cuts) != self.col_cuts:
                raise InconsistentCuts(
                    f"row {n} cuts at {self.pending_cuts}, previous rows at {list(self.col_cuts)}",
                    line,
                    col,
                )
        self.rows.append(self.pending)
        self.pending = []
        self.pending_cuts = []

    def add_row_cut(self, line, col):
        if not self.rows:
            raise ParseError("row cut before the first row", line, col)
        if self.row_cuts and self.row_cuts[-1] == len(self.rows):
            raise ParseError("duplicate row cut", line, col)
        self.row_cuts.append(len(self.rows))

    def close(self, line, col):
        if not self.rows:
            raise ParseError("component has no rows", line, col)
        if self.row_cuts and self.row_cuts[-1] == len(self.rows):
            raise ParseError("row cut after the last row", line, col)
        return make_super(self.rows, self.row_cuts, self.col_cuts)


def _scan_line(line, start, line_no, reader):
    """Scan component content from 0-based index start. SuperMatrix if ']' closes it."""
    for m in _TOKEN.finditer(line, start):
        token, col = m.group(), m.start() + 1
        if m.lastgroup:
            try:
                reader.add_scalar(parse_scalar(token))
            except ValueError as e:
                raise ParseError(str(e), line_no, col) from None
        elif token == "|":
            reader.add_col_cut(line_no, col)
        elif token == ";":
            reader.end_row(line_no, col, explicit=True)
        elif token == "]":
            reader.end_row(line_no, col, explicit=False)
            result = reader.close(line_no, col)
            rest = _TOKEN.search(line, m.end())
            if rest:
                raise ParseError("unexpected text after ']'", line_no, rest.start() + 1)
            return result
        elif token == "[":
            raise ParseError("unexpected '[' inside a component", line_no, col)
        else:
            raise ParseError(f"unexpected character {token!r}", line_no, col)
    reader.end_row(line_no, len(line) + 1, explicit=False)
    return None


def parse(text):
    """Parse .smx text into a SuperNMatrix."""
    components = []
    reader = None
    pending_sep = None
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw[:-1] if raw.endswith("\r") else raw
        stripped = line.strip(_BLANKS)
        if not stripped:
            continue
        col = len(line) - len(line.lstrip(_BLANKS)) + 1
        if stripped in _SEPARATORS:
            if reader is not None:
                raise ParseError("union separator inside a component", line_no, col)
            if not components:
                raise ParseError("union separator before the first component", line_no, col)
            if pending_sep:
                raise ParseError("consecutive union separators", line_no, col)
            pending_sep = (line_no, col)
            continue
        if reader is not None:
            if _is_rule(stripped):
                reader.add_row_cut(line_no, col)
                continue
            result = _scan_line(line, 0, line_no, reader)
        else:
            if stripped[0] != "[":
                raise ParseError("expected '[' to open a component", line_no, col)
            if components and not pending_sep:
                raise ParseError("expected 'U' between components", line_no, col)
            pending_sep = None
            reader = _ComponentReader(line_no, col)
            result = _scan_line(line, col, line_no, reader)
        if result is not None:
            components.append(result)
            reader = None
    if reader is not None:
        raise ParseError("component is never closed", reader.open_line, reader.open_col)
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
