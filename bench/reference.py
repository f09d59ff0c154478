"""Independent expected results and the output check.

Nothing here imports smx. Expected results come from plain ``Fraction`` row
lists; the program's output is read back with this module's own parser and
compared value by value, partition by partition. A union is a list of
``(rows, row_cuts, col_cuts)``, as in ``workloads``.
"""

import json
import sys
from contextlib import contextmanager
from fractions import Fraction

OK, INCOMPATIBLE, IMPROPER = 0, 2, 3


@contextmanager
def unlimited_int_digits():
    """Lift the int/str digit limit while the reference reads long digits.

    The benchmark process also runs the program in-process, so the limit is
    restored afterwards and the program always runs under the default.
    """
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# --- dense oracle -----------------------------------------------------------------


def o_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def o_scale(k, a):
    return [[k * x for x in row] for row in a]


def o_transpose(a):
    return [list(col) for col in zip(*a)]


def o_mul(a, b):
    bt = o_transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _shape(rows):
    return len(rows), len(rows[0])


def _comp_shape(rc, cc):
    if rc and cc:
        return "general_super"
    if cc:
        return "row_supervector"
    if rc:
        return "column_supervector"
    return "simple"


def _symmetric(comp):
    rows, rc, cc = comp
    return rc == cc and rows == o_transpose(rows)


def _union_shape(u):
    dims = [_shape(rows) for rows, _, _ in u]
    any_row = any(rc for _, rc, _ in u)
    any_col = any(cc for _, _, cc in u)
    if any_col and not any_row:
        if all(r == 1 for r, _ in dims) or not all(c > r for r, c in dims):
            return "row_n_vector"
        return "special_row_n_vector"
    if any_row and not any_col:
        if all(c == 1 for _, c in dims) or not all(r > c for r, c in dims):
            return "column_n_vector"
        return "special_column_n_vector"
    if all(r == c for r, c in dims):
        orders = {r for r, _ in dims}
        return f"square({orders.pop()})" if len(orders) == 1 else "mixed_square"
    if all(r != c for r, c in dims):
        kinds = set(dims)
        if len(kinds) == 1:
            r, c = kinds.pop()
            return f"rectangular({r},{c})"
        return "mixed_rectangular"
    return "mixed"


def _proper(u):
    if len(u) == 1 or all(x == 0 for rows, _, _ in u for row in rows for x in row):
        return True
    keys = [(rows, rc, cc) for rows, rc, cc in u]
    return all(keys[i] != keys[j] for i in range(len(keys)) for j in range(i + 1, len(keys)))


def report(u):
    flags = [_symmetric(c) for c in u]
    partitioned = [bool(rc or cc) for _, rc, cc in u]
    return {
        "arity": len(u),
        "component_shapes": [_comp_shape(rc, cc) for _, rc, cc in u],
        "union_shape": _union_shape(u),
        "symmetry": "symmetric" if all(flags) else "quasi_symmetric" if any(flags) else "none",
        "semi_super": any(partitioned) and not all(partitioned),
        "proper": _proper(u),
    }


def _pairwise(u, v, same_layout, op):
    """Componentwise op, or None when the operands are incompatible."""
    if len(u) != len(v):
        return None
    out = []
    for a, b in zip(u, v):
        if not same_layout(a, b):
            return None
        out.append(op(a, b))
    return out


def _layout_eq(a, b):
    return _shape(a[0]) == _shape(b[0]) and a[1] == b[1] and a[2] == b[2]


def _inner_eq(a, b):
    return _shape(a[0])[1] == _shape(b[0])[0] and a[2] == b[1]


def _gram(comp, side):
    rows, rc, cc = comp
    if side == "right":
        return (o_mul(rows, o_transpose(rows)), rc, rc)
    return (o_mul(o_transpose(rows), rows), cc, cc)


def _parse_scalar(text):
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def expect(call, ns):
    """(exit code, kind, payload) of ``call`` with operands looked up in ``ns``."""
    ops = [ns[name] for name in call.operands]
    op, p = call.op, call.params
    if op in ("add", "sub"):
        sign = 1 if op == "add" else -1
        r = _pairwise(*ops, _layout_eq, lambda a, b: (o_add(a[0], o_scale(sign, b[0])), a[1], a[2]))
        return (INCOMPATIBLE, None, None) if r is None else (OK, "union", r)
    if op == "mul":
        r = _pairwise(*ops, _inner_eq, lambda a, b: (o_mul(a[0], b[0]), a[1], b[2]))
        return (INCOMPATIBLE, None, None) if r is None else (OK, "union", r)
    (u, *rest) = ops
    if op == "scale":
        k = _parse_scalar(p["scalar"])
        return OK, "union", [(o_scale(k, rows), rc, cc) for rows, rc, cc in u]
    if op == "transpose":
        return OK, "union", [(o_transpose(rows), cc, rc) for rows, rc, cc in u]
    if op == "flatten":
        return OK, "union", [(rows, (), ()) for rows, _, _ in u]
    if op == "gram":
        return OK, "union", [_gram(c, p["side"]) for c in u]
    if op == "eq":
        (v,) = rest
        if p["mode"] == "value":
            same = len(u) == len(v) and all(a[0] == b[0] for a, b in zip(u, v))
        else:
            same = u == v
        return OK, "text", "true\n" if same else "false\n"
    if op in ("check", "classify"):
        rep = report(u)
        code = IMPROPER if op == "check" and not rep["proper"] else OK
        return code, "report", rep
    raise ValueError(f"no reference for {op!r}")


def expected_results(workload):
    """Expected result per call, in call order, following chained outputs."""
    ns = dict(workload.inputs)
    out = []
    for call in workload.calls:
        code, kind, payload = expect(call, ns)
        if call.out is not None and kind == "union":
            ns[call.out] = payload
        out.append((code, kind, payload))
    return out


# --- reading program output --------------------------------------------------------


def _fraction(token):
    num, slash, den = token.partition("/")
    x = Fraction(int(num), int(den) if slash else 1)
    if slash and (x.denominator != int(den) or x.denominator == 1):
        raise ValueError(f"{token!r} is not in lowest terms")
    return x


def parse_union(text):
    """Read canonical .smx text: '[ ... ]' components joined by lines 'U'."""
    if not text.endswith("\n"):
        raise ValueError("missing trailing newline")
    union = []
    for chunk in text[:-1].split("\nU\n"):
        if not (chunk.startswith("[ ") and chunk.endswith(" ]")):
            raise ValueError("component not bracketed")
        rows, row_cuts, col_cuts = [], [], None
        for line in chunk[2:-2].split("\n"):
            s = line.strip()
            if s and set(s) <= set("-+"):
                row_cuts.append(len(rows))
                continue
            row, cuts = [], []
            for token in s.split():
                if token == "|":
                    cuts.append(len(row))
                else:
                    row.append(_fraction(token))
            if col_cuts is None:
                col_cuts = cuts
            elif cuts != col_cuts or len(row) != len(rows[0]):
                raise ValueError("ragged rows or cuts")
            rows.append(row)
        union.append((rows, tuple(row_cuts), tuple(col_cuts)))
    return union


def _parse_report(text, as_json):
    if as_json:
        return json.loads(text)
    rep = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        rep[key] = value
    rep["arity"] = int(rep["arity"])
    rep["component_shapes"] = rep["component_shapes"].split(", ")
    rep["semi_super"] = {"true": True, "false": False}[rep["semi_super"]]
    rep["proper"] = {"true": True, "false": False}[rep["proper"]]
    return rep


def _canon(u):
    return [(rows, tuple(rc), tuple(cc)) for rows, rc, cc in u]


def verify(call, expected, code, stdout, written):
    """True when one call's exit code and output match the reference.

    ``stdout`` is what the call printed, ``written`` the bytes of its -o file
    or None when no file was written.
    """
    exp_code, kind, payload = expected
    if code != exp_code:
        return False
    try:
        with unlimited_int_digits():
            if kind is None:
                return stdout == b"" and written is None
            if kind == "text":
                return stdout == payload.encode()
            if kind == "report":
                return written is None and _parse_report(stdout.decode(), call.params["json"]) == payload
            if call.out is not None:
                return stdout == b"" and written is not None and _canon(parse_union(written.decode())) == _canon(payload)
            return written is None and _canon(parse_union(stdout.decode())) == _canon(payload)
    except (ValueError, KeyError, UnicodeDecodeError):
        return False
