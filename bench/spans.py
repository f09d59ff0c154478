"""In-memory span recorder and the hooks that time smx's layers from outside.

A hook replaces a public function at the name its caller looks it up by:
``smx.textio.make_super`` as well as ``smx.core.make_super``, because
``textio`` imported the name directly. Each hooked call records a span
(name, start, end, parent, call id). Nothing in ``src/`` is edited; the
hooks are removed again when the traced call returns.

Counts (bytes, entries, multiply-adds, bit lengths, comparisons) are taken
by probes on the same hooks in a separate untimed pass, so that computing
them never lands inside a timed span.
"""

import time
from dataclasses import dataclass

# Span name -> layer metric it is summed into.
LAYER_OF = {
    "cli.run": "cli",
    "textio.parse": "textio.parse",
    "textio.format": "textio.format",
    "core.make_super": "core.construct",
    "core.from_rows": "core.construct",
    "core.DenseMatrix": "core.construct",
    "core.SuperMatrix": "core.construct",
    "core.Partition": "core.construct",
    "algebra.add": "algebra.add",
    "algebra.sub": "algebra.sub",
    "algebra.scale": "algebra.scale",
    "algebra.transpose": "algebra.transpose",
    "algebra.super_mul": "algebra.super_mul",
    "algebra.gram": "algebra.gram",
    "union.improper_pair": "union.improper_pair",
    "classify.union_class": "classify.union_class",
}
UNION_LIFTS = (
    "union_add",
    "union_sub",
    "union_mul",
    "union_scale",
    "union_transpose",
    "union_flatten",
    "union_gram",
    "union_value_eq",
    "union_strict_eq",
)
for _name in UNION_LIFTS:
    LAYER_OF[f"union.{_name}"] = "union.lift"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the recorder's spans, -1 for a root
    call: int


class Recorder:
    """Keeps spans in memory; ``self_times`` and ``dump`` run after the timing."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.call = 0

    def wrap(self, name, fn, probe=None):
        spans, opened, clock = self.spans, self._open, time.perf_counter

        def hooked(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, opened[-1] if opened else -1, self.call)
            spans.append(span)
            opened.append(index)
            if probe is not None:
                probe.enter(name, args)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span.end = clock()
                opened.pop()
                if probe is not None:
                    probe.fail(name, span, e, spans)
                raise
            span.end = clock()
            opened.pop()
            if probe is not None:
                probe.leave(name, args, result)
            return result

        return hooked

    def self_times(self):
        """Per span: its duration minus the part of it that its children cover."""
        children = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                children[s.parent].append(i)
        out = []
        for i, s in enumerate(self.spans):
            covered, reach = 0.0, s.start
            for c in sorted(children[i], key=lambda k: self.spans[k].start):
                lo = max(self.spans[c].start, reach)
                hi = min(self.spans[c].end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s.end - s.start - covered)
        return out

    def dump(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(f'["{s.name}",{s.start!r},{s.end!r},{s.parent},{s.call}]\n')


def hook_sites(smx):
    """(owner, attribute, span name) for every lookup site of a layer's entry points."""
    core, textio, algebra, union, classify, cli = (
        smx.core,
        smx.textio,
        smx.algebra,
        smx.union,
        smx.classify,
        smx.cli,
    )
    sites = [
        (textio, "parse", "textio.parse"),
        (textio, "format", "textio.format"),
        (core, "make_super", "core.make_super"),
        (textio, "make_super", "core.make_super"),
        (union, "make_super", "core.make_super"),
        (core.DenseMatrix, "from_rows", "core.from_rows"),
        (core.DenseMatrix, "__post_init__", "core.DenseMatrix"),
        (core.SuperMatrix, "__post_init__", "core.SuperMatrix"),
        (core.Partition, "__post_init__", "core.Partition"),
        (cli, "improper_pair", "union.improper_pair"),
        (classify, "improper_pair", "union.improper_pair"),
        (cli, "union_class", "classify.union_class"),
    ]
    # union and algebra itself call the kernels as algebra.<name>.
    sites += [(algebra, n, f"algebra.{n}") for n in ("add", "sub", "scale", "transpose", "super_mul", "gram")]
    sites += [(cli, n, f"union.{n}") for n in UNION_LIFTS]
    return sites


def _lookup(owner, attr):
    """The attribute as stored: a class's classmethod stays a classmethod."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class Hooks:
    """Installs span hooks (and optional count probes) and restores the originals."""

    def __init__(self, smx, recorder, probe=None):
        self._saved = []
        self._sites = hook_sites(smx)
        self._recorder = recorder
        self._probe = probe
        self._smx = smx

    def __enter__(self):
        replacements = []
        for owner, attr, name in self._sites:
            original = _lookup(owner, attr)
            if isinstance(original, classmethod):
                new = classmethod(self._recorder.wrap(name, original.__func__, self._probe))
            else:
                new = self._recorder.wrap(name, original, self._probe)
            replacements.append((owner, attr, new))
        if self._probe is not None:
            replacements += self._probe.extra_hooks(self._smx)
        for owner, attr, new in replacements:
            self._saved.append((owner, attr, _lookup(owner, attr)))
            setattr(owner, attr, new)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


def _bits(entries):
    return max((max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for x in entries), default=0)


def _entries(u):
    return sum(c.rows * c.cols for c in u.components)


def _zero_blocks(s):
    """Per block of the partition grid: whether it is all zero."""
    d = s.data
    zero = {}
    for i, (r0, r1) in enumerate(s.row_partition.blocks()):
        for j, (c0, c1) in enumerate(s.col_partition.blocks()):
            zero[i, j] = all(d.entries[r * d.cols + c] == 0 for r in range(r0, r1) for c in range(c0, c1))
    return zero


class Probe:
    """Counts taken at the hooks during the untimed counting pass."""

    COUNTS = (
        "parse_bytes",
        "parse_entries",
        "format_bytes",
        "delivered_entries",
        "as_rational",
        "madds",
        "inner_products",
        "zero_inner_products",
        "bits_in_max",
        "bits_out_max",
        "improper_pairs",
        "symmetry_compared",
        "typed_errors",
    )

    def __init__(self, smx):
        self.smx = smx
        self.n = dict.fromkeys(self.COUNTS, 0)
        self._in_improper = 0
        self._in_symmetry = 0
        self._at_calls = 0

    def enter(self, name, args):
        if name == "union.improper_pair":
            self._in_improper += 1
        elif name == "textio.parse":
            self.n["parse_bytes"] += len(args[0].encode())
        elif name == "algebra.super_mul":
            a, b = args
            n = self.n
            n["madds"] += a.rows * a.cols * b.cols
            n["bits_in_max"] = max(n["bits_in_max"], _bits(a.data.entries), _bits(b.data.entries))
            za, zb = _zero_blocks(a), _zero_blocks(b)
            rb, kb = a.row_partition.block_count, a.col_partition.block_count
            cb = b.col_partition.block_count
            for i in range(rb):
                for k in range(kb):
                    for j in range(cb):
                        n["inner_products"] += 1
                        n["zero_inner_products"] += za[i, k] or zb[k, j]

    def leave(self, name, args, result):
        n = self.n
        if name == "union.improper_pair":
            self._in_improper -= 1
        elif name == "textio.parse":
            n["parse_entries"] += _entries(result)
            n["delivered_entries"] += _entries(result)
        elif name == "textio.format":
            n["format_bytes"] += len(result.encode())
        elif name == "algebra.super_mul":
            n["bits_out_max"] = max(n["bits_out_max"], _bits(result[0].data.entries))
        elif name.startswith("union.union_") and isinstance(result, self.smx.SuperNMatrix):
            n["delivered_entries"] += _entries(result)

    def fail(self, name, span, error, spans):
        if name == "union.improper_pair":
            self._in_improper -= 1
        # A typed error that reaches the CLI, raised by a call the CLI made.
        parent = spans[span.parent] if span.parent >= 0 else None
        if parent is not None and parent.name == "cli.run" and isinstance(error, self.smx.errors.SmxError):
            self.n["typed_errors"] += 1

    def extra_hooks(self, smx):
        """Counting-only replacements: as_rational, strict_eq and DenseMatrix.at."""
        n = self.n
        out = []
        for module in (smx.core, smx.algebra):
            coerce = module.as_rational

            def counted(x, _coerce=coerce):
                n["as_rational"] += 1
                return _coerce(x)

            out.append((module, "as_rational", counted))
        strict_eq = smx.algebra.strict_eq

        def counted_strict_eq(a, b):
            if self._in_improper:
                n["improper_pairs"] += 1
            return strict_eq(a, b)

        out.append((smx.algebra, "strict_eq", counted_strict_eq))
        is_symmetric = smx.classify.is_symmetric_super

        def counted_is_symmetric(s):
            self._in_symmetry += 1
            try:
                return is_symmetric(s)
            finally:
                self._in_symmetry -= 1

        out.append((smx.classify, "is_symmetric_super", counted_is_symmetric))
        at = smx.core.DenseMatrix.__dict__["at"]

        def counted_at(m, i, j):
            if self._in_symmetry:
                self._at_calls += 1
            return at(m, i, j)

        out.append((smx.core.DenseMatrix, "at", counted_at))
        return out

    def finish(self):
        # Each symmetry comparison reads two entries through DenseMatrix.at.
        self.n["symmetry_compared"] = self._at_calls // 2
        return dict(self.n)
