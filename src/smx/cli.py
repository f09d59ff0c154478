"""Command line front end.

Subcommands read .smx files and either report on them (check, classify, eq)
or produce a new .smx file (add, sub, mul, scale, transpose, flatten, gram).
Results, and help text, go to run's stdout unless -o names a file; output
files are written via a temp file and os.replace so a failure never leaves a
partial file.

The argument parser is built on the first call of run and reused by every
later call in the same process: parsing never changes it, each call gets a
fresh namespace, and help text takes its width at the time it is printed.

Exit codes: 0 success, 1 unreadable or unparsable input (and usage errors),
2 incompatible operands, 3 check found an improper union.
"""

import argparse
import functools
import os
import sys

from . import textio
from .classify import improper_pair, union_class
from .errors import ArityMismatch, DimensionMismatch, ParseError, PartitionMismatch
from .union import (
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

OK = 0
FAILED_READ = 1
INCOMPATIBLE = 2
IMPROPER = 3


class _Failure(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _Failure(FAILED_READ, f"usage error: {message}")


def _load(path):
    try:
        with open(path, encoding="utf-8-sig", newline="") as f:
            text = f.read()
    except OSError as e:
        raise _Failure(FAILED_READ, f"{path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise _Failure(FAILED_READ, f"{path}: not UTF-8 text: {e.reason}") from None
    try:
        return textio.parse(text)
    except ParseError as e:
        raise _Failure(FAILED_READ, f"{path}: {e}") from None


def _emit(text, path, out):
    if path is None:
        out.write(text)
        return
    target = os.path.realpath(path)  # write through a symlink, as '>' does
    tmp = None
    try:
        name = os.path.join(os.path.dirname(target), f".smx-{os.urandom(8).hex()}")
        # O_EXCL: never open an existing file; mode 0o666 & ~umask, as '>' gives
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name  # ours from here on, so removed if anything below fails
        with open(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, target)
    except OSError as e:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise _Failure(FAILED_READ, f"{path}: {e.strerror or e}") from None


def _bool_word(flag):
    return "true" if flag else "false"


def _report_text(report):
    words = {list: ", ".join, bool: _bool_word, int: str, str: str}
    return "".join(f"{k}: {words[type(v)](v)}\n" for k, v in report.to_dict().items())


def _scalar(text):
    try:
        return textio.parse_scalar(text)
    except ValueError as e:
        raise _Failure(FAILED_READ, str(e)) from None


def _operands(ns):
    """The command's operands in declared order: files loaded, other values read."""
    return [read(getattr(ns, dest)) for dest, read in ns.operands]


def _cmd_report(ns, out, err):
    (u,) = _operands(ns)
    report = union_class(u)
    if ns.json:
        import json  # only --json needs it; a top-level import would slow every call's start

        out.write(json.dumps(report.to_dict(), indent=2) + "\n")
    else:
        out.write(_report_text(report))
    if ns.gate and not report.proper:
        i, j = improper_pair(u)
        err.write(f"improper union: identical components {i} and {j}\n")
        return IMPROPER
    return OK


def _cmd_produce(ns, out, err):
    result = ns.op(*_operands(ns))
    _emit(textio.format(result), ns.output, out)
    return OK


def _cmd_eq(ns, out, err):
    same = (union_strict_eq if ns.mode == "strict" else union_value_eq)(*_operands(ns))
    out.write(_bool_word(same) + "\n")
    return OK


@functools.cache
def _build_parser():
    parser = _ArgumentParser(prog="smx", description="exact block-partitioned matrix tool")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name, summary, func, *arguments, **defaults):
        """Add a subcommand; each argument is (flags, options, read), and read marks an operand."""
        p = sub.add_parser(name, help=summary)
        operands = []
        for flags, kwargs, read in arguments:
            dest = p.add_argument(*flags, **kwargs).dest
            if read is not None:
                operands.append((dest, read))
        p.set_defaults(func=func, operands=operands, **defaults)

    file, left, right = (("file",), {}, _load), (("left",), {}, _load), (("right",), {}, _load)
    as_json = ("--json",), {"action": "store_true"}, None
    command("check", "report on a file and flag improper unions", _cmd_report, file, as_json, gate=True)
    command("classify", "report shapes and symmetry", _cmd_report, file, as_json, gate=False)
    output = ("-o", "--output"), {"metavar": "OUT", "help": "write result to OUT instead of stdout"}, None
    side = ("--side",), {"choices": ("left", "right"), "required": True}, str
    for name, summary, op, *arguments in (
        ("add", "add two files componentwise", union_add, left, right),
        ("sub", "sub two files componentwise", union_sub, left, right),
        ("mul", "mul two files componentwise", union_mul, left, right),
        ("scale", "multiply every entry by a rational", union_scale, (("scalar",), {}, _scalar), file),
        ("transpose", "transpose each component", union_transpose, file),
        ("flatten", "flatten each component", union_flatten, file),
        ("gram", "multiply each component with its transpose", union_gram, file, side),
    ):
        command(name, summary, _cmd_produce, *arguments, output, op=op)
    mode = ("--mode",), {"choices": ("strict", "value"), "required": True}, None
    command("eq", "compare two files", _cmd_eq, left, right, mode)
    return parser


def run(argv=None, stdout=None, stderr=None):
    out = sys.stdout if stdout is None else stdout
    err = sys.stderr if stderr is None else stderr
    if argv is None:
        argv = sys.argv[1:]
    try:
        saved, sys.stdout = sys.stdout, out  # argparse prints help to sys.stdout
        try:
            ns = _build_parser().parse_args(argv)
        finally:
            sys.stdout = saved
        return ns.func(ns, out, err)
    except (_Failure, DimensionMismatch, PartitionMismatch, ArityMismatch) as e:
        err.write(f"{e}\n")
        return e.code if isinstance(e, _Failure) else INCOMPATIBLE
    except SystemExit as e:
        return int(e.code or 0)


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
