"""Command line front end.

Subcommands read .smx files and either report on them (check, classify, eq)
or produce a new .smx file (add, sub, mul, scale, transpose, flatten, gram).
Results, and help text, go to run's stdout unless -o names a file; output
files are written via a temp file and os.replace so a failure never leaves a
partial file.

The argument parser is built on the first call of run and reused by every
later call in the same process: parsing never changes it, each call gets a
fresh namespace, and help text takes its width at the time it is printed.

run writes and flushes each result and help text itself: one that cannot be
written to stdout (a closed pipe, a full disk, a closed fd 1) is one line on
stderr and exit 1, whatever its size; a failing stderr is ignored. main, behind
the smx console script and python -m smx.cli, then ends the process with
os._exit, skipping interpreter teardown, which measured 10-12 ms per process
(Python 3.11, 2-core VM). That loses nothing: stdout is flushed, stderr is
line-buffered, an -o file is closed before its rename, and no atexit handler is
registered. An uncaught exception is a bug and still ends with its traceback.

Exit codes: 0 success, 1 unreadable or unparsable input (and usage errors,
and stdout that cannot be written), 2 incompatible operands, 3 check found an
improper union.
"""

import argparse
import errno
import functools
import os
import re
import sys

from . import textio
from .classify import improper_pair, union_class
from .core import _ratio
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


def _say(err, message):
    """Write one line to err; if err itself fails there is nowhere left to report it."""
    try:
        err.write(f"{message}\n")
    except OSError:
        pass


def _write(out, text):
    """Write and flush a result to out; a closed pipe, a full disk or a closed fd 1 is a one-line failure."""
    if out is None:  # sys.stdout when the process started with fd 1 closed
        raise _Failure(FAILED_READ, f"stdout: {os.strerror(errno.EBADF)}")
    try:
        out.write(text)
        out.flush()
    except OSError as e:
        raise _Failure(FAILED_READ, f"stdout: {e.strerror or e}") from None


class _Help(Exception):
    """Help text, raised where argparse would print it and exit: run writes it as a result."""


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads '-3' and '-1.5' as negative numbers, not as options; read '-1/2' so too
        self._negative_number_matcher = re.compile(rf"{self._negative_number_matcher.pattern}|^-[0-9]+/[0-9]+\Z")

    def error(self, message):
        raise _Failure(FAILED_READ, f"usage error: {message}")

    def print_help(self, file=None):
        raise _Help(self.format_help())


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
        _write(out, text)
        return
    target = os.path.realpath(path)  # write through a symlink, as '>' does
    if os.path.isdir(target):  # '' too, as the working directory: refused before any temp file is made
        raise _Failure(FAILED_READ, f"{path}: {os.strerror(errno.EISDIR)}")
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
    """The scale factor as given, once it reads as a rational: scale reads it again, with no Fraction."""
    try:
        _ratio(text)
    except ValueError as e:
        raise _Failure(FAILED_READ, str(e)) from None
    return text


def _operands(ns):
    """The command's operands in declared order: files loaded, other values read."""
    return [read(getattr(ns, dest)) for dest, read in ns.operands]


def _cmd_report(ns, out, err):
    (u,) = _operands(ns)
    report = union_class(u)
    if ns.json:
        import json  # only --json needs it; a top-level import would slow every call's start

        _write(out, json.dumps(report.to_dict(), indent=2) + "\n")
    else:
        _write(out, _report_text(report))
    if ns.gate and not report.proper:
        i, j = improper_pair(u)
        _say(err, f"improper union: identical components {i} and {j}")
        return IMPROPER
    return OK


def _cmd_produce(ns, out, err):
    result = ns.op(*_operands(ns))
    _emit(textio.format(result), ns.output, out)
    return OK


def _cmd_eq(ns, out, err):
    same = (union_strict_eq if ns.mode == "strict" else union_value_eq)(*_operands(ns))
    _write(out, _bool_word(same) + "\n")
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
    """Run one command and return its exit code; results and help go to stdout, which needs write and flush."""
    out = sys.stdout if stdout is None else stdout
    err = sys.stderr if stderr is None else stderr
    if argv is None:
        argv = sys.argv[1:]
    try:
        try:
            ns = _build_parser().parse_args(argv)
        except _Help as e:
            _write(out, str(e))
            return OK
        return ns.func(ns, out, err)
    except (_Failure, DimensionMismatch, PartitionMismatch, ArityMismatch) as e:
        _say(err, e)
        return e.code if isinstance(e, _Failure) else INCOMPATIBLE


def main():
    """Run the command from sys.argv and end the process without teardown."""
    os._exit(run())


if __name__ == "__main__":
    main()
