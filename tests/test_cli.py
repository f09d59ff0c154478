import argparse
import errno
import io
import json
import os
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures as fx
import smx
import strategies as sts
from smx.cli import _ArgumentParser, run


def invoke(args):
    out, err = io.StringIO(), io.StringIO()
    code = run(args, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def write_smx(tmp_path, name, content):
    p = tmp_path / name
    p.write_text(content if isinstance(content, str) else smx.format(content))
    return str(p)


def write_big(tmp_path):
    """A one-component file whose transpose is over 100 KB, far more than a stdout buffer holds."""
    rows = [[Fraction(131 * i + 7919 * j, j % 5 + 1) for j in range(120)] for i in range(120)]
    return write_smx(tmp_path, "big.smx", smx.make_union([smx.make_super(rows, [40], [60])]))


def child(args, closed_stdout=False, **kwargs):
    """python -m smx.cli args in a fresh process, stdout block-buffered as when run from a shell.

    closed_stdout starts it with fd 1 closed, as the shell's '>&-' does.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).parents[1] / "src")
    argv = [sys.executable, "-m", "smx.cli", *args]
    if closed_stdout:
        argv = ["sh", "-c", 'exec "$@" >&-', "sh", *argv]
    return subprocess.run(argv, env=env, check=False, **kwargs)


class _Failing(io.StringIO):
    """A stream whose every write fails as a closed pipe does."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


class _NotSysStdout(io.StringIO):
    """A stream that fails any write made while sys.stdout is bound to it."""

    def write(self, text):
        assert sys.stdout is not self, "sys.stdout was rebound to the stream run was given"
        return super().write(text)


class TestArithmeticCommands:
    def test_mul_prints_canonical_product(self, tmp_path):
        a = write_smx(tmp_path, "a.smx", fx.MUL_SMALL_A)
        b = write_smx(tmp_path, "b.smx", fx.MUL_SMALL_B)
        code, out, err = invoke(["mul", a, b])
        assert code == 0
        assert out == "[  5  5\n  18 11\n   9 13 ]\n"
        assert err == ""

    def test_add_partition_mismatch_exits_2(self, tmp_path):
        a = write_smx(tmp_path, "a.smx", fx.ADD_MISMATCH_PAIR[0])
        b = write_smx(tmp_path, "b.smx", fx.ADD_MISMATCH_PAIR[1])
        code, out, err = invoke(["add", a, b])
        assert code == 2
        assert out == ""
        assert "partition mismatch" in err
        assert "row cuts [2] vs [1]" in err

    def test_mul_arity_mismatch_exits_2(self, tmp_path):
        a = write_smx(tmp_path, "a.smx", smx.make_union([fx.MUL_SMALL_A]))
        b = write_smx(tmp_path, "b.smx", fx.UNION_MUL_RIGHT)
        code, _, err = invoke(["mul", a, b])
        assert code == 2
        assert "cannot multiply unions of arity 1 and 2" in err

    def test_mul_dimension_mismatch_exits_2(self, tmp_path):
        a = write_smx(tmp_path, "a.smx", fx.MUL_SMALL_A)
        b = write_smx(tmp_path, "b.smx", fx.IMPROPER_UNION.components[0])
        code, _, err = invoke(["mul", a, b])
        assert code == 2
        assert "cannot multiply" in err

    def test_scale_by_rational(self, tmp_path):
        f = write_smx(tmp_path, "m.smx", fx.SCALE_BASE)
        code, out, _ = invoke(["scale", "1/2", f])
        assert code == 0
        assert out == smx.format(smx.scale("1/2", fx.SCALE_BASE))

    @pytest.mark.parametrize("scalar", ["-1/2", "-3"])
    def test_scale_by_a_negative_scalar(self, tmp_path, scalar):
        f = write_smx(tmp_path, "m.smx", fx.SCALE_BASE)
        expected = smx.format(smx.scale(scalar, fx.SCALE_BASE))
        assert invoke(["scale", scalar, f]) == (0, expected, "")
        assert invoke(["scale", "--", scalar, f]) == (0, expected, "")
        target = tmp_path / "out.smx"
        assert invoke(["scale", scalar, f, "-o", str(target)]) == (0, "", "")
        assert target.read_text() == expected
        done = child(["scale", scalar, f], capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")

    def test_negative_number_pattern(self):
        # The parser widens argparse's private negative-number pattern: it must exist on every
        # supported Python, read '-3' and '-1.5' as numbers, and read '-1/2' only once widened.
        stock = argparse.ArgumentParser()._negative_number_matcher
        widened = _ArgumentParser()._negative_number_matcher
        for text in ("-3", "-1.5"):
            assert stock.match(text) and widened.match(text)
        assert not stock.match("-1/2") and widened.match("-1/2")
        for text in ("-o", "-1/", "-/2", "-1/2/3", "-1/2\n", "-1/x", "-\u0663/2"):
            assert not widened.match(text)

    @pytest.mark.parametrize(
        "args, message",
        [
            (["scale", "-1/0"], "zero denominator in '-1/0'"),
            (["scale", "-1.5"], "invalid rational '-1.5'"),
            (["scale", "-x"], "usage error: the following arguments are required: file"),
        ],
        ids=["zero-denominator", "decimal", "option"],
    )
    def test_scale_bad_negative_scalar_exits_1(self, tmp_path, args, message):
        f = write_smx(tmp_path, "m.smx", fx.SCALE_BASE)
        assert invoke([*args, f]) == (1, "", message + "\n")

    def test_scale_bad_scalar_exits_1(self, tmp_path):
        f = write_smx(tmp_path, "m.smx", fx.SCALE_BASE)
        code, _, err = invoke(["scale", "1/oops", f])
        assert code == 1
        assert "invalid rational" in err

    def test_mul_beyond_the_int_str_digit_limit(self, tmp_path):
        sevens = 7 * (10**2500 - 1) // 9
        f = write_smx(tmp_path, "big.smx", f"[ {'7' * 2500} ]\n")
        code, out, err = invoke(["mul", f, f])
        assert (code, err) == (0, "")
        assert smx.parse(out).components[0].data.entries == (sevens**2,)

    def test_sub_round_trips(self, tmp_path):
        a = write_smx(tmp_path, "a.smx", fx.UNION_ADD_SUM)
        b = write_smx(tmp_path, "b.smx", fx.UNION_ADD_B)
        code, out, _ = invoke(["sub", a, b])
        assert code == 0
        assert out == smx.format(fx.UNION_ADD_A)

    def test_transpose_writes_output_file(self, tmp_path):
        f = write_smx(tmp_path, "m.smx", fx.TALL_7X5)
        target = tmp_path / "out.smx"
        code, out, _ = invoke(["transpose", f, "-o", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text() == smx.format(fx.TALL_7X5_T)

    def test_output_file_mode_follows_umask(self, tmp_path):
        f = write_smx(tmp_path, "m.smx", fx.TALL_7X5)
        target = tmp_path / "out.smx"
        old = os.umask(0o022)
        try:
            assert invoke(["transpose", f, "-o", str(target)]) == (0, "", "")
        finally:
            os.umask(old)
        assert stat.S_IMODE(target.stat().st_mode) == 0o644

    def test_output_writes_through_a_symlink(self, tmp_path):
        f = write_smx(tmp_path, "m.smx", fx.TALL_7X5)
        real = tmp_path / "real.smx"
        real.write_text("old\n")
        link = tmp_path / "link.smx"
        link.symlink_to(real)
        assert invoke(["transpose", f, "-o", str(link)]) == (0, "", "")
        assert link.is_symlink()
        assert real.read_text() == smx.format(fx.TALL_7X5_T)

    @pytest.mark.parametrize(
        "args",
        [
            ["add", "a.smx", "b.smx"],
            ["sub", "a.smx", "b.smx"],
            ["mul", "l.smx", "r.smx"],
            ["scale", "7/2", "a.smx"],
            ["transpose", "l.smx"],
            ["flatten", "a.smx"],
            ["gram", "r.smx", "--side", "left"],
        ],
        ids=lambda args: args[0],
    )
    def test_output_file_matches_stdout(self, tmp_path, args):
        for name, union in (
            ("a.smx", fx.UNION_ADD_A),
            ("b.smx", fx.UNION_ADD_B),
            ("l.smx", fx.UNION_MUL_LEFT),
            ("r.smx", fx.UNION_MUL_RIGHT),
        ):
            write_smx(tmp_path, name, union)
        args = [str(tmp_path / a) if a.endswith(".smx") else a for a in args]
        code, printed, err = invoke(args)
        assert (code, err) == (0, "")
        target = tmp_path / "out.smx"
        assert invoke(args + ["-o", str(target)]) == (0, "", "")
        assert target.read_bytes() == printed.encode()

    def test_flatten_drops_cuts(self, tmp_path):
        f = write_smx(tmp_path, "m.smx", fx.QUAD_6X6)
        code, out, _ = invoke(["flatten", f])
        assert code == 0
        c = smx.parse(out).components[0]
        assert c.row_cuts == () and c.col_cuts == ()

    def test_gram_left(self, tmp_path):
        f = write_smx(tmp_path, "m.smx", fx.GRAM_LEFT_IN)
        code, out, _ = invoke(["gram", f, "--side", "left"])
        assert code == 0
        assert out == smx.format(fx.GRAM_LEFT_OUT)

    def test_gram_requires_side(self, tmp_path):
        f = write_smx(tmp_path, "m.smx", fx.GRAM_LEFT_IN)
        code, _, err = invoke(["gram", f])
        assert code == 1
        assert "usage error" in err

    def test_failed_output_leaves_no_file(self, tmp_path):
        a = write_smx(tmp_path, "a.smx", fx.MUL_SMALL_A)
        b = write_smx(tmp_path, "b.smx", fx.MUL_SMALL_B)
        target = tmp_path / "missing-dir" / "out.smx"
        code, _, err = invoke(["mul", a, b, "-o", str(target)])
        assert code == 1
        assert not target.exists()
        assert str(target) in err

    def test_failed_replace_leaves_no_temp_file(self, tmp_path, monkeypatch):
        f = write_smx(tmp_path, "m.smx", fx.TALL_7X5)

        def refuse(src, dst):  # the temp file is written, then cannot replace the target
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))

        monkeypatch.setattr(os, "replace", refuse)
        code, _, err = invoke(["transpose", f, "-o", str(tmp_path / "out.smx")])
        assert (code, err) == (1, f"{tmp_path / 'out.smx'}: {os.strerror(errno.EACCES)}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.smx"]

    @pytest.mark.parametrize("target", ["out.smx", ""], ids=["directory", "empty"])
    def test_directory_output_opens_nothing(self, tmp_path, monkeypatch, target):
        f = write_smx(tmp_path, "m.smx", fx.TALL_7X5)
        (tmp_path / "work" / "out.smx").mkdir(parents=True)
        monkeypatch.chdir(tmp_path / "work")  # '' names the working directory
        opened, os_open = [], os.open
        monkeypatch.setattr(os, "open", lambda path, *args: opened.append(path) or os_open(path, *args))
        code, out, err = invoke(["transpose", f, "-o", target])
        assert (code, out, err) == (1, "", f"{target}: Is a directory\n")
        assert opened == []
        assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == ["m.smx", "work", "work/out.smx"]

    def test_temp_name_collision_leaves_the_other_file(self, tmp_path, monkeypatch):
        f = write_smx(tmp_path, "m.smx", fx.TALL_7X5)
        monkeypatch.setattr(os, "urandom", lambda n: bytes(n))
        theirs = tmp_path / f".smx-{bytes(8).hex()}"
        theirs.write_text("someone else's\n")
        code, _, err = invoke(["transpose", f, "-o", str(tmp_path / "out.smx")])
        assert code == 1 and "File exists" in err
        assert theirs.read_text() == "someone else's\n"
        assert not (tmp_path / "out.smx").exists()

    def test_incompatible_operands_leave_no_file(self, tmp_path):
        a = write_smx(tmp_path, "a.smx", fx.ADD_MISMATCH_PAIR[0])
        b = write_smx(tmp_path, "b.smx", fx.ADD_MISMATCH_PAIR[1])
        target = tmp_path / "out.smx"
        code, _, _ = invoke(["add", a, b, "-o", str(target)])
        assert code == 2
        assert not target.exists()


class TestSharedParser:
    """run() builds its parser once per process; calls made in a row through it
    must each behave exactly as the same call run alone in a fresh process."""

    @staticmethod
    def alone(args):
        done = child(args, capture_output=True)
        return done.returncode, done.stdout.decode(), done.stderr.decode()

    @pytest.mark.parametrize(
        "calls",
        [
            (["gram", "m.smx", "--side", "left", "-o", "out.smx"], ["gram", "m.smx", "--side", "right"]),
            (["check", "u.smx", "--json"], ["check", "u.smx"]),
            (["gram", "m.smx"], ["gram", "m.smx", "--side", "left"]),
            (["gram", "-h"], ["check", "u.smx"]),
        ],
        ids=["gram-o-then-stdout", "json-then-text", "usage-error-then-valid", "help-then-check"],
    )
    def test_calls_in_a_row_match_fresh_processes(self, tmp_path, monkeypatch, calls):
        monkeypatch.setenv("COLUMNS", "80")  # the help width a child reads too
        write_smx(tmp_path, "m.smx", fx.GRAM_LEFT_IN)
        write_smx(tmp_path, "u.smx", fx.IMPROPER_UNION)
        target = tmp_path / "out.smx"
        calls = [[str(tmp_path / a) if a.endswith(".smx") else a for a in args] for args in calls]

        def written():
            data = target.read_bytes() if target.exists() else None
            target.unlink(missing_ok=True)
            return data

        in_row = []
        for args in calls:
            code, out, err = invoke(args)
            in_row.append((code, out, err, written()))
        for args, result in zip(calls, in_row):
            assert (*self.alone(args), written()) == result
        assert ("-o" in calls[0]) == (in_row[0][3] is not None)  # an -o file was written and compared


class TestStdoutFailures:
    """A result that cannot be written to stdout ends in one stderr line and exit 1."""

    # a transpose past a stdout buffer fails at its write, a tiny one, the report of an improper union
    # and the help text at their flush: all inside run, before check reports the improper union on stderr
    @pytest.mark.parametrize("case", ["100 KB", "tiny", "improper", "help"])
    @pytest.mark.parametrize("target", ["closed pipe", "/dev/full"])
    def test_unwritable_stdout_is_one_line(self, tmp_path, case, target):
        if case == "help":
            args = ["-h"]
        elif case == "improper":
            args = ["check", write_smx(tmp_path, "u.smx", fx.IMPROPER_UNION)]
        elif case == "tiny":
            args = ["transpose", write_smx(tmp_path, "m.smx", fx.TALL_7X5)]
        else:
            args = ["transpose", write_big(tmp_path)]
        if target == "closed pipe":
            read_end, stdout = os.pipe()
            os.close(read_end)
            reason = os.strerror(errno.EPIPE)
        else:
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            stdout = os.open("/dev/full", os.O_WRONLY)
            reason = os.strerror(errno.ENOSPC)
        try:
            done = child(args, stdout=stdout, stderr=subprocess.PIPE)
        finally:
            os.close(stdout)
        assert (done.returncode, done.stderr) == (1, f"stdout: {reason}\n".encode())

    @pytest.mark.parametrize(
        "args",
        [
            ["transpose", "big.smx"],
            ["check", "big.smx", "--json"],
            ["eq", "big.smx", "big.smx", "--mode", "value"],
            ["-h"],
        ],
        ids=lambda args: args[0],
    )
    def test_failing_stream_in_process(self, tmp_path, args):
        write_big(tmp_path)
        err = io.StringIO()
        code = run([str(tmp_path / a) if a.endswith(".smx") else a for a in args], stdout=_Failing(), stderr=err)
        assert (code, err.getvalue()) == (1, f"stdout: {os.strerror(errno.EPIPE)}\n")

    @pytest.mark.parametrize("name, code", [("u.smx", 3), ("nope.smx", 1)], ids=["improper", "missing"])
    def test_failing_stderr_is_ignored(self, tmp_path, name, code):
        write_smx(tmp_path, "u.smx", fx.IMPROPER_UNION)
        args = ["check", str(tmp_path / name)]
        out = io.StringIO()
        assert run(args, stdout=out, stderr=_Failing()) == code
        if os.path.exists("/dev/full"):
            with open("/dev/full", "w") as full:
                done = child(args, stdout=subprocess.PIPE, stderr=full)
            assert (done.returncode, done.stdout.decode()) == (code, out.getvalue())


class TestClosedStdout:
    """Started with fd 1 closed, the process has sys.stdout None: a stdout result is one line and exit 1."""

    @pytest.mark.parametrize(
        "args",
        [
            ["transpose", "m.smx"],
            ["scale", "2", "m.smx"],
            ["mul", "m.smx", "m.smx"],
            ["check", "u.smx"],
            ["classify", "m.smx", "--json"],
            ["eq", "m.smx", "u.smx", "--mode", "value"],
            ["-h"],
            ["gram", "--help"],
        ],
        ids=lambda args: args[0],
    )
    def test_stdout_result_is_one_line(self, tmp_path, args):
        write_smx(tmp_path, "m.smx", fx.SYM_4X4)
        write_smx(tmp_path, "u.smx", fx.IMPROPER_UNION)
        args = [str(tmp_path / a) if a.endswith(".smx") else a for a in args]
        done = child(args, closed_stdout=True, stderr=subprocess.PIPE)
        assert done.returncode == 1
        assert done.stderr.count(b"\n") == 1 and b"Traceback" not in done.stderr
        assert done.stderr == f"stdout: {os.strerror(errno.EBADF)}\n".encode()

    def test_output_file_is_written(self, tmp_path):
        f = write_smx(tmp_path, "m.smx", fx.TALL_7X5)
        _, expected, _ = invoke(["transpose", f])
        out = tmp_path / "out.smx"
        done = child(["transpose", f, "-o", str(out)], closed_stdout=True, stderr=subprocess.PIPE)
        assert (done.returncode, done.stderr) == (0, b"")
        assert out.read_bytes() == expected.encode()


class TestFlushBeforeExit:
    """main ends the process with os._exit once run has flushed each result; stderr is line-buffered."""

    @pytest.mark.parametrize("size", ["100 KB", "tiny"])  # a tiny result stays in the buffer until run flushes it
    def test_stdout_to_a_pipe_and_to_a_file(self, tmp_path, size):
        f = write_big(tmp_path) if size == "100 KB" else write_smx(tmp_path, "m.smx", fx.TALL_7X5)
        code, expected, _ = invoke(["transpose", f])
        assert code == 0 and (len(expected) >= 100_000) == (size == "100 KB")
        done = child(["transpose", f], capture_output=True)
        assert (done.returncode, done.stdout, done.stderr) == (0, expected.encode(), b"")
        with open(tmp_path / "stdout.smx", "wb") as out:
            assert child(["transpose", f], stdout=out).returncode == 0
        assert (tmp_path / "stdout.smx").read_bytes() == expected.encode()

    def test_operand_mismatch_line(self, tmp_path):
        a = write_smx(tmp_path, "a.smx", fx.ADD_MISMATCH_PAIR[0])
        b = write_smx(tmp_path, "b.smx", fx.ADD_MISMATCH_PAIR[1])
        expected = invoke(["add", a, b])
        assert expected[0] == 2 and expected[2].endswith("\n")
        done = child(["add", a, b], capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == expected

    def test_output_file(self, tmp_path):
        f = write_big(tmp_path)
        _, expected, _ = invoke(["transpose", f])
        done = child(["transpose", f, "-o", str(tmp_path / "out.smx")], capture_output=True)
        assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
        assert (tmp_path / "out.smx").read_bytes() == expected.encode()


_NO_FRACTION_FILES = {
    "a": "[ 1 -1/2 | 3\n  2/3 5 | 7 ]\n",
    "b": "[ 1 2\n  3/4 -5\n  ----\n  6 1/7 ]\n",
    "u": "[ 1 -1/2 | 3\n  2/3 5 | 7 ]\nU\n[ 2 1/3\n  1/3 0 ]\nU\n[ 0 0 ]\nU\n[ 1 -1/2 | 3\n  2/3 5 | 7 ]\n",
}


@pytest.mark.parametrize(
    "args",
    [
        ["mul", "{a}", "{b}"],
        ["gram", "--side", "left", "{a}"],
        ["gram", "--side", "right", "{b}"],
        ["add", "{a}", "{a}"],
        ["scale", "-7/2", "{a}"],
        ["transpose", "{b}"],
        ["check", "{u}"],
    ],
    ids=["mul", "gram-left", "gram-right", "add", "scale", "transpose", "check"],
)
def test_the_cli_builds_no_fraction(tmp_path, monkeypatch, args):
    paths = {name: write_smx(tmp_path, f"{name}.smx", text) for name, text in _NO_FRACTION_FILES.items()}
    argv = [a.format(**paths) for a in args]
    expected = invoke(argv)
    built, new = [], Fraction.__new__

    def counting(cls, *values, **kwargs):
        built.append(values)
        return new(cls, *values, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    got = invoke(argv)
    monkeypatch.undo()
    assert got == expected and got[0] in (0, 3) and got[1]
    assert built == []


class TestCheckAndClassify:
    def test_check_improper_exits_3(self, tmp_path):
        f = write_smx(tmp_path, "u.smx", fx.IMPROPER_UNION)
        code, out, err = invoke(["check", f])
        assert code == 3
        assert "proper: false" in out
        assert err == "improper union: identical components 1 and 2\n"

    def test_check_proper_exits_0(self, tmp_path):
        f = write_smx(tmp_path, "u.smx", fx.PROPER_UNION)
        code, out, err = invoke(["check", f])
        assert code == 0
        assert "proper: true" in out
        assert err == ""

    def test_classify_report_text(self, tmp_path):
        f = write_smx(tmp_path, "u.smx", fx.PROPER_UNION)
        code, out, _ = invoke(["classify", f])
        assert code == 0
        assert out == (
            "arity: 2\n"
            "component_shapes: general_super, general_super\n"
            "union_shape: square(4)\n"
            "symmetry: none\n"
            "semi_super: false\n"
            "proper: true\n"
        )

    def test_classify_improper_still_zero(self, tmp_path):
        f = write_smx(tmp_path, "u.smx", fx.IMPROPER_UNION)
        code, out, err = invoke(["classify", f])
        assert code == 0
        assert "proper: false" in out
        assert err == ""

    @given(sts.unions_with_repeats())
    @settings(max_examples=50)
    def test_check_gates_on_improper_pair(self, tmp_path_factory, u):
        f = write_smx(tmp_path_factory.mktemp("check"), "u.smx", u)
        code, _, err = invoke(["check", f])
        pair = smx.improper_pair(u)
        if pair is None:
            assert (code, err) == (0, "")
        else:
            assert (code, err) == (3, f"improper union: identical components {pair[0]} and {pair[1]}\n")

    def test_check_json(self, tmp_path):
        f = write_smx(tmp_path, "u.smx", fx.SEMI_UNION)
        code, out, _ = invoke(["check", f, "--json"])
        assert code == 0
        assert json.loads(out) == {
            "arity": 2,
            "component_shapes": ["simple", "general_super"],
            "union_shape": "mixed",
            "symmetry": "none",
            "semi_super": True,
            "proper": True,
        }


class TestEq:
    def test_value_true_strict_false(self, tmp_path):
        a = write_smx(tmp_path, "a.smx", fx.VALUE_EQ_PAIR[0])
        b = write_smx(tmp_path, "b.smx", fx.VALUE_EQ_PAIR[1])
        assert invoke(["eq", a, b, "--mode", "value"]) == (0, "true\n", "")
        assert invoke(["eq", a, b, "--mode", "strict"]) == (0, "false\n", "")

    def test_arity_mismatch_is_false(self, tmp_path):
        a = write_smx(tmp_path, "a.smx", smx.make_union([fx.SYM_4X4]))
        b = write_smx(tmp_path, "b.smx", fx.PROPER_UNION)
        assert invoke(["eq", a, b, "--mode", "value"]) == (0, "false\n", "")

    def test_mode_required(self, tmp_path):
        a = write_smx(tmp_path, "a.smx", fx.SYM_4X4)
        code, _, err = invoke(["eq", a, a])
        assert code == 1
        assert "usage error" in err


class TestFailures:
    def test_missing_file(self, tmp_path):
        code, out, err = invoke(["classify", str(tmp_path / "nope.smx")])
        assert code == 1
        assert out == ""
        assert "nope.smx" in err

    def test_undecodable_input_exits_1(self, tmp_path):
        f = tmp_path / "bad.smx"
        f.write_bytes(b"\xff[ 1 ]\n")
        code, out, err = invoke(["check", str(f)])
        assert (code, out) == (1, "")
        assert err.startswith(f"{f}: ") and err.count("\n") == 1

    @given(st.binary(max_size=80) | st.text("[]|;U∪-+/0123456789 \n\r\t\v\xa0", max_size=80).map(str.encode))
    @settings(max_examples=200)
    def test_any_bytes_end_in_an_exit_code(self, tmp_path_factory, data):
        f = tmp_path_factory.mktemp("fuzz") / "in.smx"
        f.write_bytes(data)
        code, _, err = invoke(["check", str(f)])
        assert code in (0, 1, 3)
        if code == 1:
            assert err.count("\n") == 1 and err.endswith("\n")

    def test_leading_bom_accepted(self, tmp_path):
        f = tmp_path / "bom.smx"
        f.write_bytes("\ufeff[ 1 2 ]\n".encode())
        assert invoke(["transpose", str(f)]) == (0, "[ 1\n  2 ]\n", "")

    def test_lone_cr_is_an_error(self, tmp_path):
        f = tmp_path / "cr.smx"
        f.write_bytes(b"[ 1\r2 ]\n")
        assert invoke(["transpose", str(f)]) == (1, "", f"{f}: line 1, column 4: unexpected character '\\r'\n")
        f.write_bytes(b"[ 1 2 ]\r")
        assert invoke(["check", str(f)]) == (1, "", f"{f}: line 1, column 8: unexpected text after ']'\n")

    def test_crlf_accepted(self, tmp_path):
        f = tmp_path / "crlf.smx"
        f.write_bytes(b"[ 1 2\r\n  3 4 ]\r\nU\r\n[ 5 ]\r\n")
        assert invoke(["transpose", str(f)]) == (0, "[ 1 3\n  2 4 ]\nU\n[ 5 ]\n", "")

    def test_parse_error_carries_position(self, tmp_path):
        f = write_smx(tmp_path, "bad.smx", "[ 1 2\n3 ]")
        code, _, err = invoke(["check", f])
        assert code == 1
        assert "line 2, column 3" in err

    def test_unknown_command(self):
        code, _, err = invoke(["bogus"])
        assert code == 1
        assert "usage error" in err

    def test_no_arguments(self):
        code, _, err = invoke([])
        assert code == 1
        assert "usage error" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = invoke(["-h"])
        assert code == 0
        assert "COMMAND" in out
        assert capsys.readouterr().out == ""  # nothing went past the stream run was given

    @pytest.mark.parametrize("args", [["-h"], ["--help"], ["gram", "-h"], ["check", "--help"]])
    def test_help_goes_to_the_given_stream(self, monkeypatch, capsys, args):
        monkeypatch.setenv("COLUMNS", "80")  # the help width a child reads too
        expected = TestSharedParser.alone(args)
        assert invoke(args) == expected
        out, err = _NotSysStdout(), io.StringIO()
        assert (run(args, stdout=out, stderr=err), out.getvalue(), err.getvalue()) == expected
        assert capsys.readouterr() == ("", "")


def test_import_loads_no_unneeded_stdlib():
    """Every CLI call imports smx.cli; none of these modules is needed to start it."""
    unneeded = ("dataclasses", "inspect", "tempfile", "json")
    probe = f"import sys, smx.cli; print(sorted(set({unneeded!r}) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    # -S: site and its .pth files may import any of them before smx is reached
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert done.stdout == "[]\n"
