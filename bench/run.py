"""The smx benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload dense-product --seed 1 --seconds 25 --trace 0

Load is one closed loop on one thread: the next call starts when the last
one has ended, and at most one smx child process runs at a time. Every call
of the workload's fixed list runs twice per pass, first as a CLI child
process (``bench/launch.py``, timed from spawn to exit) and then in-process
through ``smx.cli.run(argv, stdout, stderr)``. Whole passes run until the
next one would overrun ``--seconds``; at least one always runs.

``--trace 0`` reports the end-to-end metrics with no hooks installed.
``--trace 1`` instead times the in-process calls with layer hooks installed
(see ``spans.py``), interleaved with untimed-by-hooks calls for the overhead
ratio and with bare interpreter starts for ``cli.start_ms``, then takes the
per-layer counts in one more untimed pass. Both modes check every output
against ``reference.py`` after the timing ends. The last line of standard
output is the result as one JSON object; a fuller record goes to
``bench/_run/results/``.
"""

import argparse
import io
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
LAUNCHER = os.path.join(BENCH, "launch.py")
RUN_DIR = os.path.join(BENCH, "_run")
SETUPS = 5  # setup_s is the median of this many set-ups
CALL_TIMEOUT_S = 60

sys.path.insert(0, BENCH)
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "call_ms_p50": "ms",
    "call_ms_tail": "ms",
    "inproc_ms_p50": "ms",
    "inproc_ms_tail": "ms",
    "calls_per_s": "1/s",
    "ok_ratio": "fraction",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "cli.start_ms": "ms",
    "cli.self_ms": "ms",
    "cli.bytes_read": "bytes",
    "cli.bytes_written": "bytes",
    "textio.parse.self_ms": "ms",
    "textio.parse.mb_per_s": "MB/s",
    "textio.parse.entries": "count",
    "textio.format.self_ms": "ms",
    "textio.format.mb_per_s": "MB/s",
    "core.construct.self_ms": "ms",
    "core.coerce_per_entry": "ratio",
    "algebra.super_mul.self_ms": "ms",
    "algebra.super_mul.madds": "count",
    "algebra.super_mul.madds_per_s": "1/s",
    "algebra.zero_block_share": "fraction",
    "algebra.bits_in_max": "bits",
    "algebra.bits_out_max": "bits",
    "algebra.add.self_ms": "ms",
    "algebra.sub.self_ms": "ms",
    "algebra.scale.self_ms": "ms",
    "algebra.transpose.self_ms": "ms",
    "union.lift.self_ms": "ms",
    "union.improper_pair.self_ms": "ms",
    "union.improper_pair.pairs": "count",
    "classify.union_class.self_ms": "ms",
    "classify.symmetry_entries_compared": "count",
    "errors.typed": "count",
    "trace.overhead_ratio": "ratio",
    "trace.pass_ms": "ms",
}


# --- running one call ----------------------------------------------------------------


def spawn(args, stdout_path, stderr_path, timeout=CALL_TIMEOUT_S):
    """Run the launcher with ``args``; (exit code or None on timeout, seconds, max RSS KiB)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, flags, 0o644),
    ]
    argv = [sys.executable, LAUNCHER, *args]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        exited = bool(select.select([pidfd], [], [], timeout)[0])
        if not exited:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        elapsed = time.perf_counter() - t0
    finally:
        os.close(pidfd)
    return (os.waitstatus_to_exitcode(status) if exited else None), elapsed, usage.ru_maxrss


def in_process(run, argv):
    """Call ``run(argv, stdout, stderr)``; (exit code or None if it raised, seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        code = run(argv, out, err)
    except Exception:  # an uncaught error is a failed call, not the end of the run
        code = None
    return code, time.perf_counter() - t0, out.getvalue().encode()


def _read(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except FileNotFoundError:
        return None


def _clear(path):
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


class Outcomes:
    """Every call's exit code and output, deduplicated; checked after the timing."""

    def __init__(self):
        self.seen = {}

    def add(self, index, code, stdout, written):
        key = (index, code, stdout, written)
        self.seen[key] = self.seen.get(key, 0) + 1

    def check(self, workload, expected):
        """(attempted, failed, failures): each distinct outcome is verified once."""
        attempted = failed = 0
        failures = []
        for (index, code, stdout, written), count in self.seen.items():
            attempted += count
            call = workload.calls[index]
            if not reference.verify(call, expected[index], code, stdout, written):
                failed += count
                failures.append(
                    {"call": " ".join(call.argv), "exit": code, "expected_exit": expected[index][0], "times": count}
                )
        return attempted, failed, failures


# --- set-up ------------------------------------------------------------------------------


class Dirs:
    def __init__(self, workload):
        base = os.path.join(RUN_DIR, workload)
        self.inputs = os.path.join(base, "in")
        self.cli = os.path.join(base, "cli")
        self.lib = os.path.join(base, "lib")
        self.stdout = os.path.join(base, "child.stdout")
        self.stderr = os.path.join(base, "child.stderr")
        self.base = base

    def reset(self):
        shutil.rmtree(self.base, ignore_errors=True)
        for d in (self.inputs, self.cli, self.lib):
            os.makedirs(d)


def set_up(name, seed, dirs, tiny):
    """Generate and write the inputs, then one CLI warm-up call. Returns (workload, manifest).

    The returned workload holds no input values: tens of thousands of live
    Fractions in this process would slow the in-process calls' garbage
    collection. ``verify_outcomes`` regenerates them from the seed after the timing.
    """
    dirs.reset()
    wl = workloads.build(name, seed, tiny)
    manifest = {}
    for fname, union in wl.inputs.items():
        data = workloads.to_text(union).encode()
        with open(os.path.join(dirs.inputs, fname), "wb") as f:
            f.write(data)
        manifest[fname] = workloads.manifest_entry(union, data)
    wl.inputs = None
    spawn(wl.calls[0].resolve(dirs.inputs, dirs.cli), dirs.stdout, dirs.stderr)
    return wl, manifest


def verify_outcomes(outcomes, name, seed, tiny):
    """Verify every outcome against the reference built from regenerated inputs."""
    wl = workloads.build(name, seed, tiny)
    return outcomes.check(wl, reference.expected_results(wl))


def _cli_call(call, index, dirs, outcomes):
    argv = call.resolve(dirs.inputs, dirs.cli)
    target = os.path.join(dirs.cli, call.out) if call.out else None
    if target:
        _clear(target)
    code, elapsed, rss = spawn(argv, dirs.stdout, dirs.stderr)
    outcomes.add(index, code, _read(dirs.stdout), _read(target) if target else None)
    return elapsed, rss


def _lib_call(run, call, index, dirs, outcomes):
    argv = call.resolve(dirs.inputs, dirs.lib)
    target = os.path.join(dirs.lib, call.out) if call.out else None
    if target:
        _clear(target)
    code, elapsed, stdout = in_process(run, argv)
    outcomes.add(index, code, stdout, _read(target) if target else None)
    return elapsed, stdout, target


def _passes(seconds, body):
    """Run ``body(pass_index)`` in whole passes until the next would overrun ``seconds``."""
    start = time.perf_counter()
    count = last = 0
    while count == 0 or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        body(count)
        last = time.perf_counter() - t0
        count += 1
    return count


# --- statistics --------------------------------------------------------------------------


TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def tail(samples):
    """(value, percentile, samples beyond it) for the highest standard percentile
    with at least 10 samples beyond it; the median if none has.

    A fixed ladder of percentiles keeps the choice the same when a run holds
    one pass more or less, which a percentile read off the sample count would not.
    """
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p * n / 100))  # nearest rank
        if n - rank >= 10 or p == 50:
            return xs[rank - 1], p, n - rank


def _ratio(num, den):
    return num / den if den else 0.0


# --- the two modes -----------------------------------------------------------------------


def measure_end_to_end(name, seed, seconds, dirs, tiny, run):
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        wl, manifest = set_up(name, seed, dirs, tiny)
        setups.append(time.perf_counter() - t0)
    in_process(run, wl.calls[0].resolve(dirs.inputs, dirs.lib))  # in-process warm-up
    outcomes = Outcomes()
    cli_s, lib_s, rss = [], [], []

    def one_pass(_):
        for i, call in enumerate(wl.calls):
            elapsed, peak = _cli_call(call, i, dirs, outcomes)
            cli_s.append(elapsed)
            rss.append(peak)
            lib_s.append(_lib_call(run, call, i, dirs, outcomes)[0])

    passes = _passes(seconds, one_pass)
    attempted, failed, failures = verify_outcomes(outcomes, name, seed, tiny)
    call_tail, call_p, call_beyond = tail(cli_s)
    lib_tail, lib_p, lib_beyond = tail(lib_s)
    metrics = {
        "setup_s": statistics.median(setups),
        "call_ms_p50": 1000 * statistics.median(cli_s),
        "call_ms_tail": 1000 * call_tail,
        "inproc_ms_p50": 1000 * statistics.median(lib_s),
        "inproc_ms_tail": 1000 * lib_tail,
        "calls_per_s": len(cli_s) / sum(cli_s),
        "ok_ratio": 1 - failed / attempted,
        "peak_rss_mb": max(rss) / 1024,
    }
    detail = {
        "passes": passes,
        "calls_per_pass": len(wl.calls),
        "setup_samples_s": setups,
        "call_ms_tail": {"percentile": call_p, "samples": len(cli_s), "beyond": call_beyond},
        "inproc_ms_tail": {"percentile": lib_p, "samples": len(lib_s), "beyond": lib_beyond},
        "failed_ratio": failed / attempted,
    }
    return wl, manifest, metrics, END_TO_END_UNITS, (attempted, failed, failures), detail


def _count_pass(smx, wl, dirs, outcomes):
    """One more in-process pass, untimed, with count probes on the hooks."""
    probe = spans.Probe(smx)
    recorder = spans.Recorder()
    root = recorder.wrap("cli.run", smx.cli.run, probe)
    read = written = 0
    with spans.Hooks(smx, recorder, probe):
        for i, call in enumerate(wl.calls):
            read += sum(os.path.getsize(p) for p in call.operand_paths(dirs.inputs, dirs.lib))
            _, stdout, target = _lib_call(root, call, i, dirs, outcomes)
            written += len(stdout) + (len(_read(target) or b"") if target else 0)
    counts = probe.finish()
    counts["bytes_read"], counts["bytes_written"] = read, written
    return counts


def measure_layers(name, seed, seconds, dirs, tiny, smx):
    wl, manifest = set_up(name, seed, dirs, tiny)
    run = smx.cli.run
    in_process(run, wl.calls[0].resolve(dirs.inputs, dirs.lib))  # in-process warm-up
    outcomes = Outcomes()
    recorder = spans.Recorder()
    traced_run = recorder.wrap("cli.run", run)
    hooks = spans.Hooks(smx, recorder)
    plain_s, traced_s, start_s = [], [], []
    start_failed = 0
    ncalls = len(wl.calls)

    def one_pass(p):
        nonlocal start_failed
        for i, call in enumerate(wl.calls):
            plain_s.append(_lib_call(run, call, i, dirs, outcomes)[0])
            recorder.call = p * ncalls + i
            with hooks:
                traced_s.append(_lib_call(traced_run, call, i, dirs, outcomes)[0])
            code, elapsed, _ = spawn(["--import-only"], dirs.stdout, dirs.stderr)
            start_s.append(elapsed)
            start_failed += code != 0

    passes = _passes(seconds, one_pass)
    counts = _count_pass(smx, wl, dirs, outcomes)
    attempted, failed, failures = verify_outcomes(outcomes, name, seed, tiny)
    attempted += len(start_s)
    failed += start_failed

    # Self time per layer, summed per pass of the call list.
    per_pass = [dict.fromkeys(set(spans.LAYER_OF.values()), 0.0) for _ in range(passes)]
    pass_s = [0.0] * passes
    for span, own in zip(recorder.spans, recorder.self_times()):
        per_pass[span.call // ncalls][spans.LAYER_OF[span.name]] += own
        if span.parent < 0:
            pass_s[span.call // ncalls] += span.end - span.start
    layer_s = {layer: statistics.median(pp[layer] for pp in per_pass) for layer in per_pass[0]}

    def ms(layer):
        return 1000 * layer_s[layer]

    n = counts
    base = statistics.median(pass_s)
    metrics = {
        "cli.start_ms": 1000 * statistics.median(start_s),
        "cli.self_ms": ms("cli"),
        "cli.bytes_read": n["bytes_read"],
        "cli.bytes_written": n["bytes_written"],
        "textio.parse.self_ms": ms("textio.parse"),
        "textio.parse.mb_per_s": _ratio(n["parse_bytes"] / 1e6, layer_s["textio.parse"]),
        "textio.parse.entries": n["parse_entries"],
        "textio.format.self_ms": ms("textio.format"),
        "textio.format.mb_per_s": _ratio(n["format_bytes"] / 1e6, layer_s["textio.format"]),
        "core.construct.self_ms": ms("core.construct"),
        "core.coerce_per_entry": _ratio(n["as_rational"], n["delivered_entries"]),
        "algebra.super_mul.self_ms": ms("algebra.super_mul"),
        "algebra.super_mul.madds": n["madds"],
        "algebra.super_mul.madds_per_s": _ratio(n["madds"], layer_s["algebra.super_mul"]),
        "algebra.zero_block_share": _ratio(n["zero_inner_products"], n["inner_products"]),
        "algebra.bits_in_max": n["bits_in_max"],
        "algebra.bits_out_max": n["bits_out_max"],
        "algebra.add.self_ms": ms("algebra.add"),
        "algebra.sub.self_ms": ms("algebra.sub"),
        "algebra.scale.self_ms": ms("algebra.scale"),
        "algebra.transpose.self_ms": ms("algebra.transpose"),
        "union.lift.self_ms": ms("union.lift"),
        "union.improper_pair.self_ms": ms("union.improper_pair"),
        "union.improper_pair.pairs": n["improper_pairs"],
        "classify.union_class.self_ms": ms("classify.union_class"),
        "classify.symmetry_entries_compared": n["symmetry_compared"],
        "errors.typed": n["typed_errors"],
        "trace.overhead_ratio": sum(traced_s) / sum(plain_s),
        "trace.pass_ms": 1000 * base,
    }
    detail = {
        "passes": passes,
        "calls_per_pass": ncalls,
        "self_time_share": {layer: _ratio(t, base) for layer, t in sorted(layer_s.items())},
        "counts_per_pass": counts,
        "spans": len(recorder.spans),
    }
    os.makedirs(os.path.join(RUN_DIR, "results"), exist_ok=True)
    recorder.dump(os.path.join(RUN_DIR, "results", f"{name}-seed{seed}-spans.jsonl"))
    return wl, manifest, metrics, PER_LAYER_UNITS, (attempted, failed, failures), detail


def measure(name, seed, seconds, trace, tiny=False):
    """One run; the full record, with the result line's object under "result"."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import smx.cli  # noqa: F401  the in-process calls and the hooks need the package

    smx = sys.modules["smx"]
    dirs = Dirs(name)
    if trace:
        wl, manifest, metrics, units, checked, detail = measure_layers(name, seed, seconds, dirs, tiny, smx)
    else:
        wl, manifest, metrics, units, checked, detail = measure_end_to_end(
            name, seed, seconds, dirs, tiny, smx.cli.run
        )
    attempted, failed, failures = checked
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "notes": wl.notes,
        "inputs": manifest,
        "detail": detail,
        "failures": failures,
        "result": result,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "smx", "cli.py")):
        print(f"bench: no smx sources under {SRC}", file=sys.stderr)
        return 2
    record = measure(args.workload, args.seed, args.seconds, args.trace)
    result = record["result"]
    os.makedirs(os.path.join(RUN_DIR, "results"), exist_ok=True)
    path = os.path.join(RUN_DIR, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print(f"{args.workload} seed={args.seed} trace={args.trace} passes={record['detail']['passes']}")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:14.4f} {m['unit']}")
    if args.trace:
        print("  self-time share of the traced in-process time:")
        for layer, share in record["detail"]["self_time_share"].items():
            print(f"    {layer:34s} {share:8.1%}")
    print(f"  attempted={result['attempted']} failed={result['failed']} record={os.path.relpath(path, ROOT)}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
