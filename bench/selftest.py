"""Fast self-test of the benchmark itself, at a tiny input size.

    python3 bench/selftest.py

It checks that every metric named in BENCHMARK.json is emitted with its
unit, that recorded spans nest inside their parents, that a corrupted output
is counted as failed, and that the tier-1 pytest run collects nothing from
this directory. It is not named test_*.py on purpose: tier-1 must not run it.
"""

import json
import os
import subprocess
import sys

import run
import spans
import workloads


def check_metrics_and_spans():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in workloads.WORKLOADS:
            result = run.measure(name, seed=7, seconds=0.1, trace=trace, tiny=True)["result"]
            assert result["correct"] and result["failed"] == 0, (name, result)
            got = result["metrics"]
            assert set(got) == set(want), (name, set(got) ^ set(want))
            for metric, unit in want.items():
                assert got[metric]["unit"] == unit, (name, metric)
                assert isinstance(got[metric]["value"], (int, float)), (name, metric)
            if trace:
                check_spans(os.path.join(run.RUN_DIR, "results", f"{name}-seed7-spans.jsonl"))


def check_spans(path):
    with open(path) as f:
        rows = [json.loads(line) for line in f]
    assert rows, path
    recorder = spans.Recorder()
    recorder.spans = [spans.Span(*row) for row in rows]
    covered = [0.0] * len(rows)
    for s in recorder.spans:
        assert s.start <= s.end, s
        if s.parent >= 0:
            p = recorder.spans[s.parent]
            assert p.start <= s.start and s.end <= p.end, (p, s)
            assert p.call == s.call, (p, s)
            covered[s.parent] += s.end - s.start
    for s, cover, own in zip(recorder.spans, covered, recorder.self_times()):
        assert cover <= s.end - s.start, s
        assert own >= 0, s


def check_corruption_counts_as_failed():
    sys.path.insert(0, run.SRC)
    import smx.cli

    wl = workloads.build("dense-product", 7, tiny=True)
    dirs = run.Dirs("selftest")
    dirs.reset()
    for fname, union in wl.inputs.items():
        with open(os.path.join(dirs.inputs, fname), "w") as f:
            f.write(workloads.to_text(union))
    outcomes = run.Outcomes()
    for i, call in enumerate(wl.calls):
        run._lib_call(smx.cli.run, call, i, dirs, outcomes)
    expected = run.reference.expected_results(wl)
    assert outcomes.check(wl, expected)[1] == 0
    (index, code, stdout, written), _ = next(iter(outcomes.seen.items()))
    body = written if written is not None else stdout
    digit = next(k for k, ch in enumerate(body) if chr(ch) in "123456789")
    bad = body[:digit] + (b"2" if body[digit : digit + 1] != b"2" else b"3") + body[digit + 1 :]
    if written is not None:
        outcomes.add(index, code, stdout, bad)
    else:
        outcomes.add(index, code, bad, written)
    outcomes.add(index, 1, stdout, written)  # right output, wrong exit code
    attempted, failed, _ = outcomes.check(wl, expected)
    assert (attempted, failed) == (len(wl.calls) + 2, 2), (attempted, failed)


def check_tier1_does_not_collect():
    for fname in os.listdir(run.BENCH):
        assert not fname.startswith("test_") and not fname.endswith("_test.py") and fname != "conftest.py", fname
    env = dict(os.environ, PYTHONPATH=run.SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"],
        cwd=run.ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert "bench" not in proc.stdout, [line for line in proc.stdout.splitlines() if "bench" in line]


def main():
    for check in (
        check_metrics_and_spans,
        check_corruption_counts_as_failed,
        check_tier1_does_not_collect,
    ):
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
