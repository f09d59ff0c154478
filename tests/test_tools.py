"""The tools: bench_trajectory.py on the committed BENCH_<n>.json files and on malformed ones,
bench_pairs.medians, and cli_diff.py against HEAD and on the differences it lists."""

import json
import math
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import bench_pairs  # noqa: E402
import bench_trajectory  # noqa: E402
import cli_diff  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    _BENCHMARK = json.load(f)
_METRICS = [m["name"] for m in _BENCHMARK["end_to_end"]]


def test_prints_every_workload_and_metric_of_the_committed_files():
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "bench_trajectory.py")], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    numbers = sorted(int(m[1]) for f in os.listdir(ROOT) if (m := re.fullmatch(r"BENCH_(\d+)\.json", f)))
    records = []
    for n in numbers:
        with open(os.path.join(ROOT, f"BENCH_{n}.json")) as f:
            records.append(json.load(f)["workloads"])
    for workload in (w["name"] for w in _BENCHMARK["workloads"]):
        at = lines.index(workload)
        assert lines[at + 1].split() == ["metric", *(f"#{n}" for n in numbers), "chained"]  # #10 follows #9
        for metric, line in zip(_METRICS, lines[at + 2 :]):
            expected = [r[workload]["medians"][metric] for r in records if workload in r]
            expected = [m["change"] / m["parent"] for m in expected if m.get("parent") and "change" in m]
            cells = line.split()
            assert cells[0] == metric
            assert [float(c) for c in cells[1:-1] if c != "-"] == [round(r, 3) for r in expected]
            assert cells[-1] == f"x{math.prod(expected):.3f}"


@pytest.mark.parametrize(
    "text, problem",
    [
        ("{", "JSONDecodeError"),
        ('{"workloads": []}', "AttributeError"),
        ('{"workloads": {"w": {"pairs": []}}}', "KeyError"),
        ('{"workloads": {"w": {"medians": {}}}}', "KeyError"),
        ('{"workloads": {"w": {"medians": {"m": {"parent": "1", "change": 1}}}}}', "not a finite number"),
    ],
    ids=["not-json", "workloads-not-a-dict", "no-medians", "no-metric", "text-median"],
)
def test_a_malformed_file_is_named(tmp_path, text, problem):
    path = tmp_path / "BENCH_99.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=r"^BENCH_99\.json: not a benchmark record") as raised:
        bench_trajectory.ratios(str(path), ["m"])
    assert problem in str(raised.value)


def test_a_missing_ratio_is_skipped_in_the_product():
    labels, table = ["1", "2"], {"w": {"m": [0.5, None]}}
    assert bench_trajectory.render(labels, table).splitlines()[-1].split() == ["m", "0.500", "-", "x0.500"]


def test_medians_count_the_pairs_won_lost_and_tied_and_apply_the_claim_rule():
    parent = list(range(10, 20))  # quartiles 11.75 and 17.25: a gap of 5.5
    values = {  # metric: (parent, change), one value per pair
        "inproc_ms_p50": (parent, [x - 7 for x in parent[:9]] + [20]),  # 9 won, median 7 lower
        "call_ms_p50": (parent, [x - 5 for x in parent[:9]] + [20]),  # 9 won, median 5 lower
        "calls_per_s": (parent, [x + 7 for x in parent]),  # higher is better: 10 won
        "ok_ratio": ([1.0] * 10, [1.0] * 10),
        "inproc_ms_tail": (parent, [x - 9 for x in parent]),  # better in every pair, comparable in 7
    }
    sides = list(enumerate(("parent", "change")))
    pairs = []
    for i in range(10):
        pair = {side: {"result": {"metrics": {m: {"value": v[k][i]} for m, v in values.items()}}} for k, side in sides}
        pair["tail_rungs"] = {"call_ms_tail": [95, 95], "inproc_ms_tail": [90, 95] if i < 3 else [95, 95]}
        pairs.append(pair)
    better = {m["name"]: m["better"] for m in _BENCHMARK["end_to_end"]}
    rows = bench_pairs.medians(pairs, better)
    terms = ("pairs", "parent", "change", "won", "lost", "tied", "parent_q1", "parent_q3", "claim_met")
    assert {m: tuple(row[t] for t in terms) for m, row in rows.items()} == {
        "inproc_ms_p50": (10, 14.5, 7.5, 9, 1, 0, 11.75, 17.25, True),
        "call_ms_p50": (10, 14.5, 9.5, 9, 1, 0, 11.75, 17.25, False),
        "calls_per_s": (10, 14.5, 21.5, 10, 0, 0, 11.75, 17.25, True),
        "ok_ratio": (10, 1.0, 1.0, 0, 0, 10, 1.0, 1.0, False),
        "inproc_ms_tail": (7, 16, 7, 7, 0, 0, 14.0, 18.0, False),
    }
    assert rows["inproc_ms_tail"]["tail_rungs_differ"] == 3 and rows["calls_per_s"]["ratio"] == 21.5 / 14.5
    line = bench_pairs.describe(rows["inproc_ms_p50"])
    expected = "14.5000 -> 7.5000 x0.517 won 9 lost 1 tied 0 parent quartiles 11.7500 17.2500 claim met"
    assert line.split() == expected.split()


def test_cli_diff_finds_no_difference_with_head_on_tiny_inputs():
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "cli_diff.py"), "--parent", "HEAD", "--seeds", "1", "--tiny"],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    summary = r"parent [0-9a-f]{12}, seeds 1 \(tiny\): \d+ calls, 300 texts \((\d+) parsed, (\d+) errors\), "
    summary += r"0 differences\n"
    match = re.fullmatch(summary, done.stdout)
    assert match and int(match[1]) > 0 and int(match[2]) > 0


def test_cli_diff_lists_each_field_that_differs():
    jobs = [("edge", ["check", "a.smx"], None), ("edge", ["transpose", "a.smx", "-o", "b.smx"], "b.smx")]
    parent = [[0, "d1", "", None], [0, "d2", "", "d3"]]
    change = [[0, "d1", "", None], [1, "d2", "line 1", None]]
    assert cli_diff.differences(jobs, parent, parent) == []
    assert [(argv[0], field, a, b) for _, argv, field, a, b in cli_diff.differences(jobs, parent, change)] == [
        ("transpose", "exit code", 0, 1),
        ("transpose", "stderr", "", "line 1"),
        ("transpose", "-o file", "d3", None),
    ]


def test_cli_diff_lists_the_text_whose_parse_outcome_differs():
    texts = [("parse", "[ 1 2 ]"), ("parse", "[ 1 @ ]"), ("parse", "[ 1 2\n3 ]")]
    parent = [["d1", None, None, None, None], [None, "ParseError", "bad token", 1, 5], [None, "RaggedRows", "r", 2, 1]]
    change = [row[:] for row in parent]
    change[1][4] = 6
    assert cli_diff.differences(texts, parent, parent, cli_diff.PARSE_FIELDS) == []
    assert cli_diff.differences(texts, parent, change, cli_diff.PARSE_FIELDS) == [
        ("parse", "[ 1 @ ]", "error column", 5, 6)
    ]
