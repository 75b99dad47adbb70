"""The benchmark's own checks, at a tiny scale.

Run with ``python3 -m pytest perfbench/tests -q`` from the checkout root.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys

import pytest

import inputs
import serve_load
import worker
from common import ROOT
from layers import END_TO_END, PER_LAYER
from live import Mirror

TINY = 0.05
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


def test_declared_metrics_match_the_code():
    assert declared("end_to_end") == dict(END_TO_END)
    assert declared("per_layer") == dict(PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        inputs.GENERATORS
    )


@pytest.mark.parametrize("workload", list(inputs.GENERATORS))
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(workload, trace):
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload,
            "--seed", "5",
            "--seconds", "0.6",
            "--trace", str(trace),
            "--scale", str(TINY),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, completed.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = declared("per_layer" if trace else "end_to_end")
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == wanted


def test_refuses_a_checkout_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-heavy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


# ----------------------------------------------------------------------
# An answer that differs from its reference is a failure
# ----------------------------------------------------------------------
class _Result(list):
    def __init__(self, metadata):
        super().__init__()
        self.metadata = metadata


def test_query_check_counts_a_digest_mismatch():
    digest = lambda result: "aaaa"  # noqa: E731
    assert worker.check(_Result({}), "aaaa", digest) is None
    assert "digest" in worker.check(_Result({}), "bbbb", digest)
    assert worker.check(_Result({"degraded": True}), "aaaa", digest)


def test_serve_tally_counts_mismatch_shed_error_and_degraded():
    tally = serve_load.Tally(["good"], expected=5)
    ok = {"status": "ok", "answer_digest": "good", "degraded": False}
    tally.record(ok, 0, 0.001)
    tally.record(dict(ok, answer_digest="bad"), 0, 0.001)
    tally.record(dict(ok, degraded=True), 0, 0.001)
    tally.record({"status": "shed", "shed_reason": "quota"}, 0, 0.001)
    tally.record({"status": "error", "error_type": "X", "error": "y"}, 0, 1)
    assert (tally.ok, tally.failed, tally.shed) == (1, 4, 1)


def test_live_verification_counts_a_tampered_answer(tmp_path):
    plan = inputs.build("live-updates", 2, tmp_path, TINY)
    from repro.obs import answer_digest

    relation = inputs.load(plan["relations"]["live_tuple_uu"])
    state = worker.LiveUpdates(
        plan, {"live_tuple_uu": relation}, answer_digest, 10
    )
    state.measure(0.05)
    assert state.verify()["failed"] == 0
    state.answers[0][1] = "0" * 16
    assert state.verify()["failed"] == 1


def test_query_heavy_crosscheck_agrees_with_the_vectorized_path(tmp_path):
    plan = inputs.build("query-heavy", 2, tmp_path, TINY)
    from repro.obs import answer_digest

    relations = {
        name: inputs.load(spec) for name, spec in plan["relations"].items()
    }
    state = worker.QueryHeavy(plan, relations, answer_digest, 10)
    assert state.verify() == {"crosscheck": []}


# ----------------------------------------------------------------------
# Inputs depend on the seed, and only on the seed
# ----------------------------------------------------------------------
def _inputs(directory, workload, seed) -> dict[str, bytes]:
    directory.mkdir()
    inputs.build(workload, seed, directory, TINY)
    files = {}
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        if path.name == "plan.json":
            plan = json.loads(data)
            for spec in plan["relations"].values():
                spec.pop("path")
            data = json.dumps(plan, sort_keys=True).encode()
        files[path.name] = data
    return files


@pytest.mark.parametrize("workload", list(inputs.GENERATORS))
def test_one_seed_gives_identical_inputs(tmp_path, workload):
    first = _inputs(tmp_path / "a", workload, 7)
    second = _inputs(tmp_path / "b", workload, 7)
    other = _inputs(tmp_path / "c", workload, 8)
    assert first == second
    for name in first:
        if name.endswith(".csv"):
            assert first[name] != other[name]


def test_serve_schedule_depends_on_the_seed():
    assert inputs.serve_schedule(3, 2.0) == inputs.serve_schedule(3, 2.0)
    assert inputs.serve_schedule(3, 2.0) != inputs.serve_schedule(4, 2.0)


def test_query_order_depends_on_the_seed(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = inputs.build("query-heavy", 3, tmp_path / "a", TINY)
    second = inputs.build("query-heavy", 4, tmp_path / "b", TINY)
    assert first["rounds"] != second["rounds"]
    assert sorted(first["rounds"][0]) == sorted(second["rounds"][0])


def test_write_stream_depends_on_the_seed(tmp_path):
    plan = inputs.build("live-updates", 1, tmp_path, TINY)
    relation = inputs.load(plan["relations"]["live_tuple_uu"])

    def stream(seed: str) -> list:
        mirror = Mirror(relation)
        rng = random.Random(seed)
        return [mirror.next_batch(rng, plan["batch"]) for _ in range(20)]

    assert stream("s1") == stream("s1")
    assert stream("s1") != stream("s2")


def test_default_seed_references_must_equal_the_committed_digests():
    import run

    committed = json.loads(
        (ROOT / "perfbench" / "reference_digests.json").read_text()
    )
    for workload, digests in committed.items():
        assert run.committed_problems(workload, digests) == []
        tampered = dict(digests)
        key = next(iter(tampered))
        tampered[key] = "0" * 16
        assert len(run.committed_problems(workload, tampered)) == 1
