"""End-to-end benchmark of the ranking engine, with per-layer attribution.

Usage::

    python3 perfbench/run.py --workload query-heavy --seed 0 \
        --seconds 15 --trace 0

Workloads: ``query-heavy``, ``serve-small``, ``live-updates`` (see
``perfbench/README.md``).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` makes a separate traced run and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    DEFAULT_SEED,
    ROOT,
    WORK,
    Metrics,
    checkout_ok,
    child_env,
    fresh_dir,
    median,
    percentile,
    use_source,
)

HERE = Path(__file__).resolve().parent
WORKLOADS = ("query-heavy", "serve-small", "live-updates")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: A child interpreter that outlives this is killed.
CHILD_SECONDS = 170.0


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="relation-size multiplier (the benchmark's own tests use "
        "a tiny scale; committed digests apply at 1.0 only)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    return args


class Child:
    """A worker interpreter read line by line, killed if it overruns."""

    def __init__(self, arguments: list[str]) -> None:
        self.launched = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, *arguments],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
        )
        self._watchdog = threading.Timer(CHILD_SECONDS, self.process.kill)
        self._watchdog.start()

    def read(self, event: str) -> tuple[dict, float]:
        """The next record of type ``event`` and when it arrived."""
        for raw in self.process.stdout:
            arrived = time.perf_counter()
            record = json.loads(raw)
            if record.get("event") == event:
                return record, arrived
        raise RuntimeError(
            f"worker exited with {self.process.wait()} before '{event}'"
        )

    def close(self) -> None:
        self._watchdog.cancel()
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdout.close()


def worker_run(plan_path: Path, mode: str, seconds: float):
    """Launch a worker; return (set-up seconds, ready, result)."""
    child = Child([str(HERE / "worker.py"), str(plan_path), mode,
                   str(seconds)])
    try:
        ready, arrived = child.read("ready")
        result = None if mode == "setup" else child.read("result")[0]
        return arrived - child.launched, ready, result
    finally:
        child.close()


def import_layers(metrics: Metrics) -> None:
    """Cold import times from fresh interpreters (median of three)."""
    probe = (
        "import json, time\n"
        "t0 = time.perf_counter(); import numpy\n"
        "t1 = time.perf_counter(); import repro\n"
        "t2 = time.perf_counter(); import repro.cli\n"
        "t3 = time.perf_counter()\n"
        "print(json.dumps([t1 - t0, t2 - t0, t3 - t0]))\n"
    )
    samples = []
    for _ in range(3):
        output = subprocess.run(
            [sys.executable, "-c", probe],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_SECONDS,
            check=True,
        ).stdout
        samples.append(json.loads(output.strip().splitlines()[-1]))
    numpy_s, repro_s, cli_s = (
        [sample[index] for sample in samples] for index in range(3)
    )
    metrics.timing("import.repro_s", repro_s, "s", 1.0)
    metrics.timing("import.repro_cli_s", cli_s, "s", 1.0)
    metrics.timing("import.numpy_s", numpy_s, "s", 1.0)
    metrics.put(
        "import.repro_over_numpy",
        median(repro_s) / median(numpy_s),
        "ratio",
        3,
    )


def latency_metrics(metrics: Metrics, latencies: list[float]) -> None:
    for name, q in (("p50", 0.5), ("p90", 0.9)):
        metrics.put(
            f"latency_{name}_ms",
            percentile(latencies, q) * 1e3,
            "ms",
            len(latencies),
        )


class Outcome:
    """What a workload run hands back to :func:`main`."""

    def __init__(self) -> None:
        self.metrics = Metrics()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.digests: dict = {}


def run_in_process(plan: dict, plan_path: Path, args) -> Outcome:
    """``query-heavy`` and ``live-updates``: a worker interpreter."""
    outcome = Outcome()
    metrics = outcome.metrics
    setups = []
    readies = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            seconds, ready, _ = worker_run(plan_path, "setup", args.seconds)
            setups.append(seconds)
            readies.append(ready["digests"])
    mode = "trace" if args.trace else "run"
    seconds, ready, result = worker_run(plan_path, mode, args.seconds)
    setups.append(seconds)
    readies.append(ready["digests"])
    if any(digests != readies[0] for digests in readies):
        outcome.problems.append("warm-up answers differ between set-ups")
    outcome.digests = dict(ready["digests"])
    if "step_digests" in result:
        outcome.digests["steps"] = result["step_digests"]
    outcome.attempted = result["ops"]
    outcome.failed = result["failed"]
    outcome.failures = result["failures"]
    outcome.problems += result["crosscheck"]
    if args.trace:
        untraced = result["untraced"]
        outcome.attempted += untraced["ops"]
        for name, (value, unit, samples) in result["layers"].items():
            metrics.put(name, value, unit, samples)
        import_layers(metrics)
        metrics.put(
            "trace.throughput_ratio",
            (result["ops"] / result["window"])
            / (untraced["ops"] / untraced["window"]),
            "ratio",
        )
        metrics.put(
            "trace.latency_p50_ratio",
            percentile(result["latencies"], 0.5)
            / percentile(untraced["latencies"], 0.5),
            "ratio",
        )
        return outcome
    good = result["ops"] - result["failed"]
    metrics.put("setup_s", median(setups), "s", len(setups))
    metrics.put(
        "throughput_ops_s", good / result["window"], "1/s", result["ops"]
    )
    latency_metrics(metrics, result["latencies"])
    metrics.put("success_ratio", good / result["ops"], "ratio",
                result["ops"])
    metrics.put("peak_rss_mb", result["rss_kb"] / 1024.0, "MB", 1)
    if "rounds" in result:
        outcome.notes.append(f"{result['rounds']} whole round(s) of calls")
    return outcome


def run_serve(plan: dict, plan_path: Path, args) -> Outcome:
    """``serve-small``: open loop against a ``repro serve`` subprocess."""
    import inputs
    import serve_load

    outcome = Outcome()
    metrics = outcome.metrics
    references, problems = serve_load.references(plan)
    outcome.problems += problems
    outcome.digests = {
        query["key"]: digest
        for query, digest in zip(plan["queries"], references)
    }
    window = args.seconds / 3 if args.trace else args.seconds
    encoded = serve_load.encode_bursts(
        inputs.serve_schedule(args.seed, window), plan["queries"]
    )
    requests = sum(len(ids) for *_, ids in encoded)
    coalescing = sum(len(ids) - 1 for *_, ids in encoded)
    outcome.notes.append(
        f"offered {inputs.SERVE_RATE:g} req/s: {requests} requests in "
        f"{len(encoded)} bursts over {window:g}s; "
        f"{coalescing / max(requests, 1):.1%} are followers of a burst"
    )

    def tally() -> "serve_load.Tally":
        return serve_load.Tally(references, requests)

    setups = []
    tcp = tally()
    server = None
    try:
        for _ in range(1 if args.trace else SETUPS):
            if server is not None:
                server.stop()
            server = serve_load.Server(plan)
            outcome.problems += serve_load.warm_up(
                server.port, plan["queries"], references
            )
            setups.append(time.perf_counter() - server.launched)
        asyncio.run(serve_load.tcp_window(server.port, encoded, tcp))
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    windows = [tcp]
    lag_p99 = percentile(tcp.lags, 0.99) * 1e3
    limit = inputs.SERVE_P99_LIMIT_MS
    if lag_p99 > inputs.SERVE_LAG_FRACTION * limit:
        outcome.notes.append(
            f"FLAG: generator p99 lag {lag_p99:.2f} ms exceeds "
            f"{inputs.SERVE_LAG_FRACTION:.0%} of the {limit:g} ms limit; "
            "this run's latencies are suspect"
        )

    if args.trace:
        from layers import engine_layers

        untraced, traced = tally(), tally()
        setup, recorder, problems = serve_load.traced_inprocess(
            plan, encoded, references, untraced, traced
        )
        outcome.problems += problems
        windows += [untraced, traced]
        engine_layers(metrics, setup, recorder)
        metrics.timing(
            "serve.admission.admit_us",
            [span.seconds for span in recorder.by_name(
                "serve.admission.admit")],
            "us",
            1e6,
        )
        metrics.put("serve.admission.shed", traced.shed, "count",
                    traced.expected)
        admitted = traced.expected - traced.shed
        metrics.put(
            "serve.coalesce.coalesced_ratio",
            traced.coalesced / admitted if admitted else 0.0,
            "ratio",
            admitted,
        )
        metrics.put(
            "serve.coalesce.leader_runs",
            len(recorder.by_name("engine.database.topk")),
            "count",
        )
        metrics.timing(
            "serve.core.submit_self_ms",
            recorder.aggregate_self(
                "serve.core.submit", "engine.database.topk"
            ),
            "ms",
            1e3,
        )
        metrics.timing(
            "serve.transport.handle_line_self_ms",
            recorder.self_seconds("serve.transport.handle_line"),
            "ms",
            1e3,
        )
        metrics.put(
            "serve.transport.tcp_overhead_ms",
            (percentile(tcp.latencies, 0.5)
             - percentile(untraced.latencies, 0.5)) * 1e3,
            "ms",
            len(tcp.latencies),
        )
        metrics.put("loadgen.lag_p99_ms", lag_p99, "ms", len(tcp.lags))
        metrics.put(
            "loadgen.latency_p99_ms",
            percentile(tcp.latencies, 0.99) * 1e3,
            "ms",
            len(tcp.latencies),
        )
        metrics.put(
            "trace.throughput_ratio",
            traced.throughput() / untraced.throughput(),
            "ratio",
        )
        metrics.put(
            "trace.latency_p50_ratio",
            percentile(traced.latencies, 0.5)
            / percentile(untraced.latencies, 0.5),
            "ratio",
        )
        import_layers(metrics)
    else:
        metrics.put("setup_s", median(setups), "s", len(setups))
        metrics.put("throughput_ops_s", tcp.throughput(), "1/s", requests)
        latency_metrics(metrics, tcp.latencies)
        metrics.put("success_ratio", tcp.ok / requests, "ratio", requests)
        metrics.put("peak_rss_mb", rss, "MB", 1)
        p99 = percentile(tcp.latencies, 0.99) * 1e3
        outcome.notes.append(
            f"p99 latency {p99:.2f} ms against the {limit:g} ms limit "
            f"(n={len(tcp.latencies)})"
        )
        if p99 > limit:
            outcome.notes.append(
                f"FLAG: p99 {p99:.2f} ms is over the {limit:g} ms limit"
            )
    for window_tally in windows:
        outcome.attempted += window_tally.expected
        outcome.failed += window_tally.failed
        outcome.failures += window_tally.failures
    return outcome


def committed_problems(workload: str, digests: dict) -> list[str]:
    """Compare the default seed's references with the committed ones."""
    committed = json.loads(
        (HERE / "reference_digests.json").read_text()
    )[workload]
    problems = []
    for key, wanted in committed.items():
        found = digests.get(key)
        if key == "steps":
            found = (found or [])[: len(wanted)]
            if len(found) < len(wanted):
                # A short window checks the steps it reached.
                wanted = wanted[: len(found)]
        if found != wanted:
            problems.append(
                f"reference {key}: {json.dumps(found)} != committed "
                f"{json.dumps(wanted)}"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if not checkout_ok():
        print(
            f"error: no program sources under {ROOT / 'src' / 'repro'}; "
            "run from a full checkout",
            file=sys.stderr,
        )
        return 2
    use_source()
    import inputs
    from layers import END_TO_END, PER_LAYER, fill_missing

    directory = fresh_dir(WORK / f"{args.workload}-{args.seed}")
    plan = inputs.build(args.workload, args.seed, directory, args.scale)
    plan_path = directory / "plan.json"
    runner = run_serve if args.workload == "serve-small" else run_in_process
    outcome = runner(plan, plan_path, args)
    if args.seed == DEFAULT_SEED and args.scale == 1.0:
        outcome.problems += committed_problems(args.workload, outcome.digests)

    names = [name for name, _ in (PER_LAYER if args.trace else END_TO_END)]
    if args.trace:
        fill_missing(outcome.metrics)
    print(
        f"perfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} scale={args.scale:g}"
    )
    for note in outcome.notes:
        print(f"  {note}")
    print("\n".join(outcome.metrics.report_lines(names)))
    for failure in outcome.failures:
        print(f"  FAILED: {failure}")
    for problem in outcome.problems:
        print(f"  CHECK FAILED: {problem}")
    correct = (
        outcome.attempted > 0 and outcome.failed == 0 and not outcome.problems
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(outcome.attempted, 1),
                "failed": outcome.failed,
                "metrics": outcome.metrics.json_block(names),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
