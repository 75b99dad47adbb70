"""One fresh interpreter running an in-process workload.

Usage: ``python3 perfbench/worker.py PLAN.json setup|run|trace SECONDS``

The worker imports the program, loads the workload's CSV files through
``repro.engine.io``, builds the catalog or store, calls every distinct
query once, and prints a ``ready`` line: the parent times set-up from
launching this interpreter to that line.  ``setup`` stops there.  ``run``
then measures the closed loop for SECONDS and prints a ``result`` line;
``trace`` measures half the window untraced and half traced.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def main() -> int:
    plan_path, mode, seconds = sys.argv[1], sys.argv[2], float(sys.argv[3])
    with open(plan_path) as handle:
        plan = json.load(handle)

    from repro.obs import answer_digest

    from common import K
    from inputs import load
    from tracing import Recorder, install_engine

    setup = Recorder()
    relations = {}
    models = {}

    def model_of(relation) -> str:
        return models.get(id(relation), "tuple.uu")

    if mode == "trace":
        install_engine(setup, model_of)
    for name, spec in plan["relations"].items():
        relation = load(spec)
        relations[name] = relation
        models[id(relation)] = f"{spec['model']}.{spec['distribution']}"
    setup.uninstall()

    workload = QueryHeavy if plan["workload"] == "query-heavy" else LiveUpdates
    state = workload(plan, relations, answer_digest, K)
    emit({"event": "ready", "digests": state.references})
    if mode == "setup":
        return 0

    if mode == "run":
        result = state.measure(seconds)
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        untraced = state.measure(seconds / 2)
        window = Recorder()
        install_engine(window, model_of)
        state.install(window)
        traced = state.measure(seconds / 2)
        window.uninstall()
        result = traced
        result["untraced"] = {
            key: untraced[key] for key in ("ops", "window", "latencies")
        }
        result["layers"] = state.layers(setup, window)
        result["failed"] += untraced["failed"]
        result["failures"] = untraced["failures"] + result["failures"]
    result.update(state.verify())
    emit({"event": "result", **result})
    return 0


class QueryHeavy:
    """Closed loop over a seeded shuffle of cells on fixed relations."""

    def __init__(self, plan, relations, digest, k) -> None:
        from repro.engine.database import ProbabilisticDatabase

        self.k = k
        self.digest = digest
        self.cells = plan["cells"]
        self.rounds = plan["rounds"]
        self.next_round = 0
        self.relations = relations
        self.db = ProbabilisticDatabase()
        for name, relation in relations.items():
            self.db.create_relation(name, relation)
        self.references = {
            cell["key"]: digest(self._call(cell)) for cell in self.cells
        }

    def _call(self, cell):
        return self.db.topk(
            cell["relation"], self.k, cell["method"], **cell["options"]
        )

    def install(self, recorder) -> None:
        pass

    def measure(self, seconds: float) -> dict:
        """Whole rounds until the next would overrun ``seconds`` by half."""
        latencies = []
        failures = []
        start = time.perf_counter()
        rounds = 0
        while True:
            order = self.rounds[self.next_round % len(self.rounds)]
            self.next_round += 1
            for index in order:
                cell = self.cells[index]
                began = time.perf_counter()
                result = self._call(cell)
                latencies.append(time.perf_counter() - began)
                reason = check(result, self.references[cell["key"]],
                               self.digest)
                if reason:
                    failures.append(f"{cell['key']}: {reason}")
            rounds += 1
            elapsed = time.perf_counter() - start
            round_seconds = elapsed / rounds
            if elapsed + round_seconds / 2 >= seconds:
                break
        return {
            "ops": len(latencies),
            "window": time.perf_counter() - start,
            "latencies": latencies,
            "failed": len(failures),
            "failures": failures[:5],
            "rounds": rounds,
        }

    def layers(self, setup, window) -> dict:
        from common import Metrics
        from layers import engine_layers

        metrics = Metrics()
        engine_layers(metrics, setup, window)
        return metrics.values

    def verify(self) -> dict:
        """Cross-check exact expected ranks against the vectorized path."""
        problems = []
        for cell in self.cells:
            if cell["method"] != "expected_rank":
                continue
            relation = self.relations[cell["relation"]]
            problem = crosscheck_expected_rank(
                relation, self._call(cell), self.k
            )
            if problem:
                problems.append(f"{cell['key']}: {problem}")
        return {"crosscheck": problems}


class LiveUpdates:
    """Closed loop of write batches, each followed by view reads."""

    def __init__(self, plan, relations, digest, k) -> None:
        from repro.engine.maintenance import MaintainedTupleStore
        from repro.engine.views import RankingView

        (self.relation,) = relations.values()
        self.k = k
        self.digest = digest
        self.plan = plan
        self.store = MaintainedTupleStore.from_relation(self.relation)
        self.views = [
            RankingView(self.store, k, method) for method in plan["methods"]
        ]
        self.mirror = None
        self.rng = random.Random(plan["write_seed"])
        self.steps: list[list] = []
        self.answers: list[list[str]] = []
        self.references = {
            f"{method}@0": digest(view.current())
            for method, view in zip(plan["methods"], self.views)
        }

    def install(self, recorder) -> None:
        from tracing import install_live

        install_live(recorder)
        self.refreshes_before = sum(view.refresh_count for view in self.views)
        self.reads_before = len(self.answers) * len(self.views)

    def measure(self, seconds: float) -> dict:
        from live import Mirror, apply

        if self.mirror is None:
            self.mirror = Mirror(self.relation)
        latencies = []
        batch = self.plan["batch"]
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            writes = self.mirror.next_batch(self.rng, batch)
            began = time.perf_counter()
            apply(self.store, writes)
            results = [view.current() for view in self.views]
            latencies.append(time.perf_counter() - began)
            self.steps.append(writes)
            self.answers.append(
                [
                    self.digest(result)
                    + ("!degraded" if result.metadata.get("degraded") else "")
                    for result in results
                ]
            )
        return {
            "ops": len(latencies),
            "window": time.perf_counter() - start,
            "latencies": latencies,
            "failed": 0,
            "failures": [],
        }

    def layers(self, setup, window) -> dict:
        from common import Metrics
        from layers import engine_layers, live_layers

        metrics = Metrics()
        engine_layers(metrics, setup, window)
        reads = len(self.answers) * len(self.views) - self.reads_before
        refreshes = (
            sum(view.refresh_count for view in self.views)
            - self.refreshes_before
        )
        live_layers(metrics, window, reads, refreshes)
        return metrics.values

    def verify(self) -> dict:
        """Replay the writes on the mirror and rank each state directly.

        Every timed read must equal, digest for digest, the answer of
        ``rank`` on the relation the mirror rebuilds for that step; every
        tenth state also cross-checks exact expected ranks against the
        vectorized path.
        """
        from repro.core.semantics import rank

        from live import Mirror

        mirror = Mirror(self.relation)
        rng = random.Random(self.plan["write_seed"])
        failures = []
        problems = []
        step_digests = []
        initial = mirror.relation()
        for method in self.plan["methods"]:
            found = self.digest(rank(initial, self.k, method=method))
            if found != self.references[f"{method}@0"]:
                failures.append(f"step 0 {method}: warm-up answer differs")
        for step, (writes, answers) in enumerate(
            zip(self.steps, self.answers), start=1
        ):
            if mirror.next_batch(rng, self.plan["batch"]) != writes:
                failures.append(f"step {step}: write stream not reproducible")
                break
            relation = mirror.relation()
            expected = []
            for method in self.plan["methods"]:
                result = rank(relation, self.k, method=method)
                expected.append(self.digest(result))
                if method == "expected_rank" and step % 10 == 1:
                    problem = crosscheck_expected_rank(
                        relation, result, self.k
                    )
                    if problem:
                        problems.append(f"step {step}: {problem}")
            step_digests.append(expected)
            if answers != expected:
                failures.append(f"step {step}: {answers} != {expected}")
        return {
            "failed": len(failures),
            "failures": failures[:5],
            "crosscheck": problems,
            "step_digests": step_digests[:20],
        }


def check(result, reference: str, digest) -> str | None:
    """Why a timed answer fails, or ``None``."""
    if result.metadata.get("degraded", False):
        return "degraded answer"
    found = digest(result)
    if found != reference:
        return f"answer digest {found} != reference {reference}"
    return None


def crosscheck_expected_rank(relation, result, k: int) -> str | None:
    """Compare an exact expected-rank answer with the vectorized kernel."""
    from repro.core.attr_expected_rank import (
        attribute_expected_ranks_vectorized,
    )
    from repro.core.tuple_expected_rank import tuple_expected_ranks_vectorized
    from repro.models.attribute import AttributeLevelRelation

    vectorized = (
        attribute_expected_ranks_vectorized
        if isinstance(relation, AttributeLevelRelation)
        else tuple_expected_ranks_vectorized
    )(relation)
    best = sorted(vectorized.items(), key=lambda item: item[1])[:k]
    answer = [(item.tid, item.statistic) for item in result]
    if [tid for tid, _ in best] != [tid for tid, _ in answer]:
        return "top-k ids differ from the vectorized expected ranks"
    for (_, wanted), (_, got) in zip(best, answer):
        if abs(wanted - got) > 1e-9 * max(1.0, abs(wanted)):
            return f"expected rank {got!r} != vectorized {wanted!r}"
    return None


if __name__ == "__main__":
    sys.exit(main())
