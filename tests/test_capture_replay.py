"""Workload capture and deterministic replay."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core import rank
from repro.engine.database import ProbabilisticDatabase
from repro.engine.io import save_attribute_csv
from repro.engine.query import ResilientExecutor
from repro.obs.capture import (
    CAPTURE_SCHEMA_VERSION,
    CaptureLog,
    answer_digest,
    read_jsonl,
    relation_digest,
    set_capture,
)
from repro.obs.capture import query_context
from repro.obs.replay import (
    EXIT_PARTIAL_INPUT,
    EXIT_REPLAY_REGRESSION,
    replay_capture,
)
from repro.robust import FaultInjector, RetryPolicy


@pytest.fixture
def attribute_csv(fig2, tmp_path):
    path = tmp_path / "attr.csv"
    save_attribute_csv(fig2, path)
    return path


@pytest.fixture
def capture_log(tmp_path):
    """A fresh ambient CaptureLog, uninstalled afterwards."""
    path = tmp_path / "capture.jsonl"
    log = CaptureLog(path)
    previous = set_capture(log)
    yield log, path
    set_capture(previous)
    log.close()


def _records(path):
    return [
        json.loads(line) for line in path.read_text().splitlines()
    ]


class TestCaptureLog:
    def test_record_fields_and_sequence(self, fig2, capture_log):
        log, path = capture_log
        first = rank(fig2, 2)
        second = rank(fig2, 3, method="expected_score")
        log.record_query(fig2, first, k=2, method="expected_rank")
        log.record_query(
            fig2, second, k=3, method="expected_score"
        )
        log.close()
        records = _records(path)
        assert [r["seq"] for r in records] == [0, 1]
        record = records[0]
        assert record["type"] == "query"
        assert record["schema_version"] == CAPTURE_SCHEMA_VERSION
        assert record["model"] == "attribute"
        assert record["n"] == fig2.size
        assert record["dataset_digest"] == relation_digest(fig2)
        assert record["k"] == 2
        assert record["method"] == "expected_rank"
        assert record["answer"] == list(first.tids())
        assert record["answer_digest"] == answer_digest(first)
        assert record["replayable"] is True
        assert record["degraded"] is False
        assert record["plan"]["method"] == "expected_rank"

    def test_dataset_digest_survives_round_trip(
        self, fig2, tmp_path
    ):
        from repro.engine.io import (
            load_attribute_csv,
            load_json,
            save_json,
        )

        path = tmp_path / "rel.json"
        save_json(fig2, path)
        assert relation_digest(load_json(path)) == relation_digest(
            fig2
        )
        # CSV coerces values to float, which is a different document;
        # but two loads of the same CSV must agree with each other.
        csv_path = tmp_path / "rel.csv"
        save_attribute_csv(fig2, csv_path)
        assert relation_digest(
            load_attribute_csv(csv_path)
        ) == relation_digest(load_attribute_csv(csv_path))

    def test_answer_digest_ignores_ulp_noise(self, fig2):
        result = rank(fig2, 3)
        baseline = answer_digest(result)
        # Same ranking, statistics perturbed below the 9-sig-digit
        # rounding: the digest must not move.
        from repro.core.result import RankedItem, TopKResult

        jittered = TopKResult(
            method=result.method,
            k=result.k,
            items=tuple(
                RankedItem(
                    tid=item.tid,
                    position=item.position,
                    statistic=None
                    if item.statistic is None
                    else item.statistic * (1 + 1e-14),
                )
                for item in result
            ),
            metadata=dict(result.metadata),
        )
        assert answer_digest(jittered) == baseline

    def test_unseeded_monte_carlo_not_replayable(
        self, fig2, capture_log
    ):
        log, path = capture_log
        result = rank(fig2, 2, method="monte_carlo")
        log.record_query(fig2, result, k=2, method="monte_carlo")
        log.close()
        assert _records(path)[0]["replayable"] is False


class TestQueryCaptureClaim:
    def test_outermost_layer_wins(self, fig2, capture_log):
        log, path = capture_log
        with query_context(fig2, 2) as outer:
            assert outer is not None
            with query_context(fig2, 2) as inner:
                assert inner is None
            outer.finish(rank(fig2, 2))
        # The claim is released: the next query records again.
        with query_context(fig2, 2) as again:
            assert again is not None
        log.close()
        assert len(_records(path)) == 1

    def test_none_when_uninstalled(self, fig2):
        with query_context(fig2, 2) as query:
            assert query is None

    def test_database_topk_records_once(self, fig2, capture_log):
        log, path = capture_log
        db = ProbabilisticDatabase()
        db.create_relation("r", fig2)
        db.topk("r", 2, executor=ResilientExecutor())
        log.close()
        records = _records(path)
        assert len(records) == 1
        assert records[0]["relation"] == "r"
        # The executor path embedded its replayable configuration.
        assert records[0]["resilience"]["max_retries"] == 3


class TestReplay:
    def test_clean_replay_is_exit_zero(self, fig2, tmp_path):
        path = tmp_path / "capture.jsonl"
        with CaptureLog(path) as log:
            for k in (1, 2, 3):
                log.record_query(
                    fig2, rank(fig2, k), k=k, method="expected_rank"
                )
        report = replay_capture(path, fig2)
        assert report.counts() == {"ok": 3}
        assert report.exit_code() == 0

    def test_answer_regression_detected(self, fig2, tmp_path):
        path = tmp_path / "capture.jsonl"
        with CaptureLog(path) as log:
            log.record_query(
                fig2, rank(fig2, 2), k=2, method="expected_rank"
            )
        records = _records(path)
        records[0]["answer_digest"] = "deadbeefdeadbeef"
        path.write_text(
            "\n".join(json.dumps(r) for r in records) + "\n"
        )
        report = replay_capture(path, fig2)
        assert report.counts() == {"answer_regression": 1}
        assert report.exit_code() == EXIT_REPLAY_REGRESSION

    def test_dataset_mismatch_degrades(self, fig2, fig4, tmp_path):
        path = tmp_path / "capture.jsonl"
        with CaptureLog(path) as log:
            log.record_query(
                fig2, rank(fig2, 2), k=2, method="expected_rank"
            )
        report = replay_capture(path, fig4)
        assert report.counts() == {"dataset_mismatch": 1}
        assert report.exit_code() == EXIT_PARTIAL_INPUT

    def test_corrupt_line_degrades_not_crashes(
        self, fig2, tmp_path
    ):
        path = tmp_path / "capture.jsonl"
        with CaptureLog(path) as log:
            log.record_query(
                fig2, rank(fig2, 2), k=2, method="expected_rank"
            )
        with path.open("a") as handle:
            handle.write('{"type": "query", "seq": 1, "met')
        report = replay_capture(path, fig2)
        assert report.counts() == {"ok": 1}
        assert len(report.problems) == 1
        assert report.exit_code() == EXIT_PARTIAL_INPUT

    def test_non_replayable_record_skipped(self, fig2, tmp_path):
        path = tmp_path / "capture.jsonl"
        with CaptureLog(path) as log:
            log.record_query(
                fig2,
                rank(fig2, 2, method="monte_carlo"),
                k=2,
                method="monte_carlo",
            )
        report = replay_capture(path, fig2)
        assert report.counts() == {"skipped": 1}
        assert report.exit_code() == EXIT_PARTIAL_INPUT

    def test_replayed_error_is_a_verdict(self, fig2, tmp_path):
        path = tmp_path / "capture.jsonl"
        record = {
            "type": "query",
            "seq": 0,
            "k": 2,
            "method": "no_such_method",
            "answer_digest": "0" * 16,
            "dataset_digest": relation_digest(fig2),
        }
        path.write_text(json.dumps(record) + "\n")
        report = replay_capture(path, fig2)
        assert report.counts() == {"error": 1}
        assert report.exit_code() == EXIT_REPLAY_REGRESSION


class TestReplayDeterminism:
    def _chaos_capture(self, fig2, path, seed=3):
        executor = ResilientExecutor(
            retry=RetryPolicy(
                max_retries=4, base_delay=0.0, max_delay=0.0
            ),
            injector=FaultInjector(error_rate=0.2, seed=seed),
            seed=seed,
        )
        log = CaptureLog(path)
        previous = set_capture(log)
        try:
            for k in (1, 2, 3):
                executor.execute(fig2, k, method="expected_rank")
        finally:
            set_capture(previous)
            log.close()

    def test_same_seed_same_digests_twice(
        self, fig2, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT_SEED", "3")
        path = tmp_path / "chaos.jsonl"
        self._chaos_capture(fig2, path)
        first = replay_capture(path, fig2)
        second = replay_capture(path, fig2)
        assert first.counts() == {"ok": 3}
        assert [r.digest_replayed for r in first.results] == [
            r.digest_replayed for r in second.results
        ]
        assert [r.digest_replayed for r in first.results] == [
            r.digest_recorded for r in first.results
        ]


class TestCaptureCli:
    def test_topk_capture_out(self, attribute_csv, tmp_path, capsys):
        out = tmp_path / "cap.jsonl"
        code = main(
            [
                "topk",
                str(attribute_csv),
                "-k",
                "2",
                "--capture-out",
                str(out),
            ]
        )
        assert code == 0
        records, problems = read_jsonl(out)
        assert problems == []
        assert len(records) == 1
        assert records[0]["relation"] == str(attribute_csv)
        assert records[0]["k"] == 2
        # Stdout is identical to an uncaptured run.
        captured_out = capsys.readouterr().out
        assert main(["topk", str(attribute_csv), "-k", "2"]) == 0
        assert capsys.readouterr().out == captured_out

    def test_capture_command_then_replay(
        self, attribute_csv, tmp_path, capsys
    ):
        workload = tmp_path / "workload.jsonl"
        workload.write_text(
            '{"k": 2, "method": "expected_rank"}\n'
            '{"k": 3, "method": "expected_score"}\n'
        )
        out = tmp_path / "cap.jsonl"
        code = main(
            [
                "capture",
                str(attribute_csv),
                str(workload),
                "--capture-out",
                str(out),
            ]
        )
        assert code == 0
        assert "captured 2 queries" in capsys.readouterr().out
        code = main(
            ["replay", str(attribute_csv), str(out), "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["counts"] == {"ok": 2}

    def test_capture_requires_capture_out(
        self, attribute_csv, tmp_path, capsys
    ):
        workload = tmp_path / "workload.jsonl"
        workload.write_text('{"k": 2}\n')
        code = main(
            ["capture", str(attribute_csv), str(workload)]
        )
        assert code == 2
        assert "--capture-out" in capsys.readouterr().err

    def test_replay_regression_exit_code(
        self, attribute_csv, tmp_path, capsys
    ):
        out = tmp_path / "cap.jsonl"
        assert (
            main(
                [
                    "topk",
                    str(attribute_csv),
                    "--capture-out",
                    str(out),
                ]
            )
            == 0
        )
        records, _ = read_jsonl(out)
        records[0]["answer_digest"] = "deadbeefdeadbeef"
        out.write_text(
            "\n".join(json.dumps(r) for r in records) + "\n"
        )
        code = main(["replay", str(attribute_csv), str(out)])
        capsys.readouterr()
        assert code == EXIT_REPLAY_REGRESSION

    def test_replay_corrupt_line_warns_exit_12(
        self, attribute_csv, tmp_path, capsys
    ):
        out = tmp_path / "cap.jsonl"
        assert (
            main(
                [
                    "topk",
                    str(attribute_csv),
                    "--capture-out",
                    str(out),
                ]
            )
            == 0
        )
        with out.open("a") as handle:
            handle.write("{not json")
        code = main(["replay", str(attribute_csv), str(out)])
        streams = capsys.readouterr()
        assert code == EXIT_PARTIAL_INPUT
        assert "warning:" in streams.err

    def test_capture_max_bytes_truncates(
        self, attribute_csv, tmp_path, capsys
    ):
        workload = tmp_path / "workload.jsonl"
        workload.write_text('{"k": 2}\n' * 10)
        out = tmp_path / "cap.jsonl"
        code = main(
            [
                "capture",
                str(attribute_csv),
                str(workload),
                "--capture-out",
                str(out),
                "--capture-max-bytes",
                "600",
            ]
        )
        assert code == 0
        streams = capsys.readouterr()
        assert "--capture-max-bytes" in streams.err
        records, problems = read_jsonl(out)
        assert problems == []
        assert records[-1]["type"] == "truncation_notice"

    def test_negative_capture_max_bytes_rejected(
        self, attribute_csv, tmp_path, capsys
    ):
        code = main(
            [
                "topk",
                str(attribute_csv),
                "--capture-out",
                str(tmp_path / "cap.jsonl"),
                "--capture-max-bytes",
                "-1",
            ]
        )
        assert code == 2
        assert "positive" in capsys.readouterr().err

    def test_capture_out_directory_must_exist(
        self, attribute_csv, tmp_path, capsys
    ):
        code = main(
            [
                "topk",
                str(attribute_csv),
                "--capture-out",
                str(tmp_path / "ghost" / "cap.jsonl"),
            ]
        )
        assert code == 2
        assert "does not exist" in capsys.readouterr().err
