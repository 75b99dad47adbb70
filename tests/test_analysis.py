"""Tests for the :mod:`repro.analysis` invariant linter.

Three layers of defence:

* fixture pairs — every rule has a ``*_bad.py`` file whose planted
  violations are asserted *exactly* (line and code), and a
  ``*_good.py`` twin proving the rule's exemptions hold;
* machinery — suppression directives, module scoping, alias
  resolution, the baseline round-trip, and the CLI exit codes;
* the self-check — the repo's own ``src`` tree must be clean under
  the checked-in ``analysis_baseline.json``, and every baseline
  entry must carry a written reason.
"""

from __future__ import annotations

import ast
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.analysis import (
    analyze_file,
    analyze_paths,
    analyze_source,
    load_baseline,
    rules_by_code,
    write_baseline,
)
from repro.analysis import cli as analysis_cli
from repro.analysis.cache import AnalysisCache
from repro.analysis.callgraph import ProjectIndex
from repro.analysis.cfg import Dataflow, statement_bindings
from repro.analysis.context import ModuleContext
from repro.analysis.engine import RunStats

FIXTURES = Path(__file__).parent / "analysis_fixtures"
REPO_ROOT = Path(__file__).resolve().parents[1]

#: Exact planted violations per bad fixture: the lines that must
#: fire, in order.  A drifting rule fails loudly here.
EXPECTED_LINES = {
    "RPR001": (8, 9, 10, 11, 12),
    "RPR002": (5, 9, 13),
    "RPR003": (7, 13, 17, 22, 29),
    "RPR004": (6, 7, 8),
    "RPR005": (7, 14, 21),
    "RPR006": (5, 9, 14),
    "RPR007": (5, 6),
    "RPR008": (4, 9, 9),
    "RPR009": (9, 10, 11),
    "RPR010": (11, 15, 17),
    "RPR011": (7, 8, 9, 10, 14),
    "RPR012": (11, 16, 22, 26),
    "RPR013": (8, 9),
    "RPR014": (11, 12, 13, 14),
    "RPR015": (9, 15, 23),
    "RPR016": (11, 12, 18, 19),
}


def findings_for(name: str):
    return analyze_file(FIXTURES / name)


class TestFixturePairs:
    @pytest.mark.parametrize("code", sorted(EXPECTED_LINES))
    def test_bad_fixture_fires_exactly(self, code):
        findings = findings_for(f"{code.lower()}_bad.py")
        assert [(f.line, f.code) for f in findings] == [
            (line, code) for line in EXPECTED_LINES[code]
        ]

    @pytest.mark.parametrize("code", sorted(EXPECTED_LINES))
    def test_good_fixture_is_clean(self, code):
        assert findings_for(f"{code.lower()}_good.py") == []

    def test_every_rule_has_a_fixture_pair(self):
        assert set(EXPECTED_LINES) == set(rules_by_code())

    def test_messages_name_the_remedy(self):
        by_code = {
            code: " | ".join(
                finding.message
                for finding in findings_for(f"{code.lower()}_bad.py")
            )
            for code in EXPECTED_LINES
        }
        assert "seed" in by_code["RPR001"]
        assert "math.isclose" in by_code["RPR002"]
        assert "AccessCounter" in by_code["RPR003"]
        assert "monotonic" in by_code["RPR004"]
        assert "repro.exceptions" in by_code["RPR005"]
        assert "sorted()" in by_code["RPR006"]
        assert "get_registry()" in by_code["RPR007"]
        assert "None" in by_code["RPR008"]
        assert "run_in_executor" in by_code["RPR009"]
        assert "repro.obs.logging" in by_code["RPR010"]
        assert "query_context" in by_code["RPR011"]
        assert "alias" in by_code["RPR012"]
        assert "run_in_executor" in by_code["RPR013"]
        assert "await" in by_code["RPR014"]
        assert "finally" in by_code["RPR015"]
        assert "threading.Lock" in by_code["RPR016"]

    def test_rpr013_message_names_the_full_chain(self):
        findings = findings_for("rpr013_bad.py")
        chains = [finding.message for finding in findings]
        assert "relay -> nap -> time.sleep" in chains[0]
        assert "prepare -> load -> open" in chains[1]


class TestEngine:
    def test_syntax_error_is_rpr000_not_a_crash(self):
        findings = analyze_source("def broken(:\n", "bad.py")
        assert [f.code for f in findings] == ["RPR000"]
        assert "does not parse" in findings[0].message

    def test_finding_format_is_grep_friendly(self):
        finding = analyze_source(
            "import random\nrandom.random()\n", "pkg/mod.py"
        )[0]
        assert finding.format().startswith("pkg/mod.py:2:1: RPR001 ")

    def test_alias_import_cannot_dodge_rpr001(self):
        findings = analyze_source(
            "import random as rnd\nrnd.shuffle([1])\n", "mod.py"
        )
        assert [f.code for f in findings] == ["RPR001"]

    def test_select_subset_of_rules(self):
        source = "import random\nrandom.random()\nx = [i for i in {1}]\n"
        only_006 = analyze_source(
            source, "mod.py", rules=[rules_by_code()["RPR006"]]
        )
        assert [f.code for f in only_006] == ["RPR006"]

    def test_analyze_paths_rejects_missing_path(self):
        with pytest.raises(FileNotFoundError):
            analyze_paths(["no/such/tree"])


class TestScoping:
    def test_rpr003_only_applies_to_engine_modules(self):
        source = "def f(relation):\n    return [r for r in relation]\n"
        outside = analyze_source(source, "src/repro/models/x.py")
        inside = analyze_source(source, "src/repro/engine/x.py")
        assert [f.code for f in outside] == []
        assert [f.code for f in inside] == ["RPR003"]

    def test_module_directive_pins_identity(self):
        source = (
            "# repro: module repro.engine.pinned\n"
            "def f(relation):\n"
            "    return [r for r in relation]\n"
        )
        findings = analyze_source(source, "anywhere/at/all.py")
        assert [f.code for f in findings] == ["RPR003"]

    def test_rpr005_exempts_the_robust_package(self):
        source = (
            "def f(action):\n"
            "    try:\n"
            "        return action()\n"
            "    except Exception:\n"
            "        return None\n"
        )
        robust = analyze_source(source, "src/repro/robust/retry.py")
        other = analyze_source(source, "src/repro/engine/query.py")
        assert [f.code for f in robust] == []
        assert [f.code for f in other] == ["RPR005"]

    def test_rpr007_exempts_the_metrics_module_itself(self):
        source = (
            "from repro.obs.metrics import Counter\n"
            "c = Counter('x')\n"
        )
        home = analyze_source(source, "src/repro/obs/metrics.py")
        away = analyze_source(source, "src/repro/obs/report.py")
        assert [f.code for f in home] == []
        assert [f.code for f in away] == ["RPR007"]


class TestSuppression:
    def test_same_line_noqa(self):
        source = (
            "import random\n"
            "random.random()  # repro: noqa RPR001\n"
        )
        assert analyze_source(source, "mod.py") == []

    def test_comment_line_above(self):
        source = (
            "import random\n"
            "# seeded upstream  # repro: noqa RPR001\n"
            "random.random()\n"
        )
        assert analyze_source(source, "mod.py") == []

    def test_code_list_and_blanket_forms(self):
        listed = (
            "import random\n"
            "random.random()  # repro: noqa RPR001, RPR004\n"
        )
        blanket = "import random\nrandom.random()  # repro: noqa\n"
        assert analyze_source(listed, "mod.py") == []
        assert analyze_source(blanket, "mod.py") == []

    def test_wrong_code_does_not_suppress(self):
        source = (
            "import random\n"
            "random.random()  # repro: noqa RPR004\n"
        )
        findings = analyze_source(source, "mod.py")
        assert [f.code for f in findings] == ["RPR001"]

    def test_code_two_lines_up_does_not_suppress(self):
        source = (
            "# repro: noqa RPR001\n"
            "import random\n"
            "random.random()\n"
        )
        findings = analyze_source(source, "mod.py")
        assert [f.code for f in findings] == ["RPR001"]


def _context(source: str, path: str = "repro/mod.py") -> ModuleContext:
    return ModuleContext(path, source, ast.parse(source))


def _scope(ctx: ModuleContext, name: str):
    for node in ast.walk(ctx.tree):
        if (
            isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            )
            and node.name == name
        ):
            return node
    raise AssertionError(f"no def {name}")


class TestControlFlow:
    def _leaks(self, body: str) -> bool:
        """Whether the claim on the first line can escape the resets."""
        ctx = _context(f"def f(run, ready):\n{body}")
        flow = Dataflow(_scope(ctx, "f"))
        claim = None
        resets = set()
        for node in flow.cfg.nodes:
            text = (
                ast.unparse(node.statement)
                if node.statement is not None
                and isinstance(node.statement, ast.stmt)
                else ""
            )
            if "cv.set" in text and claim is None:
                claim = node
            if "cv.reset" in text:
                resets.add(node)
        assert claim is not None
        if not resets:
            return True
        return flow.cfg.escaping_path_exists(claim, resets)

    def test_straight_line_claim_leaks_via_implicit_raise(self):
        assert self._leaks(
            "    token = cv.set(1)\n"
            "    run()\n"
            "    cv.reset(token)\n"
        )

    def test_try_finally_does_not_leak(self):
        assert not self._leaks(
            "    token = cv.set(1)\n"
            "    try:\n"
            "        run()\n"
            "    finally:\n"
            "        cv.reset(token)\n"
        )

    def test_early_return_leaks(self):
        assert self._leaks(
            "    token = cv.set(1)\n"
            "    if ready:\n"
            "        return\n"
            "    cv.reset(token)\n"
        )

    def test_reset_on_both_branches_does_not_leak(self):
        assert not self._leaks(
            "    token = cv.set(1)\n"
            "    if ready:\n"
            "        cv.reset(token)\n"
            "    else:\n"
            "        cv.reset(token)\n"
        )

    def test_tuple_unpacking_pairs_elementwise(self):
        statement = ast.parse("a, b = x, y").body[0]
        pairs = {
            name: ast.unparse(value) if value is not None else None
            for name, value in statement_bindings(statement)
        }
        assert pairs == {"a": "x", "b": "y"}

    def test_starred_unpacking_is_unknowable(self):
        statement = ast.parse("a, *b = items").body[0]
        pairs = dict(statement_bindings(statement))
        assert pairs == {"a": None, "b": None}

    def test_with_as_binds_the_context_expression(self):
        statement = ast.parse("with open(p) as fh:\n    pass").body[0]
        pairs = {
            name: ast.unparse(value)
            for name, value in statement_bindings(statement)
        }
        assert pairs == {"fh": "open(p)"}


class TestAliasResolution:
    def _targets(self, source: str):
        """Resolve the spelled callee of the last call in ``f``."""
        ctx = _context(source)
        calls = [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.Call)
        ]
        targets, unknown = ctx.resolve_targets(calls[-1].func)
        return set(targets), unknown

    def test_local_alias_resolves(self):
        targets, unknown = self._targets(
            "import time\n"
            "def f():\n"
            "    t = time.time\n"
            "    return t()\n"
        )
        assert targets == {"time.time"} and not unknown

    def test_rebind_kills_earlier_definition(self):
        targets, unknown = self._targets(
            "import time\n"
            "def f():\n"
            "    t = time.time\n"
            "    t = time.monotonic\n"
            "    return t()\n"
        )
        assert targets == {"time.monotonic"} and not unknown

    def test_parameter_is_unknown(self):
        _, unknown = self._targets("def f(t):\n    return t()\n")
        assert unknown

    def test_global_rebound_module_binding_is_unknown(self):
        _, unknown = self._targets(
            "import time\n"
            "_clock = time.time\n"
            "def configure(c):\n"
            "    global _clock\n"
            "    _clock = c\n"
            "def f():\n"
            "    return _clock()\n"
        )
        assert unknown

    def test_branch_merge_keeps_both_targets(self):
        targets, unknown = self._targets(
            "import time\n"
            "def f(fast):\n"
            "    if fast:\n"
            "        t = time.monotonic\n"
            "    else:\n"
            "        t = time.perf_counter\n"
            "    return t()\n"
        )
        assert targets == {"time.monotonic", "time.perf_counter"}
        assert not unknown


class TestCallGraph:
    def _index(self):
        serve = _context(
            "import asyncio\n"
            "import time\n"
            "from repro.helpers import relay\n"
            "class Core:\n"
            "    async def handle(self, request):\n"
            "        self.prepare(request)\n"
            "        return relay(request)\n"
            "    def prepare(self, request):\n"
            "        nap()\n"
            "    def offload(self, loop, work):\n"
            "        return loop.run_in_executor(None, grind, work)\n"
            "def nap():\n"
            "    time.sleep(0.1)\n"
            "def grind(work):\n"
            "    return work\n",
            "repro/serve_mod.py",
        )
        helpers = _context(
            "import urllib.request\n"
            "def relay(request):\n"
            "    return fetch(request)\n"
            "def fetch(request):\n"
            "    return urllib.request.urlopen(request)\n",
            "repro/helpers.py",
        )
        return ProjectIndex.build([serve, helpers])

    def test_symbols_include_methods_with_qualnames(self):
        index = self._index()
        assert "repro.serve_mod.Core.handle" in index.functions
        assert index.functions[
            "repro.serve_mod.Core.handle"
        ].is_async

    def test_self_and_import_resolution(self):
        index = self._index()
        handle = index.functions["repro.serve_mod.Core.handle"]
        callees = {
            site.callee
            for site in handle.calls
            if site.callee is not None
        }
        assert "repro.serve_mod.Core.prepare" in callees
        assert "repro.helpers.relay" in callees

    def test_blocking_path_reports_the_chain(self):
        index = self._index()
        path = index.blocking_path("repro.helpers.relay")
        assert path == ("fetch", "urllib.request.urlopen")
        assert index.blocking_path(
            "repro.serve_mod.Core.prepare"
        ) == ("nap", "time.sleep")

    def test_coloring_separates_loop_from_thread(self):
        index = self._index()
        loop = index.loop_colored()
        thread = index.thread_colored()
        assert "repro.serve_mod.Core.prepare" in loop
        assert "repro.helpers.fetch" in loop
        assert thread == {"repro.serve_mod.grind"}

    def test_context_run_dispatch_colors_the_wrapped_function(self):
        ctx = _context(
            "import contextvars\n"
            "async def handle(loop, work):\n"
            "    return await loop.run_in_executor(\n"
            "        None, contextvars.copy_context().run, grind, work\n"
            "    )\n"
            "def grind(work):\n"
            "    return work\n",
            "repro/carrier.py",
        )
        index = ProjectIndex.build([ctx])
        assert index.thread_colored() == {"repro.carrier.grind"}

    def test_cycles_terminate(self):
        ctx = _context(
            "import time\n"
            "def a():\n"
            "    b()\n"
            "def b():\n"
            "    a()\n"
            "    time.sleep(1)\n",
            "repro/cyclic.py",
        )
        index = ProjectIndex.build([ctx])
        assert index.blocking_path("repro.cyclic.b") == (
            "time.sleep",
        )


class TestCache:
    BAD = "import random\nrandom.random()\n"

    def _run(self, tree: Path, cache_path: Path):
        cache = AnalysisCache(cache_path)
        findings = analyze_paths([tree], cache=cache)
        cache.save()
        return findings, cache

    def test_warm_run_hits_and_agrees(self, tmp_path):
        (tmp_path / "mod.py").write_text(self.BAD)
        cache_path = tmp_path / "cache.json"
        cold, first = self._run(tmp_path, cache_path)
        warm, second = self._run(tmp_path, cache_path)
        assert first.hits == 0 and first.misses == 1
        assert second.hits == 1 and second.misses == 0
        assert warm == cold

    def test_content_change_invalidates(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(self.BAD)
        cache_path = tmp_path / "cache.json"
        self._run(tmp_path, cache_path)
        target.write_text("import random\n\nrandom.random()\n")
        findings, cache = self._run(tmp_path, cache_path)
        assert cache.hits == 0 and cache.misses == 1
        assert [f.line for f in findings] == [3]

    def test_sibling_change_invalidates_project_digest(
        self, tmp_path
    ):
        (tmp_path / "a.py").write_text(self.BAD)
        (tmp_path / "b.py").write_text("VALUE = 1\n")
        cache_path = tmp_path / "cache.json"
        self._run(tmp_path, cache_path)
        # a.py is untouched, but call-graph rules may read b.py, so
        # its edit must invalidate a.py's cached verdict too.
        (tmp_path / "b.py").write_text("VALUE = 2\n")
        _, cache = self._run(tmp_path, cache_path)
        assert cache.hits == 0 and cache.misses == 2

    def test_rule_selection_changes_the_key(self, tmp_path):
        (tmp_path / "mod.py").write_text(self.BAD)
        cache_path = tmp_path / "cache.json"
        cache = AnalysisCache(cache_path)
        analyze_paths([tmp_path], cache=cache)
        cache.save()
        cache = AnalysisCache(cache_path)
        only_006 = [rules_by_code()["RPR006"]]
        analyze_paths([tmp_path], rules=only_006, cache=cache)
        assert cache.hits == 0 and cache.misses == 1

    def test_corrupt_cache_file_is_ignored(self, tmp_path):
        cache_path = tmp_path / "cache.json"
        cache_path.write_text("{not json")
        (tmp_path / "mod.py").write_text(self.BAD)
        findings, cache = self._run(tmp_path, cache_path)
        assert cache.hits == 0
        assert [f.code for f in findings] == ["RPR001"]


class TestRunStats:
    def test_stats_record_files_and_rule_timings(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "import random\nrandom.random()\n"
        )
        stats = RunStats()
        analyze_paths([tmp_path], stats=stats)
        assert stats.files_analyzed == 1
        assert stats.files_cached == 0
        assert stats.total_seconds > 0
        assert "RPR001" in stats.rule_seconds


@pytest.mark.skipif(
    shutil.which("git") is None, reason="git not available"
)
class TestChangedSelection:
    def _git(self, repo: Path, *argv: str) -> None:
        subprocess.run(
            [
                "git",
                "-c",
                "user.email=t@example.invalid",
                "-c",
                "user.name=t",
                *argv,
            ],
            cwd=repo,
            check=True,
            capture_output=True,
        )

    def _repo(self, tmp_path: Path) -> Path:
        repo = tmp_path / "repo"
        repo.mkdir()
        self._git(repo, "init", "-q")
        (repo / "stale.py").write_text(
            "import random\nrandom.random()\n"
        )
        (repo / "fresh.py").write_text("VALUE = 1\n")
        self._git(repo, "add", "-A")
        self._git(repo, "commit", "-q", "-m", "seed")
        return repo

    def _lint(self, *argv: str) -> tuple[int, str, str]:
        import io

        out, err = io.StringIO(), io.StringIO()
        args = analysis_cli.build_parser().parse_args(list(argv))
        code = analysis_cli.run(args, stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    def test_only_changed_files_are_analyzed(
        self, tmp_path, monkeypatch
    ):
        repo = self._repo(tmp_path)
        monkeypatch.chdir(repo)
        (repo / "fresh.py").write_text(
            "import random\nrandom.shuffle([1])\n"
        )
        code, out, _ = self._lint("--changed", "HEAD", ".")
        assert code == analysis_cli.EXIT_FINDINGS
        assert "fresh.py" in out
        assert "stale.py" not in out

    def test_untracked_files_count_as_changed(
        self, tmp_path, monkeypatch
    ):
        repo = self._repo(tmp_path)
        monkeypatch.chdir(repo)
        (repo / "novel.py").write_text(
            "import random\nrandom.random()\n"
        )
        code, out, _ = self._lint("--changed", "HEAD", ".")
        assert code == analysis_cli.EXIT_FINDINGS
        assert "novel.py" in out

    def test_no_changes_is_clean(self, tmp_path, monkeypatch):
        repo = self._repo(tmp_path)
        monkeypatch.chdir(repo)
        code, out, _ = self._lint("--changed", "HEAD", ".")
        assert code == analysis_cli.EXIT_CLEAN
        assert "nothing to analyze" in out

    def test_unknown_ref_is_a_usage_error(
        self, tmp_path, monkeypatch
    ):
        repo = self._repo(tmp_path)
        monkeypatch.chdir(repo)
        code, _, err = self._lint(
            "--changed", "no-such-ref", "."
        )
        assert code == analysis_cli.EXIT_USAGE
        assert "no-such-ref" in err

    def test_write_baseline_refuses_partial_runs(
        self, tmp_path, monkeypatch
    ):
        repo = self._repo(tmp_path)
        monkeypatch.chdir(repo)
        code, _, err = self._lint(
            "--changed",
            "HEAD",
            "--baseline",
            "b.json",
            "--write-baseline",
            ".",
        )
        assert code == analysis_cli.EXIT_USAGE
        assert "full run" in err


class TestBaseline:
    def test_round_trip_absorbs_current_findings(self, tmp_path):
        findings = findings_for("rpr001_bad.py")
        baseline_path = tmp_path / "baseline.json"
        write_baseline(findings, baseline_path)
        baseline = load_baseline(baseline_path)
        new, accepted, stale = baseline.partition(findings)
        assert new == []
        assert len(accepted) == len(findings)
        assert stale == []

    def test_excess_occurrences_are_new(self, tmp_path):
        findings = findings_for("rpr001_bad.py")
        baseline_path = tmp_path / "baseline.json"
        write_baseline(findings[:1], baseline_path)
        baseline = load_baseline(baseline_path)
        new, accepted, _ = baseline.partition(findings)
        assert len(accepted) == 1
        assert len(new) == len(findings) - 1

    def test_fixed_findings_go_stale(self, tmp_path):
        findings = findings_for("rpr001_bad.py")
        baseline_path = tmp_path / "baseline.json"
        write_baseline(findings, baseline_path)
        baseline = load_baseline(baseline_path)
        _, _, stale = baseline.partition([])
        assert {entry.code for entry in stale} == {"RPR001"}

    def test_rewrite_preserves_reasons(self, tmp_path):
        findings = findings_for("rpr001_bad.py")
        baseline_path = tmp_path / "baseline.json"
        first = write_baseline(findings, baseline_path)
        entry = first.entries[0]
        import json

        document = json.loads(baseline_path.read_text())
        for raw in document["entries"]:
            if raw["message"] == entry.message:
                raw["reason"] = "deliberate: fixture"
        baseline_path.write_text(json.dumps(document))
        rewritten = write_baseline(
            findings,
            baseline_path,
            previous=load_baseline(baseline_path),
        )
        kept = [
            e for e in rewritten.entries if e.key == entry.key
        ]
        assert kept[0].reason == "deliberate: fixture"

    def test_version_mismatch_is_rejected(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text('{"version": 99, "entries": []}')
        with pytest.raises(ValueError):
            load_baseline(bad)


class TestSelfCheck:
    def test_src_tree_is_clean_under_checked_in_baseline(self):
        baseline = load_baseline(
            REPO_ROOT / "analysis_baseline.json"
        )
        findings = analyze_paths([REPO_ROOT / "src"])
        relative = [
            finding.__class__(
                path=Path(finding.path)
                .relative_to(REPO_ROOT)
                .as_posix(),
                line=finding.line,
                column=finding.column,
                code=finding.code,
                message=finding.message,
            )
            for finding in findings
        ]
        new, _, stale = baseline.partition(relative)
        assert new == [], "\n".join(f.format() for f in new)
        assert stale == []

    def test_every_baseline_entry_has_a_reason(self):
        baseline = load_baseline(
            REPO_ROOT / "analysis_baseline.json"
        )
        reasonless = [
            entry.key
            for entry in baseline.entries
            if not entry.reason.strip()
        ]
        assert reasonless == []
