"""Tests for the repro.analysis invariant linter.

Three layers of coverage:

* framework behaviour (parsing, suppressions, module scoping, the
  runner/CLI surface),
* per-checker fixtures — must-flag, must-not-flag, and
  suppression-respecting variants for every diagnostic code,
* whole-repo guarantees — ``src/repro`` lints clean, the cache-key
  checker provably *engages* on the real tree (a seeded violation is
  caught), and a fixture tree seeded with one violation per checker
  makes ``--strict`` exit non-zero.
"""

from __future__ import annotations

import ast
import io
import json
import os
import subprocess
import sys
import textwrap
import tokenize
from pathlib import Path

from repro.analysis import all_checkers, parse_source, run_paths
from repro.analysis.checkers.cache_keys import CacheKeyChecker
from repro.analysis.core import module_name_for
from repro.analysis.runner import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_REPRO = REPO_ROOT / "src" / "repro"

#: Every code the registered checkers can emit.
ALL_CODES = {
    code for checker in all_checkers() for code in checker.codes
}


def lint_tree(tmp_path, files: dict, select=None):
    """Write ``{relpath: source}`` under ``tmp_path`` and lint it."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return run_paths([str(tmp_path)], select=select)


def codes_of(report) -> list:
    return [diagnostic.code for diagnostic in report.diagnostics]


class TestFramework:
    def test_module_name_anchors_at_repro(self):
        assert module_name_for("/tmp/x/repro/query/engine.py") == (
            "repro.query.engine"
        )
        assert module_name_for("src/repro/net/server.py") == (
            "repro.net.server"
        )
        assert module_name_for("/somewhere/loose.py") == "loose"

    def test_suppression_specific_code(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/query/mod.py": """\
                def emit():
                    return list({1, 2})  # lint-ok: REP101 order irrelevant
            """,
        })
        assert report.clean
        assert report.suppressed == 1

    def test_suppression_bare_lint_ok_covers_all(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/query/mod.py": """\
                def emit():
                    return list({1, 2})  # lint-ok
            """,
        })
        assert report.clean
        assert report.suppressed == 1

    def test_suppression_wrong_code_does_not_mask(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/query/mod.py": """\
                def emit():
                    return list({1, 2})  # lint-ok: REP999
            """,
        })
        assert codes_of(report) == ["REP101"]

    def test_lint_ok_inside_string_is_not_a_suppression(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/query/mod.py": """\
                MESSAGE = "use  # lint-ok: REP101 to suppress"
                def emit():
                    return list({1, 2})
            """,
        })
        assert codes_of(report) == ["REP101"]

    def test_syntax_error_becomes_diagnostic(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/query/broken.py": "def broken(:\n",
        })
        assert codes_of(report) == ["REP001"]
        assert "syntax error" in report.diagnostics[0].message

    def test_select_by_checker_name_and_code(self, tmp_path):
        files = {
            "repro/query/mod.py": """\
                def emit(p):
                    if p == 0.7:
                        return list({1, 2})
            """,
        }
        by_name = lint_tree(tmp_path, files, select=["determinism"])
        assert codes_of(by_name) == ["REP101"]
        by_code = lint_tree(tmp_path, files, select=["REP601"])
        assert codes_of(by_code) == ["REP601"]

    def test_select_by_code_reports_only_that_code(self, tmp_path):
        files = {
            "repro/service/mod.py": """\
                import threading
                import time

                class Stats:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.hits = 0  # guarded-by: _lock
                        self.typo = 0  # guarded-by: _missing

                    def read(self):
                        return self.hits

                async def handler():
                    time.sleep(0.1)
                    helper()

                def helper():
                    time.sleep(0.1)
            """,
        }
        assert codes_of(lint_tree(tmp_path, files, select=["REP203"])) == [
            "REP203"
        ]
        assert codes_of(lint_tree(tmp_path, files, select=["REP401"])) == [
            "REP401"
        ]
        # A checker name still selects every code it has.
        assert codes_of(
            lint_tree(tmp_path, files, select=["lock-discipline", "REP410"])
        ) == ["REP203", "REP201", "REP410"]

    def test_diagnostic_format_is_path_line_col_code(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/query/mod.py": """\
                def emit():
                    return list({1, 2})
            """,
        })
        line = report.diagnostics[0].format()
        assert line.endswith(
            "mod.py:2:11: REP101 list() of a set preserves hash order; "
            "use sorted(...) for a stable order"
        )

    def test_list_codes_covers_every_registered_code(self, capsys):
        assert lint_main(["--list-codes"]) == 0
        output = capsys.readouterr().out
        for code in ALL_CODES:
            assert code in output

    def test_missing_path_is_usage_error(self, capsys):
        assert lint_main(["/no/such/path/anywhere"]) == 2


def tokenize_comments(text: str) -> dict:
    """The comment map's oracle: ``tokenize``'s COMMENT tokens."""
    comments: dict = {}
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            comments[token.start[0]] = token.string.lstrip("#").strip()
    return comments


#: Every way a ``#`` can sit in a string literal, beside real comments.
COMMENT_FIXTURE = r'''"""Docstring with a # hash.

# lint-ok: REP101 a suppression spelled inside a docstring
"""
import os  # c1

A = '# not a comment'  # c2
B = b"bytes # text" + b'#'  # c3
C = f"{A!r} # text {B}"  # c4
D = f"{7:#x}"  # c5: a format spec holding a hash
E = """spans
# a line that starts with a hash
lines"""  # c6
F = f"""{A}
# inside an f-string, {D} # too
"""
G = ("left # text"  # c7: between implicitly concatenated literals
     "right # text"  # c8
     f"{A}#")  # c9
H = "a # b" \
    "c # d"  # c10
I = "naïve café # text"  # c11: non-ASCII before the hash
J = "ü#ü"; K = "∑"  # c12
L = "# lint-ok: REP101 inside a string literal"
M = '\'#'  # c13
N = r'\'#'  # c14
O = [
    # c15: a comment-only line
    "# text",
]
'''


class TestSourceRecord:
    def test_comment_map_matches_tokenize_on_the_fixture(self):
        source = parse_source("fixture.py", COMMENT_FIXTURE)
        assert source.comments == tokenize_comments(COMMENT_FIXTURE)
        labels = {text.split(":")[0] for text in source.comments.values()}
        assert labels == {f"c{number}" for number in range(1, 16)}
        assert source.suppressions == {}

    def test_comment_map_matches_tokenize_on_the_repo(self):
        files = sorted(
            path
            for top in ("src", "tests", "benchmarks", "examples")
            for path in (REPO_ROOT / top).rglob("*.py")
        )
        assert len(files) > 150
        mismatched = []
        for path in files:
            text = path.read_text(encoding="utf-8")
            if parse_source(str(path), text).comments != tokenize_comments(
                text
            ):
                mismatched.append(str(path.relative_to(REPO_ROOT)))
        assert mismatched == []

    def test_nodes_by_type_in_walk_order(self):
        source = parse_source("mod.py", textwrap.dedent("""\
            def f(x):
                if x:
                    raise ValueError(x)
                raise KeyError(x)
        """))
        walked = [
            node for node in ast.walk(source.tree)
            if type(node) is ast.Raise
        ]
        assert source.nodes(ast.Raise) == walked and len(walked) == 2
        assert source.nodes(ast.Raise, ast.FunctionDef)[-1].name == "f"
        assert source.nodes(ast.Lambda) == []

    def test_each_module_is_walked_once(self, tmp_path, monkeypatch):
        walked: list = []
        walk, visit = ast.walk, ast.NodeVisitor.visit

        def counting_walk(node):
            if isinstance(node, ast.Module):
                walked.append(node)
            return walk(node)

        def counting_visit(self, node):
            if isinstance(node, ast.Module):
                walked.append(node)
            return visit(self, node)

        monkeypatch.setattr(ast, "walk", counting_walk)
        monkeypatch.setattr(ast.NodeVisitor, "visit", counting_visit)
        report = lint_tree(tmp_path, SEEDED_VIOLATIONS)
        assert set(codes_of(report)) == ALL_CODES
        assert len(walked) == report.files_checked == len(SEEDED_VIOLATIONS)


class TestDeterminismChecker:
    def test_for_over_set_literal_flags(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """\
                def emit(out):
                    for item in {1, 2, 3}:
                        out.append(item)
            """,
        })
        assert codes_of(report) == ["REP101"]

    def test_comprehension_over_set_call_flags(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": "VALUES = [v for v in set(range(3))]\n",
        })
        assert codes_of(report) == ["REP101"]

    def test_join_and_conversions_flag(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """\
                first = ",".join({"a", "b"})
                second = tuple(frozenset([1]))
            """,
        })
        assert codes_of(report) == ["REP101", "REP101"]

    def test_sorted_set_is_clean(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """\
                def emit(items):
                    for item in sorted({x for x in items}):
                        yield item
                    return sorted(set(items))
            """,
        })
        assert report.clean

    def test_set_comprehension_output_is_clean(self, tmp_path):
        # The comprehension *produces* a set; its internal order can't
        # escape, so only genuinely order-leaking positions flag.
        report = lint_tree(tmp_path, {
            "mod.py": "LABELS = {x.lower() for x in ['A', 'B']}\n",
        })
        assert report.clean

    def test_repr_and_str_of_set_flag(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """\
                key = repr(frozenset([1, 2]))
                text = str({1, 2})
            """,
        })
        assert codes_of(report) == ["REP102", "REP102"]

    def test_global_rng_and_wall_clock_flag_in_pure_modules(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/query/mod.py": """\
                import random
                import time

                def jitter():
                    return random.random() + time.time()
            """,
        })
        assert codes_of(report) == ["REP103", "REP103"]

    def test_rng_outside_pure_modules_is_clean(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/net/mod.py": """\
                import random

                def jitter():
                    return random.random()
            """,
        })
        assert report.clean

    def test_monotonic_clock_is_clean_in_pure_modules(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/query/mod.py": """\
                import time

                def stamp():
                    return time.monotonic(), time.perf_counter()
            """,
        })
        assert report.clean


class TestLockDisciplineChecker:
    GUARDED_CLASS = """\
        import threading

        class Stats:
            def __init__(self):
                self._lock = threading.Lock()
                self.hits = 0  # guarded-by: _lock

            %s
    """

    def test_unlocked_read_flags(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": self.GUARDED_CLASS % (
                "def read(self):\n"
                "                return self.hits"
            ),
        })
        assert codes_of(report) == ["REP201"]

    def test_with_lock_read_is_clean(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": self.GUARDED_CLASS % (
                "def read(self):\n"
                "                with self._lock:\n"
                "                    return self.hits"
            ),
        })
        assert report.clean

    def test_holds_lock_marker_is_clean(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": self.GUARDED_CLASS % (
                "def _bump(self):  # holds-lock: _lock\n"
                "                self.hits += 1"
            ),
        })
        assert report.clean

    def test_init_is_exempt(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """\
                import threading

                class Stats:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.hits = 0  # guarded-by: _lock
                        self.hits = self.hits + 1
            """,
        })
        assert report.clean

    def test_leading_comment_block_annotation(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """\
                import threading

                class Stats:
                    def __init__(self):
                        self._lock = threading.Lock()
                        #: guarded-by: _lock
                        self.hits = 0

                    def read(self):
                        return self.hits
            """,
        })
        assert codes_of(report) == ["REP201"]

    def test_nonexistent_guard_flags_rep203(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """\
                class Stats:
                    def __init__(self):
                        self.hits = 0  # guarded-by: _missing
            """,
        })
        assert codes_of(report) == ["REP203"]

    def test_event_loop_guard_sync_touch_flags_rep202(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """\
                class Server:
                    def __init__(self):
                        self._clients = {}  # guarded-by: event-loop

                    def touch(self):
                        return len(self._clients)
            """,
        })
        assert codes_of(report) == ["REP202"]

    def test_event_loop_guard_async_and_loop_only_are_clean(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """\
                class Server:
                    def __init__(self):
                        self._clients = {}  # guarded-by: event-loop

                    async def handle(self):
                        return len(self._clients)

                    def _disconnect(self, cid):  # loop-only
                        self._clients.pop(cid, None)
            """,
        })
        assert report.clean

    def test_nested_class_guard_does_not_leak_outward(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """\
                import threading

                class Outer:
                    def __init__(self):
                        self._items = []

                    def add(self, item):
                        self._items.append(item)

                    class Inner:
                        def __init__(self):
                            self._lock = threading.Lock()
                            self._items = []  # guarded-by: _lock

                        def add(self, item):
                            with self._lock:
                                self._items.append(item)
            """,
        })
        assert report.clean, report.render()

    def test_nested_class_lock_does_not_satisfy_outer_guard(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """\
                import threading

                class Outer:
                    def __init__(self):
                        self._count = 0  # guarded-by: _lock

                    class Inner:
                        def __init__(self):
                            self._lock = threading.Lock()
            """,
        })
        assert codes_of(report) == ["REP203"]
        assert report.diagnostics[0].line == 5

    def test_suppression_respected(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": self.GUARDED_CLASS % (
                "def read(self):\n"
                "                return self.hits"
                "  # lint-ok: REP201 benign racy read"
            ),
        })
        assert report.clean
        assert report.suppressed == 1


OPTIONS_FIXTURE = """\
    from dataclasses import dataclass

    @dataclass
    class QueryOptions:
        decomposition: str = "auto"
        seed: int = 0
        trace: bool = False
"""


class TestCacheKeyChecker:
    def test_complete_coverage_is_clean(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/query/engine.py": OPTIONS_FIXTURE,
            "repro/service/service.py": """\
                RESULT_NEUTRAL_OPTIONS = frozenset({"trace"})

                def request_key(query, alpha, options, graph_version=0):
                    return (
                        query.canonical_form(),
                        options.decomposition,
                        options.seed,
                        graph_version,
                    )
            """,
        }, select=["cache-keys"])
        assert report.clean

    def test_uncovered_field_flags_rep301(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/query/engine.py": OPTIONS_FIXTURE,
            "repro/service/service.py": """\
                RESULT_NEUTRAL_OPTIONS = frozenset({"trace"})

                def request_key(query, alpha, options, graph_version=0):
                    return (query.canonical_form(), options.decomposition,
                            graph_version)
            """,
        }, select=["cache-keys"])
        assert codes_of(report) == ["REP301"]
        assert "seed" in report.diagnostics[0].message

    def test_field_both_keyed_and_excluded_flags_rep302(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/query/engine.py": OPTIONS_FIXTURE,
            "repro/service/service.py": """\
                RESULT_NEUTRAL_OPTIONS = frozenset({"seed", "trace"})

                def request_key(query, alpha, options, graph_version=0):
                    return (query.canonical_form(), options.decomposition,
                            options.seed, graph_version)
            """,
        }, select=["cache-keys"])
        assert codes_of(report) == ["REP302"]

    def test_stale_exclusion_entry_flags_rep302(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/query/engine.py": OPTIONS_FIXTURE,
            "repro/service/service.py": """\
                RESULT_NEUTRAL_OPTIONS = frozenset({"trace", "renamed_away"})

                def request_key(query, alpha, options, graph_version=0):
                    return (query.canonical_form(), options.decomposition,
                            options.seed, graph_version)
            """,
        }, select=["cache-keys"])
        assert codes_of(report) == ["REP302"]
        assert "renamed_away" in report.diagnostics[0].message

    def test_missing_exclusion_constant_flags_rep302(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/query/engine.py": OPTIONS_FIXTURE,
            "repro/service/service.py": """\
                def request_key(query, alpha, options, graph_version=0):
                    return (query.canonical_form(), options.decomposition,
                            options.seed, options.trace, graph_version)
            """,
        }, select=["cache-keys"])
        assert codes_of(report) == ["REP302"]
        assert "RESULT_NEUTRAL_OPTIONS" in report.diagnostics[0].message

    def test_builder_missing_ingredient_flags_rep303(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/query/plan.py": """\
                def plan_key(query, alpha, max_length):
                    return (query.canonical_form(), milli(alpha), max_length)
            """,
        }, select=["cache-keys"])
        assert codes_of(report) == ["REP303"]
        assert "histogram_epoch" in report.diagnostics[0].message

    def test_self_disables_without_targets(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/query/other.py": "VALUE = 1\n",
        }, select=["cache-keys"])
        assert report.clean

    def test_engages_on_the_real_tree(self):
        """Removing one keyed field from the *real* request_key is caught.

        This is the non-vacuity guarantee for the whole-repo clean run:
        the checker finds QueryOptions and request_key in src/repro and
        would flag a coverage regression there.
        """
        engine_path = SRC_REPRO / "query" / "engine.py"
        service_path = SRC_REPRO / "service" / "service.py"
        service_text = service_path.read_text()
        assert "options.seed," in service_text
        mutated = service_text.replace("options.seed,", "", 1)
        sources = [
            parse_source(str(engine_path), engine_path.read_text()),
            parse_source(str(service_path), mutated),
        ]
        findings = CacheKeyChecker().check_project(sources)
        assert any(
            d.code == "REP301" and "seed" in d.message for d in findings
        )


class TestAsyncioHygieneChecker:
    def test_time_sleep_in_coroutine_flags(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """\
                import time

                async def handler():
                    time.sleep(0.1)
            """,
        }, select=["async-flow"])
        assert codes_of(report) == ["REP401"]

    def test_open_and_bare_result_flag(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """\
                async def handler(future):
                    with open("/tmp/x") as handle:
                        handle.read()
                    return future.result()
            """,
        }, select=["async-flow"])
        assert codes_of(report) == ["REP401", "REP401"]

    def test_asyncio_sleep_and_result_with_timeout_are_clean(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """\
                import asyncio

                async def handler(future):
                    await asyncio.sleep(0.1)
                    return future.result(0)
            """,
        }, select=["async-flow"])
        assert report.clean

    def test_nested_sync_def_is_exempt(self, tmp_path):
        # A sync helper defined inside a coroutine may run via
        # asyncio.to_thread; only the coroutine's own body is loop-bound.
        report = lint_tree(tmp_path, {
            "mod.py": """\
                import time

                async def handler():
                    def blocking():
                        time.sleep(1.0)
                    return blocking
            """,
        }, select=["async-flow"])
        assert report.clean

    def test_sync_function_is_out_of_scope(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """\
                import time

                def worker():
                    time.sleep(0.1)
            """,
        }, select=["async-flow"])
        assert report.clean

    def test_from_import_alias_flags(self, tmp_path):
        # Regression: ``from time import sleep`` used to dodge the
        # literal ``time.sleep`` spelling match.
        report = lint_tree(tmp_path, {
            "mod.py": """\
                from time import sleep

                async def handler():
                    sleep(0.1)
            """,
        }, select=["async-flow"])
        assert codes_of(report) == ["REP401"]
        assert "time.sleep" in report.diagnostics[0].message

    def test_renamed_from_import_flags(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """\
                from time import sleep as snooze

                async def handler():
                    snooze(0.1)
            """,
        }, select=["async-flow"])
        assert codes_of(report) == ["REP401"]

    def test_module_alias_flags(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """\
                import time as t

                async def handler():
                    t.sleep(0.1)
            """,
        }, select=["async-flow"])
        assert codes_of(report) == ["REP401"]

    def test_harmless_from_import_is_clean(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """\
                from time import monotonic

                async def handler():
                    return monotonic()
            """,
        }, select=["async-flow"])
        assert report.clean

    def test_awaited_result_is_clean(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """\
                async def handler(task):
                    return await task.result()
            """,
        }, select=["async-flow"])
        assert report.clean

    def test_suppression_respected(self, tmp_path):
        report = lint_tree(tmp_path, {
            "mod.py": """\
                async def handler(memo):
                    return memo.result()  # lint-ok: REP401 not a future
            """,
        }, select=["async-flow"])
        assert report.clean
        assert report.suppressed == 1

    def test_nested_coroutines_report_each_site_once(self, tmp_path):
        # A coroutine nested in a coroutine used to be walked twice (by
        # itself and inside its parent's body), giving two REP401 for
        # one call; one nested in a plain function must still be seen.
        report = lint_tree(tmp_path, {
            "mod.py": """\
                import time

                async def outer():
                    async def inner():
                        time.sleep(0.1)
                    time.sleep(0.2)
                    return inner

                def factory():
                    class Handler:
                        async def handle(self):
                            time.sleep(0.3)
                    async def run():
                        time.sleep(0.4)
                    return Handler, run
            """,
        }, select=["REP401"])
        assert [(d.code, d.line, d.col) for d in report.diagnostics] == [
            ("REP401", 5, 8), ("REP401", 6, 4),
            ("REP401", 12, 12), ("REP401", 14, 8),
        ]

    def test_same_module_name_in_two_trees_both_flag(self, tmp_path):
        report = lint_tree(tmp_path, {
            "a/mod.py": """\
                import time

                async def handler():
                    time.sleep(0.1)
            """,
            "b/mod.py": """\
                from time import sleep

                async def handler():
                    sleep(0.1)
            """,
        }, select=["REP401"])
        assert codes_of(report) == ["REP401", "REP401"]
        assert [os.path.basename(os.path.dirname(d.path))
                for d in report.diagnostics] == ["a", "b"]


class TestErrorTaxonomyChecker:
    def test_generic_raises_flag_in_serving_modules(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/net/mod.py": """\
                def fail():
                    raise Exception("boom")

                def worse():
                    raise RuntimeError("boom")
            """,
        })
        assert codes_of(report) == ["REP501", "REP501"]

    def test_typed_and_contract_errors_are_clean(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/service/mod.py": """\
                from repro.utils.errors import ServiceError

                def fail(value):
                    if value < 0:
                        raise ValueError(f"bad value {value}")
                    raise ServiceError("typed")
            """,
        })
        assert report.clean

    def test_bare_reraise_is_clean(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/net/mod.py": """\
                def passthrough():
                    try:
                        return 1
                    except Exception:
                        raise
            """,
        })
        assert report.clean

    def test_out_of_scope_module_is_clean(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/query/mod.py": """\
                def fail():
                    raise Exception("engine internals are not wire-facing")
            """,
        })
        assert report.clean


class TestFloatEqualityChecker:
    def test_fractional_equality_flags_in_probability_code(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/query/mod.py": """\
                def check(p):
                    return p == 0.7 or p != -0.25
            """,
        })
        assert codes_of(report) == ["REP601", "REP601"]

    def test_exact_sentinels_and_thresholds_are_clean(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/query/mod.py": """\
                def check(p):
                    return p == 0.0 or p == 1.0 or p == -1.0 or p >= 0.7
            """,
        })
        assert report.clean

    def test_out_of_scope_module_is_clean(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/service/mod.py": "CHECK = 3.14 == 3.14\n",
        })
        assert report.clean

    def test_suppression_respected(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/query/mod.py": """\
                def check(p):
                    return p == 0.7  # lint-ok: REP601 bit-exact contract
            """,
        })
        assert report.clean
        assert report.suppressed == 1


class TestDeadShimChecker:
    def test_pure_reexport_module_flags(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/utils/shim.py": """\
                \"\"\"Compatibility shim.\"\"\"

                from os.path import join, split

                __all__ = ["join", "split"]
            """,
        })
        assert codes_of(report) == ["REP701"]

    def test_module_with_real_code_is_clean(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/utils/real.py": """\
                from os.path import join

                def helper(a, b):
                    return join(a, b)
            """,
        })
        assert report.clean

    def test_package_init_is_exempt(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/utils/__init__.py": """\
                from os.path import join, split

                __all__ = ["join", "split"]
            """,
        })
        assert report.clean

    def test_dated_suppression_respected(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/utils/shim.py": """\
                from os.path import join  # lint-ok: REP701 remove after v2.0

                __all__ = ["join"]
            """,
        })
        assert report.clean
        assert report.suppressed == 1


#: One seeded violation per diagnostic code — the CI self-check corpus.
SEEDED_VIOLATIONS = {
    "repro/query/bad_determinism.py": """\
        import random
        import time

        def emit(items):
            out = []
            for item in {1, 2, 3}:
                out.append(item)
            key = repr(set(items))
            return out, key, random.random(), time.time()
    """,
    "repro/service/bad_locking.py": """\
        import threading

        class Stats:
            def __init__(self):
                self._lock = threading.Lock()
                self.hits = 0  # guarded-by: _lock
                self.typo = 0  # guarded-by: _missing

            def read(self):
                return self.hits

        class Server:
            def __init__(self):
                self._clients = {}  # guarded-by: event-loop

            def touch(self):
                return len(self._clients)
    """,
    "repro/query/bad_engine.py": """\
        from dataclasses import dataclass

        @dataclass
        class QueryOptions:
            decomposition: str = "auto"
            seed: int = 0
    """,
    "repro/service/bad_service.py": """\
        RESULT_NEUTRAL_OPTIONS = frozenset({"renamed_away"})

        def request_key(query, alpha, options, graph_version=0):
            return (query.canonical_form(), options.decomposition,
                    graph_version)
    """,
    "repro/query/bad_plan.py": """\
        def plan_key(query, alpha):
            return (query.canonical_form(), milli(alpha))
    """,
    "repro/net/bad_async.py": """\
        import time

        async def handler():
            time.sleep(0.1)
    """,
    "repro/net/bad_errors.py": """\
        def fail():
            raise Exception("boom")
    """,
    "repro/query/bad_float.py": """\
        def check(p):
            return p == 0.7
    """,
    "repro/query/bad_shim.py": """\
        from os.path import join

        __all__ = ["join"]
    """,
    "repro/service/bad_deadlock.py": """\
        import threading

        class Pair:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()

            def forward(self):
                with self._a:
                    with self._b:
                        pass

            def backward(self):
                with self._b:
                    with self._a:
                        pass
    """,
    "repro/service/bad_hold.py": """\
        import threading
        import time

        class Spinner:
            def __init__(self):
                self._lock = threading.Lock()

            def spin(self):
                with self._lock:
                    time.sleep(0.5)
    """,
    "repro/net/bad_transitive.py": """\
        import time

        async def handler():
            helper()

        def helper():
            time.sleep(0.1)
    """,
    "repro/query/bad_raiser.py": """\
        def compute(spec):
            raise ValueError("bad spec")
    """,
    "repro/net/bad_handler.py": """\
        from repro.query.bad_raiser import compute

        async def handle(spec):
            return compute(spec)
    """,
}


class TestWholeRepo:
    def test_src_repro_lints_clean(self):
        report = run_paths([str(SRC_REPRO)])
        assert report.clean, "\n" + report.render()
        assert report.files_checked > 90

    def test_strict_cli_exits_zero_on_src(self, capsys):
        assert lint_main([str(SRC_REPRO), "--strict", "--quiet"]) == 0

    def test_benchmarks_and_examples_lint_clean(self):
        report = run_paths([
            str(REPO_ROOT / "benchmarks"),
            str(REPO_ROOT / "examples"),
        ])
        assert report.clean, "\n" + report.render()
        assert report.files_checked > 0

    def test_seeded_violations_cover_every_code(self, tmp_path):
        report = lint_tree(tmp_path, SEEDED_VIOLATIONS)
        assert set(codes_of(report)) == ALL_CODES

    def test_strict_cli_exits_nonzero_on_seeded_tree(self, tmp_path, capsys):
        for rel, source in SEEDED_VIOLATIONS.items():
            target = tmp_path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(source))
        assert lint_main([str(tmp_path), "--strict", "--quiet"]) == 1

    def test_json_report_round_trips(self, tmp_path, capsys):
        for rel, source in SEEDED_VIOLATIONS.items():
            target = tmp_path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(source))
        out = tmp_path / "report.json"
        code = lint_main(
            [str(tmp_path), "--strict", "--quiet", "--json", str(out)]
        )
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["clean"] is False
        assert set(payload["counts_by_code"]) == ALL_CODES
        assert payload["files_checked"] == len(SEEDED_VIOLATIONS)
        for entry in payload["diagnostics"]:
            assert {"code", "message", "path", "line", "col", "checker"} <= (
                set(entry)
            )

    def test_repro_cli_lint_subcommand(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["lint", str(SRC_REPRO), "--strict"]) == 0
        output = capsys.readouterr().out
        assert "0 finding(s)" in output

    def test_repro_lint_forwards_every_runner_flag(self, tmp_path):
        # ``--quiet`` is a runner flag the subcommand never declared.
        (tmp_path / "clean.py").write_text("VALUE = 1\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
        )

        def lint(*argv):
            return subprocess.run(
                [sys.executable, "-m", "repro", "lint", *argv],
                env=env, capture_output=True, text=True, timeout=120,
            )

        clean = lint(str(tmp_path), "--strict", "--quiet")
        assert (clean.returncode, clean.stdout, clean.stderr) == (0, "", "")
        (tmp_path / "dirty.py").write_text(
            "def f():\n    return list({1, 2})\n"
        )
        assert lint(str(tmp_path), "--strict", "--quiet").returncode == 1
