"""Tests for the interprocedural flow layer (repro.analysis.flow).

Covers the call-graph builder itself (resolution forms, cycle
tolerance, unknown-callee conservatism, lookups through every base),
the one flow model a run builds and its one walk per function body
(call sites checked against an independent walk of ``src/repro``), the
three flow checkers' must-flag / must-not-flag fixtures —
including the acceptance fixture: two functions acquiring two locks in
opposite orders, flagged by REP210 — and the ``--call-graph`` dump
surface.
"""

from __future__ import annotations

import ast
import gc
import json
import textwrap
from pathlib import Path

from repro.analysis.core import parse_source
from repro.analysis.flow import CallGraph, callgraph
from repro.analysis.flow.callgraph import FunctionInfo
from repro.analysis.runner import _parse_files, discover_files
from repro.analysis.runner import main as lint_main
from tests.test_analysis import (
    SEEDED_VIOLATIONS,
    SRC_REPRO,
    codes_of,
    lint_tree,
)

#: The seeded deadlock pair: ``forward`` takes A then B, ``backward``
#: takes B then A. The static checker must flag the cycle (REP210) and
#: the runtime sanitizer must catch it when executed — the same text
#: feeds both (see tests/test_sanitizer.py).
DEADLOCK_PAIR_SOURCE = """\
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
"""


def build_graph(tmp_path, files: dict) -> CallGraph:
    sources = []
    for rel, text in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text))
        sources.append(
            parse_source(str(target), target.read_text())
        )
    return CallGraph(sources)


def callees_of(graph: CallGraph, fid: str) -> set:
    return {
        site.callee
        for site in graph.functions[fid].calls
        if site.callee is not None
    }


class TestCallGraphResolution:
    def test_self_method_and_module_function(self, tmp_path):
        graph = build_graph(tmp_path, {
            "repro/query/mod.py": """\
                def helper():
                    return 1

                class Engine:
                    def run(self):
                        self.step()
                        return helper()

                    def step(self):
                        pass
            """,
        })
        assert callees_of(graph, "repro.query.mod:Engine.run") == {
            "repro.query.mod:Engine.step",
            "repro.query.mod:helper",
        }

    def test_cross_module_from_import_and_alias(self, tmp_path):
        graph = build_graph(tmp_path, {
            "repro/query/a.py": """\
                def compute():
                    return 1
            """,
            "repro/query/b.py": """\
                from repro.query.a import compute
                import repro.query.a as qa

                def run():
                    compute()
                    qa.compute()
            """,
        })
        assert callees_of(graph, "repro.query.b:run") == {
            "repro.query.a:compute",
        }

    def test_submodule_binding_form(self, tmp_path):
        # ``from repro.net import protocol`` binds a module object.
        graph = build_graph(tmp_path, {
            "repro/net/protocol.py": """\
                def decode(frame):
                    return frame
            """,
            "repro/net/server.py": """\
                from repro.net import protocol

                def handle(frame):
                    return protocol.decode(frame)
            """,
        })
        assert callees_of(graph, "repro.net.server:handle") == {
            "repro.net.protocol:decode",
        }

    def test_constructor_resolves_to_init(self, tmp_path):
        graph = build_graph(tmp_path, {
            "repro/query/mod.py": """\
                class Cache:
                    def __init__(self):
                        self.data = {}

                def make():
                    return Cache()
            """,
        })
        assert callees_of(graph, "repro.query.mod:make") == {
            "repro.query.mod:Cache.__init__",
        }

    def test_attr_type_inference(self, tmp_path):
        graph = build_graph(tmp_path, {
            "repro/query/mod.py": """\
                class Cache:
                    def get(self, key):
                        return None

                class Engine:
                    def __init__(self):
                        self.cache = Cache()

                    def lookup(self, key):
                        return self.cache.get(key)
            """,
        })
        assert callees_of(graph, "repro.query.mod:Engine.lookup") == {
            "repro.query.mod:Cache.get",
        }

    def test_conflicting_attr_types_drop_the_inference(self, tmp_path):
        graph = build_graph(tmp_path, {
            "repro/query/mod.py": """\
                class A:
                    def go(self):
                        pass

                class B:
                    def go(self):
                        pass

                class Engine:
                    def __init__(self, fast):
                        if fast:
                            self.impl = A()
                        else:
                            self.impl = B()

                    def run(self):
                        self.impl.go()
            """,
        })
        assert callees_of(graph, "repro.query.mod:Engine.run") == set()

    def test_attr_type_declared_on_a_second_base(self, tmp_path):
        graph = build_graph(tmp_path, {
            "repro/query/mod.py": """\
                class Cache:
                    def get(self, key):
                        return None

                class Base:
                    def __init__(self):
                        self.cache = Cache()

                class Mixin:
                    pass

                class Engine(Mixin, Base):
                    def lookup(self, key):
                        return self.cache.get(key)
            """,
        })
        assert callees_of(graph, "repro.query.mod:Engine.lookup") == {
            "repro.query.mod:Cache.get",
        }

    def test_nested_def_assignments_still_type_the_class(self, tmp_path):
        # The closure's calls are not the method's, but its assignment
        # still types the attribute.
        graph = build_graph(tmp_path, {
            "repro/query/mod.py": """\
                class Cache:
                    def get(self, key):
                        return None

                class Engine:
                    def __init__(self):
                        def build():
                            self.cache = Cache()
                        build()

                    def lookup(self, key):
                        return self.cache.get(key)
            """,
        })
        assert callees_of(graph, "repro.query.mod:Engine.lookup") == {
            "repro.query.mod:Cache.get",
        }
        assert [site.text for site in graph.functions[
            "repro.query.mod:Engine.__init__"
        ].calls] == ["build()"]

    def test_unknown_callees_are_conservative(self, tmp_path):
        graph = build_graph(tmp_path, {
            "repro/query/mod.py": """\
                import os

                def run(callback, obj):
                    callback()
                    obj.method()
                    os.getpid()
                    getattr(obj, "dynamic")()
            """,
        })
        info = graph.functions["repro.query.mod:run"]
        assert all(site.callee is None for site in info.calls)

    def test_recursion_does_not_hang(self, tmp_path):
        graph = build_graph(tmp_path, {
            "repro/query/mod.py": """\
                def ping(n):
                    return pong(n - 1)

                def pong(n):
                    if n > 0:
                        return ping(n)
                    return 0
            """,
        })
        # The graph's resolve phase must terminate over the cycle.
        assert callees_of(graph, "repro.query.mod:ping") == {
            "repro.query.mod:pong",
        }

    def test_base_class_method_resolution(self, tmp_path):
        graph = build_graph(tmp_path, {
            "repro/query/mod.py": """\
                class Base:
                    def shared(self):
                        pass

                class Child(Base):
                    def run(self):
                        self.shared()
            """,
        })
        assert callees_of(graph, "repro.query.mod:Child.run") == {
            "repro.query.mod:Base.shared",
        }

    def test_nested_defs_do_not_contribute_edges(self, tmp_path):
        graph = build_graph(tmp_path, {
            "repro/query/mod.py": """\
                def target():
                    pass

                def outer():
                    def closure():
                        target()
                    return closure
            """,
        })
        assert callees_of(graph, "repro.query.mod:outer") == set()


class TestLockFlowChecker:
    def test_seeded_deadlock_pair_flags_rep210(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {"repro/service/pair.py": DEADLOCK_PAIR_SOURCE},
            select=["lock-flow"],
        )
        assert codes_of(report) == ["REP210"]
        message = report.diagnostics[0].message
        assert "Pair._a" in message and "Pair._b" in message
        assert "deadlock" in message

    def test_cross_function_cycle_through_calls(self, tmp_path):
        # Neither function nests the locks lexically; the cycle only
        # exists through the call graph.
        report = lint_tree(tmp_path, {
            "repro/service/mod.py": """\
                import threading

                class Engine:
                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()

                    def left(self):
                        with self._a:
                            self._take_b()

                    def _take_b(self):
                        with self._b:
                            pass

                    def right(self):
                        with self._b:
                            self._take_a()

                    def _take_a(self):
                        with self._a:
                            pass
            """,
        }, select=["lock-flow"])
        assert codes_of(report) == ["REP210"]

    def test_consistent_order_is_clean(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/service/mod.py": """\
                import threading

                class Engine:
                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()

                    def one(self):
                        with self._a:
                            with self._b:
                                pass

                    def two(self):
                        with self._a:
                            with self._b:
                                pass
            """,
        }, select=["lock-flow"])
        assert report.clean

    def test_rlock_self_nesting_is_clean(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/service/mod.py": """\
                import threading

                class Engine:
                    def __init__(self):
                        self._lock = threading.RLock()

                    def outer(self):
                        with self._lock:
                            self.inner()

                    def inner(self):
                        with self._lock:
                            pass
            """,
        }, select=["lock-flow"])
        assert report.clean

    def test_plain_lock_self_nesting_flags(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/service/mod.py": """\
                import threading

                class Engine:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def outer(self):
                        with self._lock:
                            self.inner()

                    def inner(self):
                        with self._lock:
                            pass
            """,
        }, select=["lock-flow"])
        assert codes_of(report) == ["REP210"]

    def test_holds_lock_annotation_feeds_the_graph(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/service/mod.py": """\
                import threading

                class Engine:
                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()

                    def _locked_helper(self):  # holds-lock: _a
                        with self._b:
                            pass

                    def other(self):
                        with self._b:
                            with self._a:
                                pass
            """,
        }, select=["lock-flow"])
        assert codes_of(report) == ["REP210"]

    def test_direct_unbounded_wait_under_lock_flags_rep211(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/service/mod.py": """\
                import threading
                import time

                class Engine:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def spin(self):
                        with self._lock:
                            time.sleep(0.5)
            """,
        }, select=["lock-flow"])
        assert codes_of(report) == ["REP211"]
        assert "time.sleep" in report.diagnostics[0].message

    def test_lock_declared_on_a_second_base(self, tmp_path):
        # Lock attributes are looked up through every corpus base, in
        # the same order as methods, not only through the first.
        report = lint_tree(tmp_path, {
            "repro/service/mod.py": """\
                import threading
                import time

                class Base:
                    def __init__(self):
                        self._lock = threading.Lock()

                class Mixin:
                    pass

                class FirstBase(Base, Mixin):
                    def spin(self):
                        with self._lock:
                            time.sleep(1)

                class SecondBase(Mixin, Base):
                    def spin(self):
                        with self._lock:
                            time.sleep(1)
            """,
        }, select=["lock-flow"])
        assert [(d.code, d.line) for d in report.diagnostics] == [
            ("REP211", 14), ("REP211", 19),
        ]
        assert all("mod.Base._lock" in d.message for d in report.diagnostics)

    def test_transitive_wait_under_lock_prints_chain(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/service/mod.py": """\
                import threading

                class Engine:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def drain(self, future):
                        with self._lock:
                            self._wait(future)

                    def _wait(self, future):
                        future.result()
            """,
        }, select=["lock-flow"])
        assert codes_of(report) == ["REP211"]
        message = report.diagnostics[0].message
        assert "mod.Engine.drain -> mod.Engine._wait" in message
        assert ".result()" in message

    def test_bounded_waits_under_lock_are_clean(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/service/mod.py": """\
                import threading

                class Engine:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def drain(self, future, thread):
                        with self._lock:
                            future.result(1.0)
                            thread.join(timeout=2.0)
            """,
        }, select=["lock-flow"])
        assert report.clean

    def test_condition_wait_on_held_lock_is_clean(self, tmp_path):
        # The producer/consumer idiom: wait() releases the lock.
        report = lint_tree(tmp_path, {
            "repro/service/mod.py": """\
                import threading

                class Engine:
                    def __init__(self):
                        self._gate = threading.Lock()
                        self._done = threading.Condition(self._gate)

                    def wait_done(self):
                        with self._gate:
                            self._done.wait()
            """,
        }, select=["lock-flow"])
        assert report.clean

    def test_suppression_respected(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/service/mod.py": """\
                import threading
                import time

                class Engine:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def spin(self):
                        with self._lock:
                            time.sleep(0.5)  # lint-ok: REP211 test pacing
            """,
        }, select=["lock-flow"])
        assert report.clean
        assert report.suppressed == 1


class TestTransitiveBlockingChecker:
    def test_sleep_two_frames_below_coroutine_flags(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/net/mod.py": """\
                import time

                async def handler():
                    prepare()

                def prepare():
                    flush()

                def flush():
                    time.sleep(0.1)
            """,
        }, select=["async-flow"])
        assert codes_of(report) == ["REP410"]
        message = report.diagnostics[0].message
        # The full sync chain, coroutine first.
        assert "mod.handler -> mod.prepare -> mod.flush" in message
        assert "time.sleep" in message

    def test_direct_blocking_left_to_rep401(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/net/mod.py": """\
                import time

                async def handler():
                    time.sleep(0.1)
            """,
        }, select=["async-flow"])
        # REP401's territory, not REP410's: no sync chain to print.
        assert codes_of(report) == ["REP401"]
        assert report.diagnostics[0].line == 4

    def test_async_callee_is_not_traversed(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/net/mod.py": """\
                import time

                async def outer():
                    await inner()

                async def inner():
                    helper()

                def helper():
                    time.sleep(0.1)
            """,
        }, select=["async-flow"])
        # Only ``inner`` flags; ``outer`` trusts its async callee.
        assert codes_of(report) == ["REP410"]
        assert "mod.inner -> mod.helper" in report.diagnostics[0].message

    def test_loop_only_sync_methods_are_entry_points(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/net/mod.py": """\
                import time

                class Server:
                    def _reply(self, data):  # loop-only
                        self._write(data)

                    def _write(self, data):
                        time.sleep(0.01)
            """,
        }, select=["async-flow"])
        assert codes_of(report) == ["REP410"]

    def test_aliased_import_is_seen_transitively(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/net/mod.py": """\
                from time import sleep

                async def handler():
                    helper()

                def helper():
                    sleep(0.1)
            """,
        }, select=["async-flow"])
        assert codes_of(report) == ["REP410"]


class TestErrorEscapeChecker:
    def test_engine_raise_reaching_handler_flags(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/query/calc.py": """\
                def compute(spec):
                    raise ValueError("bad spec")
            """,
            "repro/net/handler.py": """\
                from repro.query.calc import compute

                async def handle(spec):
                    return compute(spec)
            """,
        }, select=["error-flow"])
        assert codes_of(report) == ["REP510"]
        message = report.diagnostics[0].message
        assert "builtins.ValueError" in message
        assert "handler.handle -> calc.compute" in message

    def test_catching_the_exception_is_clean(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/query/calc.py": """\
                def compute(spec):
                    raise ValueError("bad spec")
            """,
            "repro/net/handler.py": """\
                from repro.query.calc import compute

                async def handle(spec):
                    try:
                        return compute(spec)
                    except ValueError:
                        return None
            """,
        }, select=["error-flow"])
        assert report.clean

    def test_catching_a_superclass_is_clean(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/query/calc.py": """\
                def compute(spec):
                    raise KeyError("missing")
            """,
            "repro/net/handler.py": """\
                from repro.query.calc import compute

                async def handle(spec):
                    try:
                        return compute(spec)
                    except LookupError:
                        return None
            """,
        }, select=["error-flow"])
        assert report.clean

    def test_typed_repro_errors_are_clean(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/utils/errors.py": """\
                class ReproError(Exception):
                    pass

                class QueryError(ReproError):
                    pass
            """,
            "repro/query/calc.py": """\
                from repro.utils.errors import QueryError

                def compute(spec):
                    raise QueryError("bad spec")
            """,
            "repro/net/handler.py": """\
                from repro.query.calc import compute

                async def handle(spec):
                    return compute(spec)
            """,
        }, select=["error-flow"])
        assert report.clean

    def test_net_local_raises_are_out_of_scope(self, tmp_path):
        # REP501 owns raises *in* the serving modules; REP510 is about
        # engine-layer escapes crossing into them.
        report = lint_tree(tmp_path, {
            "repro/net/handler.py": """\
                async def handle(spec):
                    raise ValueError("local")
            """,
        }, select=["error-flow"])
        assert report.clean


class TestOneFlowModel:
    def test_call_graph_built_once_per_run(self, tmp_path, monkeypatch):
        from repro.analysis.imports import ImportMap

        built = {"graphs": 0, "import_maps": 0}
        graph_init, imports_init = CallGraph.__init__, ImportMap.__init__

        def counting_graph(self, sources):
            built["graphs"] += 1
            graph_init(self, sources)

        def counting_imports(self, nodes):
            built["import_maps"] += 1
            imports_init(self, nodes)

        monkeypatch.setattr(CallGraph, "__init__", counting_graph)
        monkeypatch.setattr(ImportMap, "__init__", counting_imports)
        files = {
            "repro/service/pair.py": DEADLOCK_PAIR_SOURCE,
            "repro/net/mod.py": """\
                import time

                async def handler():
                    time.sleep(0.1)
            """,
        }
        report = lint_tree(tmp_path, files)
        assert {"REP210", "REP401"} <= set(codes_of(report))
        # One import map per module, built when the file is parsed: the
        # call graph reads it and builds none of its own.
        assert built == {"graphs": 1, "import_maps": len(files)}
        built.update(graphs=0, import_maps=0)
        lint_tree(tmp_path, files, select=["determinism"])
        assert built == {"graphs": 0, "import_maps": len(files)}

    def test_flow_model_is_freed_when_the_run_returns(self, tmp_path):
        # With the collector off, only reference counting frees: a cycle
        # that reaches the flow model would keep every FunctionInfo.
        gc.collect()
        collecting = gc.isenabled()
        gc.disable()
        try:
            report = lint_tree(tmp_path, SEEDED_VIOLATIONS)
            alive = sum(
                isinstance(obj, FunctionInfo) for obj in gc.get_objects()
            )
        finally:
            if collecting:
                gc.enable()
        assert report.diagnostics
        assert alive == 0


def plain_calls(body: list) -> list:
    """The oracle: ``ast.Call`` nodes under ``body`` in walk order,
    stopping at nested ``def`` / ``lambda``."""
    found: list = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return
        if isinstance(node, ast.Call):
            found.append(node)
        for child in ast.iter_child_nodes(node):
            visit(child)

    for stmt in body:
        visit(stmt)
    return found


class TestOneWalkPerBody:
    def test_each_body_is_walked_once(self, tmp_path, monkeypatch):
        entered: list = []
        graphs: list = []
        other_walks: list = []
        building = [False]
        walk_body, graph_init = callgraph.walk_body, CallGraph.__init__
        walk, visit = ast.walk, ast.NodeVisitor.visit
        function_types = (ast.FunctionDef, ast.AsyncFunctionDef)

        def counting_walk_body(info, assignments):
            entered.append(info.node)
            walk_body(info, assignments)

        def capturing_init(self, sources):
            graphs.append(self)
            building[0] = True
            graph_init(self, sources)
            building[0] = False

        def counting_walk(node):
            if building[0] and isinstance(node, function_types):
                other_walks.append(node)
            return walk(node)

        def counting_visit(self, node):
            if building[0] and isinstance(node, function_types):
                other_walks.append(node)
            return visit(self, node)

        monkeypatch.setattr(callgraph, "walk_body", counting_walk_body)
        monkeypatch.setattr(CallGraph, "__init__", capturing_init)
        monkeypatch.setattr(ast, "walk", counting_walk)
        monkeypatch.setattr(ast.NodeVisitor, "visit", counting_visit)
        report = lint_tree(tmp_path, SEEDED_VIOLATIONS)
        assert not report.clean
        (graph,) = graphs
        # One walk per function body, and no second pass over a body
        # for attribute types or summaries.
        assert len(entered) == len(graph.functions)
        assert {id(node) for node in entered} == {
            id(info.node) for info in graph.functions.values()
        }
        assert other_walks == []

    def test_call_sites_match_an_independent_walk(self):
        sources, errors = _parse_files(discover_files([str(SRC_REPRO)]))
        assert not errors
        graph = CallGraph(sources)
        dump = graph.to_dict()
        assert len(graph.functions) > 500
        for fid, info in graph.functions.items():
            expected = plain_calls(info.node.body)
            assert [id(site.node) for site in info.calls] == [
                id(node) for node in expected
            ], fid
            assert dump[fid]["calls"] == [
                {
                    "line": node.lineno,
                    "text": f"{ast.unparse(node.func)}()",
                    "callee": graph.resolve_call(info, node),
                }
                for node in expected
            ], fid


class TestCallGraphDump:
    def test_dump_to_stdout(self, tmp_path, capsys):
        target = tmp_path / "repro" / "query" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text(textwrap.dedent("""\
            def helper():
                return 1

            def run():
                return helper()
        """))
        assert lint_main([str(tmp_path), "--call-graph", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        run_entry = payload["repro.query.mod:run"]
        assert run_entry["calls"][0]["callee"] == "repro.query.mod:helper"

    def test_dump_to_file_via_repro_cli(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        target = tmp_path / "repro" / "query" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text("def solo():\n    return 1\n")
        out = tmp_path / "graph.json"
        assert cli_main(
            ["lint", str(tmp_path), "--call-graph", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert "repro.query.mod:solo" in payload

    def test_unparseable_file_is_reported_not_skipped(self, tmp_path,
                                                      capsys):
        (tmp_path / "good.py").write_text("def solo():\n    return 1\n")
        (tmp_path / "broken.py").write_text("def broken(:\n")
        assert lint_main([str(tmp_path), "--call-graph", "-"]) == 0
        captured = capsys.readouterr()
        assert "good:solo" in json.loads(captured.out)
        assert "broken.py:1:0: REP001 file could not be analyzed" in (
            captured.err
        )
        assert lint_main(
            [str(tmp_path), "--call-graph", "-", "--strict"]
        ) == 1

    def test_real_tree_dump_is_well_formed(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        out = tmp_path / "graph.json"
        assert lint_main(
            [str(src / "net"), "--call-graph", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        request = payload["repro.net.client:QueryClient.request"]
        callees = {
            call["callee"] for call in request["calls"] if call["callee"]
        }
        assert "repro.net.client:QueryClient._exchange" in callees
