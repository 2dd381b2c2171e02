"""Unit tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import main
from repro.peg import load_peg
from tests.conftest import write_format5_bundle


@pytest.fixture
def peg_file(tmp_path):
    path = str(tmp_path / "tiny.peg")
    code = main(
        [
            "generate", "--kind", "synthetic", "--size", "60",
            "--seed", "3", "--out", path,
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_generate_synthetic(self, peg_file, capsys):
        peg = load_peg(peg_file)
        assert peg.num_nodes >= 60

    def test_generate_dblp(self, tmp_path, capsys):
        path = str(tmp_path / "dblp.peg")
        assert main(
            ["generate", "--kind", "dblp", "--size", "60", "--out", path]
        ) == 0
        peg = load_peg(path)
        assert peg.conditional
        out = capsys.readouterr().out
        assert "entities" in out

    def test_generate_imdb(self, tmp_path):
        path = str(tmp_path / "imdb.peg")
        assert main(
            ["generate", "--kind", "imdb", "--size", "60", "--out", path]
        ) == 0
        assert not load_peg(path).conditional


class TestInfo:
    def test_info_prints_stats(self, peg_file, capsys):
        assert main(["info", peg_file]) == 0
        out = capsys.readouterr().out
        assert "nodes" in out
        assert "label alphabet" in out

    def test_info_missing_file(self, tmp_path, capsys):
        assert main(["info", str(tmp_path / "ghost.peg")]) == 1
        assert "error" in capsys.readouterr().err


class TestQuery:
    def write_spec(self, tmp_path, nodes, edges):
        spec = tmp_path / "query.json"
        spec.write_text(json.dumps({"nodes": nodes, "edges": edges}))
        return str(spec)

    def test_query_runs(self, peg_file, tmp_path, capsys):
        spec = self.write_spec(
            tmp_path, {"a": "L0", "b": "L1"}, [["a", "b"]]
        )
        assert main(
            ["query", peg_file, "--spec", spec, "--alpha", "0.2"]
        ) == 0
        out = capsys.readouterr().out
        assert "matches" in out

    def test_query_explain(self, peg_file, tmp_path, capsys):
        spec = self.write_spec(
            tmp_path, {"a": "L0", "b": "L1"}, [["a", "b"]]
        )
        assert main(
            ["query", peg_file, "--spec", spec, "--alpha", "0.2", "--explain"]
        ) == 0
        out = capsys.readouterr().out
        assert "decomposition:" in out
        assert "search space:" in out

    def test_query_bad_spec(self, peg_file, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(["not", "a", "spec"]))
        assert main(
            ["query", peg_file, "--spec", str(spec)]
        ) == 1
        assert "error" in capsys.readouterr().err

    def test_query_inline_pattern(self, peg_file, capsys):
        assert main(
            [
                "query", peg_file,
                "--pattern", "(a:L0)-(b:L1)",
                "--alpha", "0.2",
            ]
        ) == 0
        assert "matches" in capsys.readouterr().out

    def test_query_bad_pattern(self, peg_file, capsys):
        assert main(
            ["query", peg_file, "--pattern", "(a)-(b)"]
        ) == 1
        assert "error" in capsys.readouterr().err

    def test_query_limit(self, peg_file, tmp_path, capsys):
        spec = self.write_spec(tmp_path, {"a": "L0"}, [])
        assert main(
            [
                "query", peg_file, "--spec", spec,
                "--alpha", "0.3", "--limit", "2",
                "--max-length", "1",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "matches" in out

    def test_query_negative_limit_rejected(self, peg_file, tmp_path, capsys):
        spec = self.write_spec(tmp_path, {"a": "L0"}, [])
        with pytest.raises(SystemExit) as excinfo:
            main(["query", peg_file, "--spec", spec, "--limit", "-2"])
        assert excinfo.value.code == 2
        assert "--limit: must be >= 0" in capsys.readouterr().err

    def test_query_trace_renders_span_tree(self, peg_file, tmp_path, capsys):
        spec = self.write_spec(
            tmp_path,
            {"a": "L0", "b": "L1", "c": "L0", "d": "L1"},
            [["a", "b"], ["b", "c"], ["c", "d"]],
        )
        assert main(
            [
                "query", peg_file, "--spec", spec, "--alpha", "0.2",
                "--max-length", "1", "--trace",
            ]
        ) == 0
        out = capsys.readouterr().out
        for stage in ("plan", "lookup", "partition", "link_build",
                      "reduce", "match"):
            assert stage in out
        assert "store_reads" in out
        assert "ms" in out

    def test_query_trace_with_explain(self, peg_file, tmp_path, capsys):
        spec = self.write_spec(tmp_path, {"a": "L0", "b": "L1"}, [["a", "b"]])
        assert main(
            [
                "query", peg_file, "--spec", spec, "--alpha", "0.2",
                "--explain", "--trace",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "decomposition:" in out
        assert "lookup" in out


class TestMetricsCommand:
    def test_metrics_prints_prometheus_exposition(
        self, peg_file, tmp_path, capsys
    ):
        spec = tmp_path / "query.json"
        spec.write_text(json.dumps(
            {"nodes": {"a": "L0", "b": "L1"}, "edges": [["a", "b"]]}
        ))
        assert main(
            [
                "metrics", peg_file, "--spec", str(spec),
                "--alpha", "0.2", "--repeat", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_queries_total counter" in out
        assert "# TYPE repro_query_seconds histogram" in out
        assert 'le="+Inf"' in out
        assert "repro_query_seconds_count" in out


class TestVersion:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestServe:
    def write_workload(self, tmp_path):
        workload = tmp_path / "workload.jsonl"
        lines = [
            json.dumps({"nodes": {"a": "L0", "b": "L1"},
                        "edges": [["a", "b"]]}),
            json.dumps({"nodes": {"x": "L1", "y": "L0"},
                        "edges": [["x", "y"]], "alpha": 0.3}),
        ]
        workload.write_text("\n".join(lines))
        return str(workload)

    def test_cold_then_warm_round_trip(self, peg_file, tmp_path, capsys):
        workload = self.write_workload(tmp_path)
        snapshot = str(tmp_path / "bundle")

        assert main(
            [
                "serve", peg_file, "--snapshot", snapshot,
                "--queries", workload, "--alpha", "0.2",
                "--repeat", "2", "--stats",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "cold start" in out
        assert "query 0" in out and "query 1" in out
        assert "hits" in out

        assert main(
            [
                "serve", peg_file, "--snapshot", snapshot,
                "--queries", workload, "--alpha", "0.2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "warm start" in out
        assert "matches" in out

    def test_serve_without_snapshot(self, peg_file, tmp_path, capsys):
        workload = self.write_workload(tmp_path)
        assert main(
            ["serve", peg_file, "--queries", workload, "--alpha", "0.2"]
        ) == 0
        assert "cold start" in capsys.readouterr().out

    def test_serve_metrics_every_prints_snapshot_lines(
        self, peg_file, tmp_path, capsys
    ):
        workload = self.write_workload(tmp_path)
        assert main(
            [
                "serve", peg_file, "--queries", workload, "--alpha", "0.2",
                "--repeat", "2", "--metrics-every", "1",
            ]
        ) == 0
        out = capsys.readouterr().out
        metric_lines = [l for l in out.splitlines()
                        if l.startswith("[metrics]")]
        assert len(metric_lines) == 2
        assert "hit_rate=" in metric_lines[0]
        assert "p95=" in metric_lines[1]

    def test_serve_json_list_workload(self, peg_file, tmp_path, capsys):
        workload = tmp_path / "workload.json"
        workload.write_text(json.dumps(
            [{"nodes": {"a": "L0"}, "edges": []}]
        ))
        assert main(
            [
                "serve", peg_file, "--queries", str(workload),
                "--alpha", "0.3",
            ]
        ) == 0
        assert "query 0" in capsys.readouterr().out

    def test_serve_bad_workload(self, peg_file, tmp_path, capsys):
        workload = tmp_path / "workload.jsonl"
        workload.write_text(json.dumps({"edges": []}))
        assert main(
            ["serve", peg_file, "--queries", str(workload)]
        ) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["0.5", [0.5], True])
    def test_serve_rejects_malformed_workload_alpha(
        self, peg_file, tmp_path, capsys, alpha
    ):
        workload = tmp_path / "workload.jsonl"
        workload.write_text(json.dumps(
            {"nodes": {"a": "L0"}, "edges": [], "alpha": alpha}
        ))
        assert main(["serve", peg_file, "--queries", str(workload)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: workload entry rejected: alpha")
        assert len(err.splitlines()) == 1

    def test_serve_bad_alpha_fails_before_the_offline_phase(
        self, peg_file, tmp_path, capsys
    ):
        workload = self.write_workload(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main([
                "serve", peg_file, "--snapshot", str(tmp_path / "bundle"),
                "--queries", workload, "--alpha", "7",
            ])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "cold start" not in captured.out
        assert "--alpha: alpha must be in (0, 1], got 7.0" in captured.err
        assert not (tmp_path / "bundle").exists()

    @pytest.mark.parametrize("command", [
        ["query", "{peg}", "--pattern", "(a:L0)"],
        ["metrics", "{peg}", "--pattern", "(a:L0)"],
        ["plan", "{peg}", "--pattern", "(a:L0)"],
        ["serve", "{peg}"],
        ["client", "127.0.0.1:1"],
    ])
    @pytest.mark.parametrize("alpha", ["0", "1.5", "nan", "abc"])
    def test_every_alpha_is_checked_at_parse_time(
        self, peg_file, capsys, command, alpha
    ):
        argv = [arg.format(peg=peg_file) for arg in command]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--alpha", alpha])
        assert excinfo.value.code == 2
        assert "argument --alpha:" in capsys.readouterr().err


class TestBuild:
    def test_build_then_warm_serve(self, peg_file, tmp_path, capsys):
        bundle = str(tmp_path / "bundle")
        assert main(
            [
                "build", peg_file, "--out", bundle,
                "--max-length", "2", "--beta", "0.1",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "wrote offline bundle" in out and "paths" in out

        workload = tmp_path / "w.jsonl"
        workload.write_text(json.dumps(
            {"nodes": {"a": "L0", "b": "L1"}, "edges": [["a", "b"]]}
        ))
        assert main(
            [
                "serve", peg_file, "--snapshot", bundle,
                "--queries", str(workload), "--alpha", "0.2",
            ]
        ) == 0
        assert "warm start" in capsys.readouterr().out

    def test_build_processes_match_serial(self, peg_file, tmp_path, capsys):
        """The pool parallelizes the enumeration into the one store."""
        from repro.index.bundle import load_offline

        common = ["--max-length", "1", "--beta", "0.2"]
        parallel, serial = str(tmp_path / "p"), str(tmp_path / "s")
        assert main(
            ["build", peg_file, "--out", parallel, "--build-processes", "2"]
            + common
        ) == 0
        assert "wrote offline bundle" in capsys.readouterr().out
        assert main(["build", peg_file, "--out", serial] + common) == 0
        built, _ = load_offline(parallel)
        expected, _ = load_offline(serial)
        assert built.num_paths() == expected.num_paths()
        for seq in expected.histograms:
            assert built.lookup(seq, 0.2) == expected.lookup(seq, 0.2)

    def test_rebuild_into_used_directory_drops_stale_data(
        self, peg_file, tmp_path
    ):
        from repro.index.bundle import load_offline

        bundle = str(tmp_path / "bundle")
        # First build indexes far more paths (low beta) than the second;
        # without cleanup the reopened store would still serve them.
        assert main(
            [
                "build", peg_file, "--out", bundle,
                "--max-length", "2", "--beta", "0.05",
            ]
        ) == 0
        assert main(
            [
                "build", peg_file, "--out", bundle,
                "--max-length", "1", "--beta", "0.5",
            ]
        ) == 0
        index, _ = load_offline(bundle)
        fresh = str(tmp_path / "fresh")
        assert main(
            [
                "build", peg_file, "--out", fresh,
                "--max-length", "1", "--beta", "0.5",
            ]
        ) == 0
        expected, _ = load_offline(fresh)
        assert index.num_paths() == expected.num_paths()
        for seq in expected.histograms:
            assert len(index.lookup(seq, 0.5)) == len(
                expected.lookup(seq, 0.5)
            )

    def test_build_over_a_format5_bundle_sweeps_its_shards(
        self, peg_file, tmp_path
    ):
        from repro.index.bundle import load_offline
        from repro.storage import DiskPathStore

        bundle = str(tmp_path / "bundle")
        write_format5_bundle(
            load_peg(peg_file), bundle, max_length=1, beta=0.2
        )
        assert main(
            [
                "build", peg_file, "--out", bundle,
                "--max-length", "1", "--beta", "0.2",
            ]
        ) == 0
        index, _ = load_offline(bundle)
        assert isinstance(index.store, DiskPathStore)
        assert index.num_paths() > 0
        assert not any(
            name.startswith("shard-") for name in os.listdir(bundle)
        )
        index.store.close()

    def test_serve_build_processes_need_no_snapshot(
        self, peg_file, tmp_path, capsys
    ):
        workload = tmp_path / "w.jsonl"
        workload.write_text(json.dumps(
            {"nodes": {"a": "L0", "b": "L1"}, "edges": [["a", "b"]]}
        ))
        outputs = []
        for extra in ([], ["--build-processes", "2"]):
            assert main(
                ["serve", peg_file, "--queries", str(workload),
                 "--max-length", "1", "--alpha", "0.2"] + extra
            ) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_negative_build_processes_rejected(self, peg_file, tmp_path, capsys):
        assert main(
            ["build", peg_file, "--out", str(tmp_path / "b"),
             "--build-processes", "-1"]
        ) == 1
        assert "build_processes" in capsys.readouterr().err


class TestApplyUpdates:
    @staticmethod
    def _write_ops(tmp_path, ops):
        path = str(tmp_path / "ops.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            for op in ops:
                handle.write(json.dumps(op) + "\n")
        return path

    def test_apply_updates_bundle_round_trip(self, peg_file, tmp_path, capsys):
        bundle = str(tmp_path / "bundle")
        assert main(
            ["build", peg_file, "--out", bundle,
             "--max-length", "2", "--beta", "0.05"]
        ) == 0
        ops = self._write_ops(tmp_path, [
            {"op": "add_entity", "refs": ["dyn-1"],
             "labels": {"L0": 0.6, "L1": 0.4}, "existence": 0.9},
            {"op": "add_edge", "refs_a": [0], "refs_b": ["dyn-1"],
             "edge": 0.8},
            {"op": "update_label_probability", "refs": [1],
             "labels": {"L1": 1.0}},
        ])
        out_peg = str(tmp_path / "updated.peg")
        log = str(tmp_path / "mutations.log")
        assert main(
            ["apply-updates", peg_file, "--ops", ops, "--snapshot", bundle,
             "--log", log, "--out", out_peg]
        ) == 0
        out = capsys.readouterr().out
        assert "applied 3 ops" in out
        assert "paths enumerated" in out and "delta paths" in out
        assert "compacted" in out

        from repro.delta import MutationLog
        from repro.query import QueryEngine, QueryGraph

        with MutationLog(log) as mutation_log:
            assert len(mutation_log) == 3

        peg = load_peg(out_peg)
        reopened = QueryEngine.from_saved(peg, bundle)
        rebuilt = QueryEngine(peg, max_length=2, beta=0.05)
        query = QueryGraph({"a": "L0", "b": "L1"}, [("a", "b")])
        def keys(matches):
            return sorted(
                (m.nodes, round(m.probability, 9)) for m in matches
            )
        assert keys(reopened.query(query, 0.2).matches) == keys(
            rebuilt.query(query, 0.2).matches
        )

    def test_apply_updates_without_snapshot(self, peg_file, tmp_path, capsys):
        ops = self._write_ops(tmp_path, [
            {"op": "update_label_probability", "refs": [2],
             "labels": {"L0": 1.0}},
        ])
        assert main(["apply-updates", peg_file, "--ops", ops]) == 0
        out = capsys.readouterr().out
        assert "applied 1 ops" in out
        # Default output overwrites the input PEG.
        updated = load_peg(peg_file)
        assert updated.label_probability(frozenset({2}), "L0") == 1.0

    def test_apply_updates_rejects_bad_op(self, peg_file, tmp_path, capsys):
        ops = self._write_ops(tmp_path, [
            {"op": "update_label_probability", "refs": ["missing"],
             "labels": {"L0": 1.0}},
        ])
        assert main(["apply-updates", peg_file, "--ops", ops]) == 1
        assert "error" in capsys.readouterr().err

    def test_no_compact_conflicts_with_snapshot(self, peg_file, tmp_path,
                                                capsys):
        ops = self._write_ops(tmp_path, [
            {"op": "update_label_probability", "refs": [2],
             "labels": {"L0": 1.0}},
        ])
        assert main(
            ["apply-updates", peg_file, "--ops", ops,
             "--snapshot", str(tmp_path / "b"), "--no-compact"]
        ) == 1
        assert "no-compact" in capsys.readouterr().err


class TestPlan:
    def write_spec(self, tmp_path, nodes, edges):
        path = tmp_path / "plan-spec.json"
        path.write_text(json.dumps({"nodes": nodes, "edges": edges}))
        return str(path)

    def test_plan_prints_decomposition_and_cache_hit(
        self, peg_file, tmp_path, capsys
    ):
        spec = self.write_spec(
            tmp_path,
            {"a": "L0", "b": "L1", "c": "L0"},
            [["a", "b"], ["b", "c"], ["a", "c"]],
        )
        assert main(
            ["plan", peg_file, "--spec", spec, "--alpha", "0.3",
             "--strategy", "exact", "--repeat", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "source=exact" in out
        assert "source=cache" in out
        assert "plan cache: 1 hits, 1 misses" in out
        assert "P0:" in out

    def test_plan_inline_pattern(self, peg_file, capsys):
        assert main(
            ["plan", peg_file, "--pattern", "(a:L0)-(b:L1)", "--repeat", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "strategy=exact source=exact" in out
        assert "est. cardinality" in out

    def test_plan_greedy_baseline_stays_reachable(self, peg_file, capsys):
        assert main(
            ["plan", peg_file, "--pattern", "(a:L0)-(b:L1)",
             "--strategy", "greedy", "--repeat", "1"]
        ) == 0
        assert "strategy=greedy source=greedy" in capsys.readouterr().out

    def test_plan_random_strategy_seeded(self, peg_file, capsys):
        assert main(
            ["plan", peg_file, "--pattern", "(a:L0)-(b:L1)",
             "--strategy", "random", "--repeat", "2"]
        ) == 0
        out = capsys.readouterr().out
        # Seeded random plans are cacheable: the second round hits.
        assert "source=cache" in out

    def test_plan_rejects_bad_alpha(self, peg_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["plan", peg_file, "--pattern", "(a:L0)-(b:L1)",
                  "--alpha", "1.5"])
        assert excinfo.value.code == 2
        assert "alpha must be in (0, 1]" in capsys.readouterr().err

    def test_plan_bad_spec(self, peg_file, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(["not", "a", "spec"]))
        assert main(["plan", peg_file, "--spec", str(path)]) == 1
        assert "error" in capsys.readouterr().err


class TestQueryExactStrategy:
    def test_query_accepts_exact_decomposition(self, peg_file, tmp_path,
                                               capsys):
        spec = tmp_path / "exact-spec.json"
        spec.write_text(json.dumps({
            "nodes": {"a": "L0", "b": "L1"},
            "edges": [["a", "b"]],
        }))
        assert main(
            ["query", peg_file, "--spec", str(spec), "--alpha", "0.3",
             "--decomposition", "exact", "--explain"]
        ) == 0
        out = capsys.readouterr().out
        assert "plan: strategy=exact" in out
        assert "matches:" in out

    def test_query_plans_exact_by_default(self, peg_file, capsys):
        assert main(
            ["query", peg_file, "--pattern", "(a:L0)-(b:L1)",
             "--alpha", "0.3", "--explain"]
        ) == 0
        assert "plan: strategy=exact" in capsys.readouterr().out
