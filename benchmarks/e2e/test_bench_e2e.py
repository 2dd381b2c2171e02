"""Self-test of the end-to-end benchmark at toy sizes (``--tiny``).

Checks the harness, not the program's speed: every workload and metric
named in ``BENCHMARK.json`` is emitted, names are well formed, the
percentile helper refuses thin tails, the staged replay returns what
``QueryEngine.query`` returns, and ``compare.py`` reaches the verdicts
its documentation promises.
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from replay import StagedReplay  # noqa: E402

SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_spec_is_well_formed():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOAD_NAMES)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += list(workloads.WORKLOAD_NAMES)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert SPEC["paths"] == ["benchmarks/e2e"]


def test_percentile_refuses_a_thin_tail():
    assert measure.percentile(list(range(1, 201)), 95) == 190
    assert measure.percentile(list(range(20)), 50) == 9
    with pytest.raises(ValueError):
        measure.percentile(list(range(199)), 95)
    with pytest.raises(ValueError):
        measure.percentile(list(range(999)), 99)


@pytest.mark.parametrize("trace", (False, True))
@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_tiny_run_emits_every_metric(name, trace):
    record = run.run_workload(name, seed=3, seconds=0.1, trace=trace, tiny=True)
    result = record["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(record["environment"]) == {"nproc", "python", "numpy", "repro", "seed"}
    assert not os.listdir(run.WORK_DIR)


def test_staged_replay_is_the_engine():
    inputs = workloads.lookup_heavy(seed=3, tiny=True)
    engine = run.build_engine(inputs)
    replay = StagedReplay(engine)
    for request, (query, alpha) in enumerate(inputs.pool):
        assert measure.match_digest(
            replay.run(request, query, alpha)
        ) == measure.match_digest(engine.query(query, alpha).matches)
    assert replay.requests == len(inputs.pool)
    roots = [row for row in replay.log.spans if row[0] == "request"]
    assert len(roots) == len(inputs.pool)
    # Self time: a root's own time is what its stages do not cover.
    self_s = replay.log.self_seconds()
    assert sorted(self_s) == list(range(len(inputs.pool)))
    for name, start, end, _parent, request in roots:
        covered = sum(
            e - s for n, s, e, _p, r in replay.log.spans
            if r == request and n != "request"
        )
        assert self_s[request]["request"] == pytest.approx(end - start - covered)


def test_same_seed_same_inputs():
    first, again = workloads.wire_zipf(5), workloads.wire_zipf(5)
    other = workloads.wire_zipf(6)
    assert first.zipf_trace() == again.zipf_trace() != other.zipf_trace()
    assert len(set(first.zipf_trace())) > first.cache_size
    assert first.pass_order(2) == again.pass_order(2) != other.pass_order(2)
    assert [workloads.query_spec(q) for q, _ in first.pool] == [
        workloads.query_spec(q) for q, _ in other.pool
    ]


def _runs_file(path, values):
    runs = [
        {"workload": "match_heavy", "trace": 0, "result": {"metrics": {
            "query_p50_ms": {"value": value, "unit": "ms"}}}}
        for value in values
    ]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_verdicts(tmp_path):
    steady = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95]
    base = _runs_file(tmp_path / "a.json", steady)
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}["query_p50_ms"]
    same = _runs_file(tmp_path / "b.json", steady)
    slower = _runs_file(tmp_path / "c.json", [v * (1 + 2 * bound) for v in steady])
    noisy = _runs_file(tmp_path / "d.json", [6.0, 14.0, 8.0, 12.0, 10.0, 10.0])
    verdicts = {
        name: compare.compare(base, other, SPEC)[0]["verdict"]
        for name, other in (("same", same), ("slower", slower), ("noisy", noisy))
    }
    assert verdicts == {"same": "ok", "slower": "regressed", "noisy": "unresolved"}
