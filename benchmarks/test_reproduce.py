"""``reproduce.py`` on fabricated measurements: no sweep runs."""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks import reproduce  # noqa: E402


def fabricated(point, cpu_ms=None):
    """Every invariant holds; L=3 is the fastest unless ``cpu_ms`` is given."""
    return reproduce.Measured(
        10.0 / point.max_length if cpu_ms is None else cpu_ms,
        paths=10 ** point.max_length * round(10 * (2 - point.beta)),
        size_bytes=100 ** point.max_length,
        spaces=((9.0, 4.0, 1.0),) * (point.method == "engine"),
        answers=(None if point.method == "sql" else {("m",): 0.95},) * 3)


def run(tmp_path, measure_point):
    code = reproduce.run(measure_point=measure_point, out=str(tmp_path / "r.json"))
    return code, json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))


def test_every_row_yields_claim_measurement_and_verdict(tmp_path):
    code, records = run(tmp_path, fabricated)
    assert code == 0
    assert len(records) == sum(len(row.claims) for row in reproduce.TABLE)
    assert {r["figure"] for r in records} == {row.figure for row in reproduce.TABLE}
    for r in records:
        assert r["claim"] and r["measured"] and r["cpus"] >= 1
        assert r["verdict"] in (reproduce.HOLDS, reproduce.SHAPE_FAILS)


def test_false_timing_shape_is_recorded_and_does_not_gate(tmp_path):
    code, records = run(tmp_path, lambda p: fabricated(p, float(p.max_length)))
    verdict = {(r["figure"], r["claim"]): r["verdict"] for r in records}
    assert code == 0 and verdict["Fig. 6(e)", "L=3 always ahead"] == reproduce.SHAPE_FAILS
    assert {r["verdict"] for r in records if r["kind"] == "invariant"} == {reproduce.HOLDS}


def test_false_invariant_fails_the_run_and_names_its_figure(tmp_path, capsys):
    wrong = reproduce.Measured(answers=({("m",): 0.9},))
    code, records = run(tmp_path, lambda p: wrong if p.graph == ("dblp",)
                        and p.max_length == 2 else fabricated(p))
    assert code == 1 and "invariant violated: Fig. 7(g)" in capsys.readouterr().err
    assert [r["figure"] for r in records if r["verdict"] == reproduce.VIOLATED] == [
        "Fig. 7(g)"]
