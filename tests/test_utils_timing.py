"""Unit tests for repro.obs.timing."""

import time

import pytest

from repro.obs.timing import StageRecorder, Timer
from repro.obs.trace import NULL_SPAN, Span, current_span


class TestTimer:
    def test_measures_elapsed(self):
        with Timer() as timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.009

    def test_resets_between_uses(self):
        timer = Timer()
        with timer:
            pass
        first = timer.elapsed
        with timer:
            time.sleep(0.005)
        assert timer.elapsed >= first


class TestStageRecorder:
    def test_reentry_accumulates(self):
        recorder = StageRecorder()
        with recorder.stage("a"):
            time.sleep(0.005)
        first = recorder.seconds["a"]
        with recorder.stage("a"):
            time.sleep(0.005)
        with recorder.stage("b"):
            pass
        assert first >= 0.004
        assert recorder.seconds["a"] >= first + 0.004
        assert list(recorder.seconds) == ["a", "b"]
        assert recorder.total == pytest.approx(sum(recorder.seconds.values()))

    def test_exception_inside_stage_still_records(self):
        root = Span("root")
        recorder = StageRecorder(root)
        with pytest.raises(ValueError):
            with root, recorder.stage("boom"):
                time.sleep(0.002)
                raise ValueError("x")
        assert recorder.seconds["boom"] >= 0.001
        (child,) = root.children
        assert child.name == "boom"
        assert child.status == "error"
        assert current_span() is NULL_SPAN

    def test_null_span_path_allocates_no_span(self):
        recorder = StageRecorder()
        with recorder.stage("a") as span:
            assert span is NULL_SPAN
            assert current_span() is NULL_SPAN
        assert "a" in recorder.seconds

    def test_real_span_gets_same_named_child(self):
        root = Span("root")
        recorder = StageRecorder(root)
        with root, recorder.stage("a") as span:
            assert current_span() is span
        assert [child.name for child in root.children] == ["a"]
        assert span.elapsed == pytest.approx(recorder.seconds["a"], abs=1e-3)
