"""Span recorder: self-time arithmetic, wrapping and restoring, trace export."""

import json

from spans import Span, SpanRecorder, format_layer_table, layer_totals


def test_self_time_is_duration_minus_direct_children():
    # request [0, 10] -> step [1, 7] -> forward [2, 5], append [5, 6]; step [8, 9.5]
    spans = [
        Span("request", 0.0, 10.0, -1, "r1"),
        Span("step", 1.0, 7.0, 0, "r1"),
        Span("forward", 2.0, 5.0, 1, "r1"),
        Span("append", 5.0, 6.0, 1, "r1"),
        Span("step", 8.0, 9.5, 0, "r1"),
    ]
    totals = layer_totals(spans)
    assert totals["request"].self_time == 10.0 - (6.0 + 1.5)
    assert totals["step"].calls == 2
    assert totals["step"].total == 7.5
    assert totals["step"].self_time == (6.0 - 4.0) + 1.5
    assert totals["forward"].self_time == 3.0
    # Self times of all layers add up to the root's duration.
    assert sum(entry.self_time for entry in totals.values()) == 10.0
    table = format_layer_table(totals, wall=10.0)
    assert "forward" in table and "30.0%" in table


def test_recorder_nests_spans_and_tags_requests():
    recorder = SpanRecorder()
    with recorder.span("outer", request="req-7"):
        with recorder.span("inner"):
            pass
    with recorder.span("alone"):
        pass
    outer, inner, alone = recorder.spans
    assert (outer.parent, inner.parent, alone.parent) == (-1, 0, -1)
    assert (outer.request, inner.request, alone.request) == ("req-7", "req-7", None)
    assert outer.start <= inner.start <= inner.end <= outer.end


class _Base:
    def inherited(self, value):
        return value + 1


class _Thing(_Base):
    def method(self, value):
        return self.helper(value) * 2

    def helper(self, value):
        return value + 1

    @classmethod
    def build(cls, value):
        return cls().method(value)

    @staticmethod
    def plain(value, out=None):
        if out is not None:
            out.append(value)
        return value


def test_traced_wraps_and_restores_every_kind_of_callable():
    recorder = SpanRecorder()
    seen = []
    recorder.traced(_Thing, "method", "thing.method", hook=lambda rec, args, kwargs, result: seen.append(result))
    recorder.traced(_Thing, "helper", "thing.helper")
    recorder.traced(_Thing, "build", "thing.build")
    recorder.traced(_Thing, "inherited", "thing.inherited")
    out = []
    recorder.traced(_Thing, "plain", "thing.plain", extra_kwargs={"out": out})

    assert _Thing.build(1) == 4
    assert _Thing().inherited(1) == 2
    assert _Thing.plain(5) == 5 and out == [5]
    assert seen == [4]
    names = [span.name for span in recorder.spans]
    assert names == ["thing.build", "thing.method", "thing.helper", "thing.inherited", "thing.plain"]
    assert recorder.spans[2].parent == 1 and recorder.spans[1].parent == 0

    recorder.restore()
    before = len(recorder.spans)
    assert _Thing.build(1) == 4 and _Thing().inherited(1) == 2
    assert len(recorder.spans) == before
    assert "inherited" not in vars(_Thing)
    assert isinstance(vars(_Thing)["build"], classmethod) and isinstance(vars(_Thing)["plain"], staticmethod)


def test_chrome_trace_export(tmp_path):
    recorder = SpanRecorder()
    with recorder.span("outer", request="r0"):
        with recorder.span("inner"):
            pass
    path = tmp_path / "trace.json"
    recorder.write_chrome_trace(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    assert [event["name"] for event in events] == ["outer", "inner"]
    assert all(event["ph"] == "X" and event["dur"] >= 0 for event in events)
    assert events[1]["args"] == {"id": 1, "parent": 0, "request": "r0"}
