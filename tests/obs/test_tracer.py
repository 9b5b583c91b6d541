"""Tracer core: span nesting, counter semantics, the dict form of a
span tree, the no-op path."""

import json
import time

import pytest

from repro.obs import (
    NULL_TRACER,
    InMemorySink,
    NullTracer,
    Span,
    Tracer,
)


class TestSpanNesting:
    def test_children_nest_under_parent(self, tracer, mem_sink):
        with tracer.span("outer"):
            with tracer.span("inner_a"):
                pass
            with tracer.span("inner_b"):
                with tracer.span("leaf"):
                    pass
        assert len(mem_sink.spans) == 1  # only the root is emitted
        root = mem_sink.spans[0]
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner_a", "inner_b"]
        assert [c.name for c in root.children[1].children] == ["leaf"]

    def test_sibling_roots_emitted_in_order(self, tracer, mem_sink):
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [s.name for s in mem_sink.spans] == ["first", "second"]

    def test_current_tracks_innermost(self, tracer):
        assert tracer.current is None
        with tracer.span("a") as a:
            assert tracer.current is a
            with tracer.span("b") as b:
                assert tracer.current is b
            assert tracer.current is a
        assert tracer.current is None

    def test_durations_are_monotonic_and_contained(self, tracer, mem_sink):
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.002)
        root = mem_sink.spans[0]
        inner = root.children[0]
        assert inner.duration_s >= 0.002
        assert root.duration_s >= inner.duration_s
        assert root.finished and inner.finished

    def test_wall_start_is_set(self, tracer, mem_sink):
        before = time.time()
        with tracer.span("s"):
            pass
        after = time.time()
        assert before <= mem_sink.spans[0].wall_start <= after

    def test_exception_still_closes_and_emits(self, tracer, mem_sink):
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        assert [s.name for s in mem_sink.spans] == ["outer"]
        assert mem_sink.spans[0].finished
        assert tracer.current is None

    def test_walk_is_depth_first(self, tracer, mem_sink):
        with tracer.span("r"):
            with tracer.span("a"):
                with tracer.span("a1"):
                    pass
            with tracer.span("b"):
                pass
        names = [(s.name, d) for s, d in mem_sink.spans[0].walk()]
        assert names == [("r", 0), ("a", 1), ("a1", 2), ("b", 1)]

    def test_find(self, tracer, mem_sink):
        with tracer.span("r"):
            with tracer.span("a"):
                tracer.count("x", 1)
        root = mem_sink.spans[0]
        assert root.find("a").counter("x") == 1
        assert root.find("missing") is None


class TestCounters:
    def test_count_adds_to_innermost_span(self, tracer, mem_sink):
        with tracer.span("outer"):
            tracer.count("n", 2)
            with tracer.span("inner"):
                tracer.count("n", 5)
            tracer.count("n", 1)
        root = mem_sink.spans[0]
        assert root.counter("n") == 3
        assert root.children[0].counter("n") == 5

    def test_total_counters_aggregate_over_tree(self, tracer, mem_sink):
        with tracer.span("outer"):
            tracer.count("n", 2)
            with tracer.span("inner"):
                tracer.count("n", 5)
                tracer.count("m", 1)
        totals = mem_sink.spans[0].total_counters()
        assert totals == {"n": 7, "m": 1}

    def test_count_outside_any_span_is_dropped(self, tracer, mem_sink):
        tracer.count("orphan", 7)
        with tracer.span("s"):
            pass
        assert mem_sink.spans[0].counter("orphan") == 0

    def test_counter_default(self):
        span = Span("x")
        assert span.counter("absent") == 0
        assert span.counter("absent", -1) == -1


def _sample_tree(tracer):
    with tracer.span("ask"):
        tracer.count("n", 4)
        with tracer.span("match"):
            tracer.count("tokens_matched", 1)
        with tracer.span("schema"):
            with tracer.span("schema_generator"):
                tracer.count("paths_popped", 3)


class TestSpanDict:
    def test_to_dict_round_trip_shape(self, tracer, mem_sink):
        _sample_tree(tracer)
        root = mem_sink.last
        d = root.to_dict()
        assert set(d) == {
            "name", "offset_s", "duration_s", "wall_start", "counters",
            "children",
        }
        assert d["offset_s"] == 0.0
        assert d["counters"] == {"n": 4}
        assert d["duration_s"] == root.duration_s
        assert [c["name"] for c in d["children"]] == ["match", "schema"]
        # offsets are relative to the root, at every depth
        generator = root.find("schema_generator")
        assert d["children"][1]["children"][0]["offset_s"] == (
            generator._mono_start - root._mono_start
        )
        rebuilt = Span.from_dict(d)
        assert rebuilt.finished
        assert [(s.name, depth) for s, depth in rebuilt.walk()] == [
            (s.name, depth) for s, depth in root.walk()
        ]
        assert rebuilt.total_counters() == root.total_counters()
        assert rebuilt.to_dict() == d

    def test_write_read_round_trip_preserves_to_dict(self, tracer, mem_sink):
        """A span tree written as JSON and read back is the same tree:
        nested children, counters, durations and offsets included."""
        _sample_tree(tracer)
        original = mem_sink.last.to_dict()
        recovered = json.loads(json.dumps(original, sort_keys=True))
        assert recovered == original
        assert Span.from_dict(recovered).to_dict() == original


class TestNoOpPath:
    def test_disabled_tracer_records_nothing(self):
        sink = InMemorySink()
        tracer = Tracer([sink], enabled=False)
        with tracer.span("outer") as span:
            tracer.count("n", 3)
            with tracer.span("inner"):
                tracer.count("n", 1)
        assert sink.spans == []
        assert span.counters == {}
        assert tracer.current is None

    def test_null_tracer_is_disabled_singleton(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.sinks == []

    def test_null_tracer_span_is_shared_noop(self):
        ctx_a = NULL_TRACER.span("a")
        ctx_b = NULL_TRACER.span("b")
        assert ctx_a is ctx_b  # one shared context object, no allocation
        with ctx_a as span:
            NULL_TRACER.count("n", 10)
        assert span.counters == {}
        assert NULL_TRACER.current is None

    def test_null_tracer_nests_without_state(self):
        with NULL_TRACER.span("outer"):
            with NULL_TRACER.span("inner"):
                NULL_TRACER.count("x")
        assert NULL_TRACER._stack == []
