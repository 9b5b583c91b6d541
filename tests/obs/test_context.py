"""Request-scoped trace context, the sampled trace buffer, and the
exporters (repro.obs.context).

The buffer's contract under test: capture is always on, *admission* is
sampled — deterministically from the trace id — and triggered traces
(degraded / shed / failed / retried / slow) bypass sampling entirely.
The Chrome exporter must produce documents its own validator accepts,
and a JSONL round trip must preserve the span-tree layout.
"""

import io
import json
import threading

import pytest

from repro.obs.context import (
    RequestTrace,
    TraceBuffer,
    TraceContext,
    activate,
    chrome_trace_events,
    current_context,
    current_trace_id,
    deactivate,
    load_jsonl,
    synthetic_span,
    validate_chrome_trace,
)


def make_trace(
    trace_id="00000000000000aa",
    outcome="answered",
    duration_s=0.010,
    retries=0,
    with_tree=True,
    tenant=None,
):
    """One RequestTrace with a small but realistic span tree."""
    context = TraceContext(
        trace_id=trace_id,
        query="midnight",
        tenant=tenant,
        submitted_wall=1000.0,
        submitted_mono=0.0,
    )
    root = None
    if with_tree:
        root = synthetic_span("request", 1000.0, duration_s)
        root.children.append(
            synthetic_span("queue", 1000.0, duration_s / 5)
        )
        ask = synthetic_span(
            "ask",
            1000.0 + duration_s / 5,
            duration_s * 3 / 5,
            mono_start=duration_s / 5,
            counters={"tuples": 7},
        )
        ask.children.append(
            synthetic_span(
                "match",
                ask.wall_start,
                duration_s / 5,
                mono_start=ask._mono_start,
            )
        )
        root.children.append(ask)
    return RequestTrace(
        context=context,
        root=root,
        outcome=outcome,
        duration_s=duration_s,
        queue_wait_s=duration_s / 5,
        retries=retries,
        worker="precis-worker-0",
    )


class TestTraceContext:
    def test_mint_ids_are_unique_hex(self):
        ids = {TraceContext.mint("q").trace_id for __ in range(200)}
        assert len(ids) == 200
        for trace_id in ids:
            assert len(trace_id) == 16
            int(trace_id, 16)  # must be valid hex

    def test_dict_round_trip(self):
        ctx = TraceContext.mint(
            "midnight", tenant="acme", priority="batch", deadline_s=0.25
        )
        back = TraceContext.from_dict(
            json.loads(json.dumps(ctx.to_dict()))
        )
        assert back.trace_id == ctx.trace_id
        assert back.tenant == "acme"
        assert back.priority == "batch"
        assert back.deadline_s == 0.25
        assert back.submitted_wall == ctx.submitted_wall

    def test_activate_scopes_the_ambient_id(self):
        assert current_trace_id() is None
        ctx = TraceContext.mint("q")
        token = activate(ctx)
        try:
            assert current_context() is ctx
            assert current_trace_id() == ctx.trace_id
        finally:
            deactivate(token)
        assert current_trace_id() is None

    def test_context_does_not_leak_across_threads(self):
        ctx = TraceContext.mint("q")
        token = activate(ctx)
        seen: list = ["sentinel"]

        def probe():
            seen[0] = current_trace_id()

        try:
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            deactivate(token)
        assert seen[0] is None  # a fresh thread sees no ambient context


class TestSampling:
    def test_deterministic_per_trace_id(self):
        buffer = TraceBuffer(sample_rate=0.5)
        decisions = {
            trace_id: buffer.sampled(trace_id)
            for trace_id in (TraceContext.mint("q").trace_id
                             for __ in range(64))
        }
        again = TraceBuffer(sample_rate=0.5)
        for trace_id, decision in decisions.items():
            assert again.sampled(trace_id) == decision

    def test_edge_rates(self):
        assert TraceBuffer(sample_rate=1.0).sampled("ff" * 8)
        assert not TraceBuffer(sample_rate=0.0).sampled("00" * 8)

    def test_rate_roughly_respected(self):
        buffer = TraceBuffer(sample_rate=0.1)
        kept = sum(
            buffer.sampled(TraceContext.mint("q").trace_id)
            for __ in range(2000)
        )
        # binomial(2000, 0.1): ±6 sigma around 200
        assert 120 < kept < 280

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            TraceBuffer(capacity=0)
        with pytest.raises(ValueError):
            TraceBuffer(sample_rate=1.5)


class TestTriggers:
    @pytest.mark.parametrize(
        "outcome",
        [
            "degraded",
            "failed",
            "shed_full",
            "shed_stale",
            "shed_closed",
            "shed_tenant_quota",
        ],
    )
    def test_bad_outcomes_bypass_sampling(self, outcome):
        buffer = TraceBuffer(sample_rate=0.0)
        assert buffer.offer(make_trace(outcome=outcome))
        assert buffer.stats()["kept_triggered"] == 1

    def test_retried_request_is_always_kept(self):
        buffer = TraceBuffer(sample_rate=0.0)
        assert buffer.offer(make_trace(retries=2))

    def test_slow_request_is_kept_when_slow_ms_set(self):
        buffer = TraceBuffer(sample_rate=0.0, slow_ms=5.0)
        assert buffer.offer(make_trace(duration_s=0.010))
        assert not buffer.offer(make_trace(duration_s=0.001))

    def test_normal_fast_answered_is_sampled_out(self):
        buffer = TraceBuffer(sample_rate=0.0)
        assert not buffer.offer(make_trace())
        assert buffer.stats() == {
            "offered": 1,
            "kept": 0,
            "kept_sampled": 0,
            "kept_triggered": 0,
            "capacity": 256,
            "sample_rate": 0.0,
        }


class TestTraceBuffer:
    def test_ring_evicts_oldest(self):
        buffer = TraceBuffer(capacity=3, sample_rate=1.0)
        for i in range(5):
            buffer.offer(make_trace(trace_id=f"{i:016x}"))
        kept = [t.trace_id for t in buffer.traces()]
        assert kept == [f"{i:016x}" for i in (2, 3, 4)]
        assert len(buffer) == 3
        assert buffer.stats()["offered"] == 5

    def test_find_by_id(self):
        buffer = TraceBuffer(sample_rate=1.0)
        trace = make_trace(trace_id="ab" * 8)
        buffer.offer(trace)
        assert buffer.find("ab" * 8) is trace
        assert buffer.find("cd" * 8) is None

    def test_stage_names_walk_depth_first(self):
        assert make_trace().stage_names() == [
            "request", "queue", "ask", "match",
        ]
        assert make_trace(with_tree=False).stage_names() == []


class TestJsonlRoundTrip:
    def test_stream_round_trip_preserves_tree_layout(self):
        buffer = TraceBuffer(sample_rate=1.0)
        original = make_trace(tenant="acme", outcome="degraded")
        original.degraded_stage = "tuples"
        buffer.offer(original)
        buffer.offer(make_trace(trace_id="cd" * 8))

        stream = io.StringIO()
        assert buffer.export_jsonl(stream) == 2
        back = load_jsonl(io.StringIO(stream.getvalue()))
        assert [t.trace_id for t in back] == ["aa".rjust(16, "0"), "cd" * 8]
        # line for line: a trace read back writes the line it was read
        # from
        assert [
            json.dumps(trace.to_dict(), sort_keys=True) for trace in back
        ] == stream.getvalue().splitlines()

        first = back[0]
        assert first.outcome == "degraded"
        assert first.degraded_stage == "tuples"
        assert first.context.tenant == "acme"
        assert first.stage_names() == original.stage_names()
        # offsets survive: the ask child still starts 1/5 in and keeps
        # its counters
        ask = first.root.children[1]
        assert ask.name == "ask"
        assert ask._mono_start == pytest.approx(0.010 / 5)
        assert ask.counters == {"tuples": 7}

    def test_file_round_trip(self, tmp_path):
        buffer = TraceBuffer(sample_rate=1.0)
        buffer.offer(make_trace())
        path = tmp_path / "traces.jsonl"
        assert buffer.export_jsonl(str(path)) == 1
        assert len(load_jsonl(str(path))) == 1

    def test_rootless_trace_round_trips(self):
        stream = io.StringIO()
        buffer = TraceBuffer(sample_rate=1.0)
        buffer.offer(make_trace(outcome="shed_full", with_tree=False))
        buffer.export_jsonl(stream)
        back = load_jsonl(io.StringIO(stream.getvalue()))
        assert back[0].root is None
        assert back[0].outcome == "shed_full"

    def test_span_dicts_keep_the_trace_file_keys(self):
        """The trace file's span dicts are ``Span.to_dict()``: exactly
        these keys at every depth, offsets relative to the root."""
        stream = io.StringIO()
        buffer = TraceBuffer(sample_rate=1.0)
        trace = make_trace()
        buffer.offer(trace)
        buffer.export_jsonl(stream)
        root = json.loads(stream.getvalue())["root"]
        assert root == trace.root.to_dict()
        stack = [root]
        while stack:
            span = stack.pop()
            assert set(span) == {
                "name", "offset_s", "duration_s", "wall_start",
                "counters", "children",
            }
            stack.extend(span["children"])
        assert root["offset_s"] == 0.0
        assert root["children"][1]["offset_s"] == pytest.approx(0.010 / 5)


class TestChromeExport:
    def test_exported_document_validates(self):
        traces = [
            make_trace(trace_id="aa" * 8),
            make_trace(trace_id="bb" * 8, outcome="degraded"),
        ]
        document = chrome_trace_events(traces)
        assert validate_chrome_trace(document) == []
        assert document["displayTimeUnit"] == "ms"

    def test_each_trace_gets_its_own_tid_row(self):
        document = chrome_trace_events(
            [make_trace(trace_id="aa" * 8), make_trace(trace_id="bb" * 8)]
        )
        events = document["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert {e["tid"] for e in metadata} == {1, 2}
        names = [e["args"]["name"] for e in metadata]
        assert any(name.startswith("aaaaaaaa") for name in names)
        # B/E events of one tid never interleave with the other's
        for tid in (1, 2):
            own = [e for e in events
                   if e.get("tid") == tid and e["ph"] in "BE"]
            assert [e["ph"] for e in own][0] == "B"
            assert [e["ph"] for e in own][-1] == "E"

    def test_timestamps_sorted_and_relative_to_earliest_submit(self):
        late = make_trace(trace_id="bb" * 8)
        late.root.wall_start = 1000.5  # 500 ms after the other trace
        document = chrome_trace_events([make_trace(), late])
        ts = [e["ts"] for e in document["traceEvents"]]
        assert ts == sorted(ts)
        assert min(ts) == 0
        assert max(ts) >= 500_000  # microseconds

    def test_counters_land_in_args(self):
        document = chrome_trace_events([make_trace()])
        begins = {
            e["name"]: e
            for e in document["traceEvents"]
            if e["ph"] == "B"
        }
        assert begins["ask"]["args"]["counters"] == {"tuples": 7}

    def test_empty_input(self):
        document = chrome_trace_events([])
        assert document["traceEvents"] == []
        assert validate_chrome_trace(document) == []

    def test_buffer_to_chrome_shortcut(self):
        buffer = TraceBuffer(sample_rate=1.0)
        buffer.offer(make_trace())
        assert validate_chrome_trace(buffer.to_chrome()) == []


class TestChromeValidator:
    """Negative cases: the validator CI relies on must actually reject
    broken documents."""

    def test_rejects_non_document(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"events": []}) != []
        assert validate_chrome_trace({"traceEvents": "nope"}) != []

    def test_rejects_unsorted_ts(self):
        document = {
            "traceEvents": [
                {"ph": "B", "name": "a", "ts": 10, "pid": 1, "tid": 1},
                {"ph": "E", "name": "a", "ts": 5, "pid": 1, "tid": 1},
            ]
        }
        problems = validate_chrome_trace(document)
        assert any("not sorted" in p for p in problems)

    def test_rejects_mismatched_close(self):
        document = {
            "traceEvents": [
                {"ph": "B", "name": "a", "ts": 0, "pid": 1, "tid": 1},
                {"ph": "E", "name": "b", "ts": 1, "pid": 1, "tid": 1},
            ]
        }
        problems = validate_chrome_trace(document)
        assert any("does not match" in p for p in problems)

    def test_rejects_unclosed_and_orphan_events(self):
        unclosed = {
            "traceEvents": [
                {"ph": "B", "name": "a", "ts": 0, "pid": 1, "tid": 1},
            ]
        }
        assert any(
            "unclosed" in p for p in validate_chrome_trace(unclosed)
        )
        orphan = {
            "traceEvents": [
                {"ph": "E", "name": "a", "ts": 0, "pid": 1, "tid": 1},
            ]
        }
        assert any(
            "no open B" in p for p in validate_chrome_trace(orphan)
        )

    def test_rejects_missing_fields(self):
        document = {"traceEvents": [{"ph": "B", "name": "a", "ts": 0}]}
        problems = validate_chrome_trace(document)
        assert any("missing 'pid'" in p for p in problems)
