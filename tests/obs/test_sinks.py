"""The in-memory sink and the human-readable span table."""

from repro.obs import format_span_table


def _sample_tree(tracer):
    with tracer.span("ask"):
        with tracer.span("match"):
            tracer.count("tokens_matched", 1)
        with tracer.span("database_generator"):
            tracer.count("tuples_emitted", 10)
            tracer.count("joins_executed", 3)


class TestInMemorySink:
    def test_collects_clears_and_finds(self, tracer, mem_sink):
        _sample_tree(tracer)
        assert len(mem_sink) == 1
        assert mem_sink.last.name == "ask"
        assert mem_sink.find("match").counter("tokens_matched") == 1
        assert mem_sink.find("nope") is None
        mem_sink.clear()
        assert mem_sink.spans == [] and mem_sink.last is None

    def test_counter_total_across_roots(self, tracer, mem_sink):
        _sample_tree(tracer)
        _sample_tree(tracer)
        assert mem_sink.counter_total("tuples_emitted") == 20


class TestTableOutput:
    def test_format_span_table_alignment(self, tracer, mem_sink):
        _sample_tree(tracer)
        lines = format_span_table(mem_sink.last).splitlines()
        header = lines[0]
        assert header.index("time") > header.index("stage")
        # every row starts its time column at the same offset
        offset = header.index("time")
        for line in lines[1:-1]:
            assert line[offset - 2 : offset] == "  "

    def test_format_span_table_golden(self):
        """Pin the exact rendering on a hand-built tree with fixed
        durations (set via the monotonic endpoints, so duration_s is
        deterministic)."""
        from repro.obs import Span

        root = Span("ask")
        root._mono_start, root._mono_end = 0.0, 0.010
        child = Span("match")
        child._mono_start, child._mono_end = 0.0, 0.0015
        child.counters["tokens_matched"] = 2
        root.children.append(child)
        assert format_span_table(root) == (
            "stage    time       counters\n"
            "ask      10.000 ms\n"
            "  match  1.500 ms   tokens_matched=2\n"
            "totals: tokens_matched=2"
        )

