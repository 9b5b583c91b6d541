"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture()
def demo_dir(tmp_path):
    directory = tmp_path / "demo"
    code, __ = _run(["init-demo", str(directory)])
    assert code == 0
    return directory


class TestInitDemo:
    def test_writes_database_and_graph(self, demo_dir):
        assert (demo_dir / "_schema.json").exists()
        assert (demo_dir / "_graph.json").exists()
        assert (demo_dir / "MOVIE.csv").exists()

    def test_synthetic_size(self, tmp_path):
        directory = tmp_path / "synth"
        code, out = _run(
            ["init-demo", str(directory), "--movies", "30", "--seed", "4"]
        )
        assert code == 0
        assert "tuples" in out


class TestSchema:
    def test_prints_ddl_and_summary(self, demo_dir):
        code, out = _run(["schema", str(demo_dir)])
        assert code == 0
        assert "CREATE TABLE MOVIE" in out
        assert "relations," in out
        assert "fan-out" in out


class TestQuery:
    def test_basic_query(self, demo_dir):
        code, out = _run(
            [
                "query", str(demo_dir), '"Woody Allen"',
                "--degree-weight", "0.9", "--per-relation", "3",
            ]
        )
        assert code == 0
        assert "Match Point" in out
        assert "Result schema:" in out

    def test_narrative_flag(self, demo_dir):
        code, out = _run(
            [
                "query", str(demo_dir), '"Woody Allen"',
                "--degree-weight", "0.9", "--narrative",
            ]
        )
        assert code == 0
        assert "Woody Allen" in out

    def test_dot_output(self, demo_dir):
        code, out = _run(
            [
                "query", str(demo_dir), '"Woody Allen"',
                "--degree-weight", "0.9", "--dot",
            ]
        )
        assert code == 0
        assert out.startswith("digraph")

    def test_save_exports_answer(self, demo_dir, tmp_path):
        target = tmp_path / "answer"
        code, out = _run(
            [
                "query", str(demo_dir), '"Woody Allen"',
                "--degree-weight", "0.9", "--save", str(target),
            ]
        )
        assert code == 0
        assert (target / "_schema.json").exists()
        assert (target / "MOVIE.csv").exists()

    def test_no_match_exit_code(self, demo_dir):
        code, out = _run(["query", str(demo_dir), "zzznope"])
        assert code == 1
        assert "no match" in out

    def test_degree_top_and_total(self, demo_dir):
        code, out = _run(
            [
                "query", str(demo_dir), '"Woody Allen"',
                "--degree-top", "3", "--total", "4",
            ]
        )
        assert code == 0

    def test_composite_degree(self, demo_dir):
        code, __ = _run(
            [
                "query", str(demo_dir), '"Woody Allen"',
                "--degree-weight", "0.8", "--degree-length", "2",
                "--degree-top", "6",
            ]
        )
        assert code == 0


class TestStatsFlag:
    def test_query_stats_prints_stage_table(self, demo_dir):
        code, out = _run(
            [
                "query", str(demo_dir), '"Woody Allen"',
                "--degree-weight", "0.9", "--per-relation", "3", "--stats",
            ]
        )
        assert code == 0
        assert "Match Point" in out  # the answer itself still prints
        assert "index build:" in out
        assert "stage" in out and "time" in out and "counters" in out
        for stage in ("ask", "match", "schema", "database_generator"):
            assert stage in out
        assert "tokens_matched=1" in out
        assert "tuples_emitted=" in out
        assert "totals:" in out

    def test_query_without_stats_prints_no_table(self, demo_dir):
        code, out = _run(
            ["query", str(demo_dir), '"Woody Allen"', "--degree-weight", "0.9"]
        )
        assert code == 0
        assert "tuples_emitted=" not in out
        assert "index build:" not in out

    def test_explain_stats(self, demo_dir):
        code, out = _run(
            [
                "explain", str(demo_dir), '"Woody Allen"',
                "--degree-weight", "0.9", "--stats",
            ]
        )
        assert code == 0
        assert "précis plan" in out
        assert "database_generator" in out
        assert "totals:" in out

    def test_estimate_stats(self, demo_dir):
        code, out = _run(
            [
                "estimate", str(demo_dir), '"Woody Allen"',
                "--degree-weight", "0.9", "--stats",
            ]
        )
        assert code == 0
        assert "schema_generator" in out
        assert "tokens_matched=1" in out

    def test_no_match_still_prints_stats(self, demo_dir):
        code, out = _run(["query", str(demo_dir), "zzznope", "--stats"])
        assert code == 1
        assert "no match" in out
        assert "tokens_matched=0" in out


class TestExplain:
    def test_plan_ddl_and_sql(self, demo_dir):
        code, out = _run(
            [
                "explain", str(demo_dir), '"Woody Allen"',
                "--degree-weight", "0.9", "--per-relation", "3",
            ]
        )
        assert code == 0
        assert "précis plan" in out
        assert "CREATE TABLE" in out
        assert "SELECT" in out
        assert "ROWID IN" in out


class TestGraphFallback:
    def test_directory_without_graph_file(self, demo_dir):
        (demo_dir / "_graph.json").unlink()
        code, out = _run(
            ["query", str(demo_dir), '"Woody Allen"', "--degree-top", "5"]
        )
        assert code == 0


class TestEstimate:
    def test_estimate_prints_sizes(self, demo_dir):
        code, out = _run(
            [
                "estimate", str(demo_dir), '"Woody Allen"',
                "--degree-weight", "0.9",
            ]
        )
        assert code == 0
        assert "estimated answer size" in out
        assert "MOVIE" in out
        assert "total:" in out

    def test_estimate_suggests_cap(self, demo_dir):
        code, out = _run(
            [
                "estimate", str(demo_dir), '"Woody Allen"',
                "--degree-weight", "0.9", "--target-total", "10",
            ]
        )
        assert code == 0
        assert "--per-relation" in out

    def test_estimate_no_match(self, demo_dir):
        code, out = _run(["estimate", str(demo_dir), "zzznope"])
        assert code == 1


class TestExplainProvenance:
    def test_query_explain_flag(self, demo_dir):
        code, out = _run(
            [
                "query", str(demo_dir), "Allen",
                "--total", "5", "--explain",
            ]
        )
        assert code == 0
        assert "why-précis for" in out
        assert "seed — query token(s)" in out
        assert "schema expansion stopped by weight threshold (w0=0.9)" in out
        assert "cardinality: max total tuples (c0=5)" in out

    def test_explain_subcommand_leads_with_provenance(self, demo_dir):
        code, out = _run(["explain", str(demo_dir), "Allen"])
        assert code == 0
        assert out.index("why-précis for") < out.index("précis plan")


class TestMetricsExport:
    def test_metrics_out_json(self, demo_dir, tmp_path):
        import json

        target = tmp_path / "metrics.json"
        code, out = _run(
            [
                "query", str(demo_dir), "Allen",
                "--metrics-out", str(target), "--slow-query-ms", "0",
            ]
        )
        assert code == 0
        assert f"metrics written to {target}" in out
        document = json.loads(target.read_text())
        assert document["counters"]["precis_asks_total"] == 1
        assert document["histograms"]["precis_ask_seconds"]["count"] == 1
        assert document["slow_queries"]  # 0 ms threshold records the ask

    def test_metrics_out_prometheus_to_stdout(self, demo_dir):
        code, out = _run(
            [
                "query", str(demo_dir), "Allen",
                "--metrics-out", "-", "--metrics-format", "prometheus",
            ]
        )
        assert code == 0
        assert "# TYPE precis_ask_seconds histogram" in out
        assert 'precis_ask_seconds_bucket{le="+Inf"} 1' in out

    def test_metrics_written_even_without_match(self, demo_dir, tmp_path):
        import json

        target = tmp_path / "metrics.json"
        code, __ = _run(
            [
                "query", str(demo_dir), "zzznope",
                "--metrics-out", str(target),
            ]
        )
        assert code == 1
        document = json.loads(target.read_text())
        assert document["counters"]["precis_asks_total"] == 1

    def test_no_metrics_flag_writes_nothing(self, demo_dir):
        code, out = _run(["query", str(demo_dir), "Allen"])
        assert code == 0
        assert "metrics written" not in out


class TestServeBenchTracing:
    @pytest.fixture(scope="class")
    def bench_dir(self, tmp_path_factory):
        """One small traced + profiled serve-bench run shared by the
        class: its JSONL capture, JSON payload, and printed output."""
        directory = tmp_path_factory.mktemp("serve")
        trace_path = directory / "trace.jsonl"
        json_path = directory / "BENCH.json"
        code, out = _run(
            [
                "serve-bench", "--movies", "30",
                "--clients", "2", "--requests", "3", "--workers", "1",
                "--trace-out", str(trace_path),
                "--trace-sample", "1.0",
                "--profile",
                "--json-out", str(json_path),
            ]
        )
        assert code == 0
        return directory, out

    def test_trace_capture_written_and_announced(self, bench_dir):
        directory, out = bench_dir
        assert "traces: 6 kept" in out
        lines = (directory / "trace.jsonl").read_text().splitlines()
        assert len(lines) == 6

    def test_payload_carries_slo_profile_and_trace_stats(self, bench_dir):
        import json

        directory, __ = bench_dir
        serve = json.loads((directory / "BENCH.json").read_text())["serve"]
        payload = serve["coalesced"]
        assert payload["traces"]["kept"] == 6
        assert payload["slo"]["objectives"]
        assert "attributed_fraction" in payload["profile"]

    def test_export_chrome_validates(self, bench_dir):
        import json

        directory, __ = bench_dir
        chrome = directory / "trace.json"
        code, out = _run(
            [
                "trace", "export", str(directory / "trace.jsonl"),
                "-o", str(chrome), "--validate",
            ]
        )
        assert code == 0
        assert "6 trace(s) exported" in out
        document = json.loads(chrome.read_text())
        events = document["traceEvents"]
        names = {e["name"] for e in events if e.get("ph") == "B"}
        assert {"request", "queue", "ask"} <= names
        # every request rendered on its own tid row
        assert len({e["tid"] for e in events if e["ph"] == "M"}) == 6

    def test_export_chrome_to_stdout(self, bench_dir):
        import json

        directory, __ = bench_dir
        code, out = _run(["trace", "export", str(directory / "trace.jsonl")])
        assert code == 0
        assert json.loads(out)["displayTimeUnit"] == "ms"

    def test_export_jsonl_round_trip(self, bench_dir):
        directory, __ = bench_dir
        source = directory / "trace.jsonl"
        code, out = _run(
            ["trace", "export", str(source), "--format", "jsonl"]
        )
        assert code == 0
        assert out.strip().splitlines() == (
            source.read_text().strip().splitlines()
        )

    def test_rootless_capture_exports_valid_empty_document(self, tmp_path):
        import json

        from repro.obs.context import RequestTrace, TraceContext

        trace = RequestTrace(
            context=TraceContext.mint("q"), root=None, outcome="shed_full"
        )
        path = tmp_path / "one.jsonl"
        path.write_text(json.dumps(trace.to_dict()) + "\n")
        code, out = _run(["trace", "export", str(path), "--validate"])
        assert code == 0
        assert json.loads(out)["traceEvents"] == []
