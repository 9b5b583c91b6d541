"""Tests for the command-line interface."""

import io
import threading
import urllib.request

import pytest

from repro.cli import build_parser, main

from .service.helpers import Banner


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def _http_get(port: int, target: str):
    return urllib.request.urlopen(
        f"http://127.0.0.1:{port}{target}", timeout=30
    )


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


class TestUsageErrors:
    """An out-of-range constraint or a NaN budget is a usage error:
    exit 2 with a message naming the flag, no traceback."""

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("query", "--per-relation", "-1"),
            ("query", "--total", "-5"),
            ("query", "--degree-top", "-1"),
            ("query", "--degree-length", "-1"),
            ("query", "--degree-weight", "1.5"),
            ("query", "--degree-weight", "nan"),
            ("explain", "--per-relation", "-1"),
            ("estimate", "--degree-weight", "2"),
            ("query", "--deadline-ms", "nan"),
            ("query", "--cache-size", "0"),
            ("explain", "--cache-size", "-3"),
            ("estimate", "--cache-size", "0"),
            ("query", "--slow-query-ms", "nan"),
        ],
    )
    def test_exits_2_naming_the_flag(
        self, demo_dir, capsys, command, flag, value
    ):
        with pytest.raises(SystemExit) as exited:
            _run([command, str(demo_dir), "Allen", flag, value])
        assert exited.value.code == 2
        error = capsys.readouterr().err
        assert f"argument {flag}:" in error
        assert "Traceback" not in error

    def test_serve_timeout_nan(self, demo_dir, capsys):
        # parsed only: a serve that got past its arguments would block
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(
                ["serve", str(demo_dir), "--timeout-ms", "nan"]
            )
        assert exited.value.code == 2
        assert "argument --timeout-ms:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["serve", "DIR", "--workers", "0"], "--workers"),
            (["serve", "DIR", "--max-pending", "0"], "--max-pending"),
            (["serve", "DIR", "--cache-size", "0"], "--cache-size"),
            (["serve", "DIR", "--trace-sample", "1.5"], "--trace-sample"),
            (["serve", "DIR", "--trace-sample", "nan"], "--trace-sample"),
            (["serve", "DIR", "--trace-capacity", "0"], "--trace-capacity"),
            (["serve", "DIR", "--port", "70000"], "--port"),
            (["serve", "DIR", "--port", "-5"], "--port"),
        ],
    )
    def test_serving_counts_below_one(self, demo_dir, capsys, argv, flag):
        # parsed only, like the NaN timeout above
        argv = [str(demo_dir) if arg == "DIR" else arg for arg in argv]
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(argv)
        assert exited.value.code == 2
        error = capsys.readouterr().err
        assert f"argument {flag}:" in error
        assert "Traceback" not in error

    def test_non_integer_count(self, demo_dir, capsys):
        with pytest.raises(SystemExit) as exited:
            _run(["query", str(demo_dir), "Allen", "--cache-size", "many"])
        assert exited.value.code == 2
        assert "expected a positive integer, got 'many'" in (
            capsys.readouterr().err
        )

    def test_negative_deadline_still_degrades(self, demo_dir):
        code, out = _run(
            ["query", str(demo_dir), "Allen", "--deadline-ms", "-1"]
        )
        assert "degraded" in out


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

    def test_per_relation_caps_the_estimate(self, demo_dir):
        argv = ["estimate", str(demo_dir), "Allen", "--degree-weight", "0.9"]
        __, unconstrained = _run(argv)
        code, out = _run(argv + ["--per-relation", "1"])
        assert code == 0
        assert "estimated answer size (unconstrained):" in unconstrained
        assert "estimated answer size (at most 1 per relation):" in out
        sizes = [
            float(line.split("~")[1].split()[0])
            for line in out.splitlines()
            if "tuple(s)" in line
        ]
        assert sizes and max(sizes) <= 1.0
        assert out != unconstrained

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--total", "5"),
            ("--strategy", "naive"),
            ("--deadline-ms", "50"),
            ("--slow-query-ms", "0"),
            ("--metrics-out", "-"),
            ("--metrics-format", "json"),
        ],
    )
    def test_run_options_are_not_offered(self, demo_dir, capsys, flag, value):
        """estimate runs no ask: options that only shape or measure a
        run are refused rather than parsed and dropped."""
        with pytest.raises(SystemExit) as exited:
            _run(["estimate", str(demo_dir), "Allen", flag, value])
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


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


#: the asks of the traced serve below, one trace each
_TRACED_ASKS = ("Allen", "Drama", "Coppola", "Allen")


class TestServeTracing:
    @pytest.fixture(scope="class")
    def capture_dir(self, tmp_path_factory):
        """One traced ``repro serve`` shared by the class: a few asks,
        then /shutdown; its JSONL capture and printed output."""
        directory = tmp_path_factory.mktemp("serve")
        assert _run(["init-demo", str(directory / "demo")])[0] == 0
        out = Banner()
        result = {}
        argv = [
            "serve", str(directory / "demo"), "--port", "0",
            "--workers", "1", "--trace-out", str(directory / "trace.jsonl"),
            "--trace-sample", "1.0",
        ]
        server = threading.Thread(
            target=lambda: result.update(code=main(argv, out=out)),
            daemon=True,
        )
        server.start()
        try:
            assert out.ready.wait(30), out.getvalue()
            for query in _TRACED_ASKS:
                with _http_get(out.port, f"/ask?q={query}") as response:
                    assert response.status == 200
        finally:
            if out.ready.is_set():
                _http_get(out.port, "/shutdown").close()
            server.join(30)
        assert not server.is_alive(), "server did not exit"
        assert result == {"code": 0}
        return directory, out.getvalue()

    def test_trace_capture_written_and_announced(self, capture_dir):
        directory, out = capture_dir
        n = len(_TRACED_ASKS)
        assert f"{n} trace(s) -> {directory / 'trace.jsonl'}" in out
        lines = (directory / "trace.jsonl").read_text().splitlines()
        assert len(lines) == n

    def test_export_chrome_validates(self, capture_dir):
        import json

        directory, __ = capture_dir
        chrome = directory / "trace.json"
        code, out = _run(
            [
                "trace", "export", str(directory / "trace.jsonl"),
                "-o", str(chrome), "--validate",
            ]
        )
        assert code == 0
        assert f"{len(_TRACED_ASKS)} trace(s) exported" in out
        document = json.loads(chrome.read_text())
        events = document["traceEvents"]
        names = {e["name"] for e in events if e.get("ph") == "B"}
        assert {"request", "queue", "ask"} <= names
        # every request rendered on its own tid row
        tids = {e["tid"] for e in events if e["ph"] == "M"}
        assert len(tids) == len(_TRACED_ASKS)

    def test_export_chrome_to_stdout(self, capture_dir):
        import json

        directory, __ = capture_dir
        code, out = _run(["trace", "export", str(directory / "trace.jsonl")])
        assert code == 0
        assert json.loads(out)["displayTimeUnit"] == "ms"

    def test_export_jsonl_round_trip(self, capture_dir):
        directory, __ = capture_dir
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
