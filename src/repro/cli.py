"""Command-line interface: précis queries over CSV-backed databases.

Usage (after ``python setup.py develop``)::

    python -m repro init-demo ./demo          # the paper's movies DB
    python -m repro schema ./demo             # DDL + statistics
    python -m repro query ./demo '"Woody Allen"' --degree-weight 0.9 \
        --per-relation 3 --narrative
    python -m repro explain ./demo '"Woody Allen"' --degree-weight 0.9
    python -m repro query ./demo Allen --explain \
        --metrics-out metrics.json --slow-query-ms 0

A database directory is what ``repro.relational.csvio`` writes: one CSV
per relation plus ``_schema.json``, and optionally ``_graph.json`` (a
weighted schema graph with heading attributes, written by
``init-demo`` or :func:`repro.graph.serialization.save_graph`). Without
``_graph.json`` the graph is derived from the foreign keys at uniform
weights. A ``_graph.json`` naming a relation or attribute the database
lacks is refused at load: the command exits 1 with one line naming
each mismatch.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .core import (
    STRATEGIES,
    ConstraintOptionError,
    PrecisEngine,
    answer_ddl,
    emitted_queries,
    read_constraints,
    render_plan,
    render_stats,
)
from .core.explain import render_explanation
from .graph import graph_from_schema, result_schema_to_dot
from .graph.serialization import load_graph, save_graph
from .graph.validation import GraphSchemaMismatch, check_graph
from .nlg import Translator, generic_spec
from .obs import InMemorySink, Tracer, format_span_table, write_metrics
from .cache import CacheConfig
from .relational import create_schema_sql, database_summary
from .relational.csvio import load_database, save_database
from .storage import BACKEND_NAMES, resolve_backend

__all__ = ["main", "build_parser"]

_GRAPH_FILE = "_graph.json"


def _milliseconds(text: str) -> float:
    """argparse type of the millisecond flags: any number but NaN (a
    negative budget is already expired and ``inf`` never expires; a
    slow-query threshold at or below 0 keeps every ask)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise argparse.ArgumentTypeError(
            f"expected a number of milliseconds, got {text!r}"
        )
    return value


def _positive_int(text: str) -> int:
    """argparse type of the sizes and counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return value


def _sample_rate(text: str) -> float:
    """argparse type of ``--trace-sample``: a rate in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value <= 1.0:  # NaN fails the comparison too
        raise argparse.ArgumentTypeError(
            f"expected a rate in [0, 1], got {text!r}"
        )
    return value


def _port(text: str) -> int:
    """argparse type of ``--port``: 0 (ephemeral) to 65535."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"expected a port from 0 to 65535, got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Précis queries over relational databases (ICDE 2006).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser(
        "init-demo", help="write the paper's movies database to a directory"
    )
    demo.add_argument("directory")
    demo.add_argument(
        "--movies",
        type=int,
        default=0,
        help="generate a synthetic instance of N movies instead of the "
        "paper's micro-instance",
    )
    demo.add_argument("--seed", type=int, default=0)

    schema = sub.add_parser(
        "schema", help="print DDL and statistics of a database directory"
    )
    schema.add_argument("directory")

    for name, help_text in (
        ("query", "answer a précis query"),
        ("explain", "show the plan and SQL for a précis query"),
        ("estimate", "predict the answer size before generating it"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("directory")
        cmd.add_argument("query", help='free-form tokens, e.g. \'"Woody Allen"\'')
        cmd.add_argument(
            "--degree-weight",
            type=float,
            help="keep projections with path weight >= W",
        )
        cmd.add_argument(
            "--degree-top", type=int, help="keep at most R projected attributes"
        )
        cmd.add_argument(
            "--degree-length", type=int, help="keep paths of length <= L"
        )
        cmd.add_argument(
            "--per-relation", type=int, help="at most N tuples per relation"
        )
        if name != "estimate":
            # options that shape or measure a run; estimate predicts one
            # without running it
            cmd.add_argument(
                "--total", type=int, help="at most N tuples overall"
            )
            cmd.add_argument(
                "--strategy",
                choices=STRATEGIES,
                default="auto",
            )
            cmd.add_argument(
                "--deadline-ms",
                type=_milliseconds,
                metavar="N",
                help="cooperative time budget for the ask (repro.core."
                "deadline): on expiry the pipeline stops at the next "
                "iteration boundary and returns a valid partial answer "
                "flagged degraded (visible under --explain)",
            )
            cmd.add_argument(
                "--metrics-out",
                metavar="FILE",
                help="enable service metrics (repro.obs.metrics) and write "
                "a snapshot to FILE after the command ('-' for stdout)",
            )
            cmd.add_argument(
                "--metrics-format",
                choices=["json", "prometheus"],
                default="json",
                help="exporter for --metrics-out: JSON snapshot or "
                "Prometheus text exposition",
            )
            cmd.add_argument(
                "--slow-query-ms",
                type=_milliseconds,
                metavar="N",
                help="keep asks slower than N ms in the slow-query log "
                "(part of the JSON metrics snapshot; implies metrics)",
            )
        cmd.add_argument(
            "--stats",
            action="store_true",
            help="print the per-stage timing + counter table "
            "(repro.obs tracing)",
        )
        cmd.add_argument(
            "--cache",
            action="store_true",
            help="enable the versioned plan + answer caches (repro.cache); "
            "entries are invalidated automatically when the database, "
            "index or graph changes",
        )
        cmd.add_argument(
            "--cache-size",
            type=_positive_int,
            metavar="N",
            help="max entries per cache layer (implies --cache)",
        )
        cmd.add_argument(
            "--backend",
            choices=list(BACKEND_NAMES),
            default="memory",
            help="storage backend for the loaded database",
        )
        cmd.add_argument(
            "--db-path",
            metavar="FILE",
            help="SQLite database file (implies --backend sqlite); "
            "tables are rebuilt from the CSV directory on each run "
            "and left on disk for inspection",
        )
        if name == "estimate":
            cmd.add_argument(
                "--target-total",
                type=int,
                help="also suggest a per-relation cap for this total",
            )
        if name == "query":
            cmd.add_argument(
                "--narrative",
                action="store_true",
                help="print the natural-language synthesis",
            )
            cmd.add_argument(
                "--explain",
                action="store_true",
                help="print the provenance view: why each relation and "
                "tuple batch is in the précis and which constraint "
                "bounded it",
            )
            cmd.add_argument(
                "--dot",
                action="store_true",
                help="print the result schema as Graphviz DOT",
            )
            cmd.add_argument(
                "--save", metavar="DIR", help="export the answer database"
            )

    serve = sub.add_parser(
        "serve",
        help="serve précis queries over HTTP: the asyncio front door "
        "(deadlines, sheds, request coalescing, priority classes, "
        "repro.service.frontdoor) and its worker pool, on "
        "the stdlib endpoint (GET /ask, /metrics, /healthz, /shutdown)",
    )
    serve.add_argument("directory")
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default lo)"
    )
    serve.add_argument(
        "--port",
        type=_port,
        default=8765,
        help="bind port (0 = ephemeral; default 8765)",
    )
    serve.add_argument(
        "--workers", type=_positive_int, default=2, help="worker-pool threads"
    )
    serve.add_argument(
        "--max-pending",
        type=_positive_int,
        default=256,
        help="front-door pending-flight bound (default 256)",
    )
    serve.add_argument(
        "--timeout-ms",
        type=_milliseconds,
        default=None,
        help="default per-request deadline for requests carrying none",
    )
    serve.add_argument(
        "--backend",
        choices=list(BACKEND_NAMES),
        default="memory",
        help="storage backend for the loaded database",
    )
    serve.add_argument(
        "--db-path",
        metavar="FILE",
        help="SQLite database file (implies --backend sqlite)",
    )
    serve.add_argument(
        "--cache",
        action="store_true",
        help="enable the versioned plan + answer caches",
    )
    serve.add_argument(
        "--cache-size",
        type=_positive_int,
        metavar="N",
        help="implies --cache",
    )
    serve.add_argument(
        "--trace-out",
        metavar="FILE",
        help="capture request traces and write them as JSON lines on "
        "shutdown",
    )
    serve.add_argument(
        "--trace-sample",
        type=_sample_rate,
        default=0.1,
        metavar="RATE",
        help="head-sampling rate for normal traces (default 0.1)",
    )
    serve.add_argument(
        "--trace-capacity",
        type=_positive_int,
        default=256,
        metavar="N",
        help="trace ring-buffer capacity (default 256)",
    )

    trace = sub.add_parser(
        "trace",
        help="work with captured request traces (repro.obs.context)",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    export = trace_sub.add_parser(
        "export",
        help="render a JSONL trace capture (serve --trace-out) as "
        "Chrome trace-event JSON for chrome://tracing / Perfetto",
    )
    export.add_argument("input", help="JSONL trace file to read")
    export.add_argument(
        "-o",
        "--out",
        default="-",
        metavar="FILE",
        help="output file ('-' for stdout, the default)",
    )
    export.add_argument(
        "--validate",
        action="store_true",
        help="validate the Chrome document structure after rendering "
        "(sorted ts, matched B/E pairs, pid/tid present) and fail on "
        "problems",
    )
    return parser


def _deadline(args):
    """Resolve --deadline-ms into a Deadline (or None)."""
    ms = getattr(args, "deadline_ms", None)
    if ms is None:
        return None
    from .core import Deadline

    return Deadline.after(ms / 1000.0)


def _backend_for(args):
    """Resolve --backend/--db-path into a StorageBackend (or None)."""
    backend = getattr(args, "backend", None)
    db_path = getattr(args, "db_path", None)
    if db_path is not None and backend in (None, "memory"):
        backend = "sqlite"
    if backend in (None, "memory") and db_path is None:
        return None
    return resolve_backend(backend, path=db_path)


def _cache_for(args) -> Optional[CacheConfig]:
    """Resolve --cache/--cache-size into a CacheConfig (or None)."""
    size = getattr(args, "cache_size", None)
    if not getattr(args, "cache", False) and size is None:
        return None
    if size is None:
        return CacheConfig(answers=True)
    return CacheConfig(answers=True, plan_entries=size, answer_entries=size)


def _load_engine(
    directory: str,
    tracer: Optional[Tracer] = None,
    backend=None,
    cache: Optional[CacheConfig] = None,
    metrics: bool = False,
    slow_query_ms: Optional[float] = None,
) -> PrecisEngine:
    path = Path(directory)
    db = load_database(path, enforce_foreign_keys=False, backend=backend)
    graph_path = path / _GRAPH_FILE
    translator = None
    if graph_path.exists():
        graph, headings = load_graph(graph_path)
        check_graph(graph, db.schema)
        if headings:
            translator = Translator(generic_spec(graph, headings))
    else:
        graph = graph_from_schema(db.schema)
    return PrecisEngine(
        db,
        graph=graph,
        translator=translator,
        cache=cache,
        tracer=tracer,
        metrics=metrics or None,
        slow_query_ms=slow_query_ms,
    )


def _tracer_for(args) -> tuple[Optional[Tracer], Optional[InMemorySink]]:
    """A tracer + capture sink when ``--stats`` was passed, else Nones."""
    if not getattr(args, "stats", False):
        return None, None
    sink = InMemorySink()
    return Tracer([sink]), sink


def _metrics_requested(args) -> bool:
    return args.metrics_out is not None or args.slow_query_ms is not None


def _write_metrics(args, engine, out) -> None:
    """The ``--metrics-out`` epilogue (no-op when metrics are off)."""
    target = args.metrics_out
    if target is None or engine.metrics is None:
        return
    write_metrics(
        engine.metrics,
        out if target == "-" else target,
        format=args.metrics_format,
    )
    if target != "-":
        print(
            f"metrics written to {target} ({args.metrics_format})", file=out
        )


def _print_stats(answer, sink: InMemorySink, out, engine=None) -> None:
    """The ``--stats`` epilogue: index-build time + per-stage table,
    plus per-layer cache counters when caching is enabled."""
    print("", file=out)
    build = sink.find("build_index")
    if build is not None:
        print(
            f"index build: {build.duration_s * 1e3:.3f} ms "
            f"({build.counter('values_indexed')} values, "
            f"{build.counter('attributes_indexed')} attributes)",
            file=out,
        )
    print(render_stats(answer), file=out)
    if engine is not None and engine.cache is not None:
        for layer, counters in engine.cache_stats().items():
            body = " ".join(f"{k}={v}" for k, v in counters.items())
            print(f"cache[{layer}]: {body}", file=out)


def _cmd_init_demo(args, out) -> int:
    from .datasets import (
        generate_movies_database,
        movies_graph,
        paper_instance,
    )

    if args.movies > 0:
        db = generate_movies_database(n_movies=args.movies, seed=args.seed)
    else:
        db = paper_instance()
    path = save_database(db, args.directory)
    headings = {
        "THEATRE": "NAME",
        "MOVIE": "TITLE",
        "GENRE": "GENRE",
        "ACTOR": "ANAME",
        "DIRECTOR": "DNAME",
    }
    save_graph(movies_graph(), path / _GRAPH_FILE, headings)
    print(f"wrote {db.total_tuples()} tuples to {path}", file=out)
    return 0


def _cmd_schema(args, out) -> int:
    db = load_database(args.directory, enforce_foreign_keys=False)
    print(create_schema_sql(db.schema), file=out)
    print("", file=out)
    print(database_summary(db), file=out)
    return 0


def _cmd_query(args, out) -> int:
    tracer, sink = _tracer_for(args)
    engine = _load_engine(
        args.directory,
        tracer,
        backend=_backend_for(args),
        cache=_cache_for(args),
        metrics=_metrics_requested(args),
        slow_query_ms=args.slow_query_ms,
    )
    answer = engine.ask(
        args.query,
        degree=args.degree,
        cardinality=args.cardinality,
        strategy=args.strategy,
        deadline=_deadline(args),
    )
    if answer.degraded:
        print(
            f"(degraded: deadline expired during {answer.degraded_stage} — "
            f"partial answer)",
            file=out,
        )
    if not answer.found:
        print(f"no match for {args.query!r}", file=out)
        if sink is not None:
            _print_stats(answer, sink, out, engine)
        _write_metrics(args, engine, out)
        return 1
    if args.dot:
        print(result_schema_to_dot(answer.result_schema), file=out)
        return 0
    print(answer.describe(), file=out)
    if args.explain:
        print("", file=out)
        print(render_explanation(answer), file=out)
    if args.narrative and answer.narrative:
        print("", file=out)
        print(answer.narrative, file=out)
    if args.save:
        save_database(answer.database, args.save)
        print(f"\nanswer database exported to {args.save}", file=out)
    if sink is not None:
        _print_stats(answer, sink, out, engine)
    _write_metrics(args, engine, out)
    return 0


def _cmd_explain(args, out) -> int:
    tracer, sink = _tracer_for(args)
    engine = _load_engine(
        args.directory,
        tracer,
        backend=_backend_for(args),
        cache=_cache_for(args),
        metrics=_metrics_requested(args),
        slow_query_ms=args.slow_query_ms,
    )
    answer = engine.ask(
        args.query,
        degree=args.degree,
        cardinality=args.cardinality,
        strategy=args.strategy,
        translate=False,
        deadline=_deadline(args),
    )
    print(render_explanation(answer), file=out)
    print("", file=out)
    print(render_plan(answer), file=out)
    print("", file=out)
    print("-- result database DDL", file=out)
    print(answer_ddl(answer), file=out)
    print("", file=out)
    print("-- retrieval queries", file=out)
    for query in emitted_queries(answer):
        print(query + ";", file=out)
    if sink is not None:
        _print_stats(answer, sink, out, engine)
    _write_metrics(args, engine, out)
    return 0


def _cmd_estimate(args, out) -> int:
    from .core import estimate_cardinalities, suggest_cardinality

    tracer, sink = _tracer_for(args)
    engine = _load_engine(
        args.directory,
        tracer,
        backend=_backend_for(args),
        cache=_cache_for(args),
    )
    schema, matches, __ = engine.plan(args.query, args.degree)
    if schema.is_empty():
        print(f"no match for {args.query!r}", file=out)
        return 1
    seed_counts: dict[str, int] = {}
    for match in matches:
        for occ in match.occurrences:
            seed_counts[occ.relation] = seed_counts.get(occ.relation, 0) + len(
                occ.tids
            )
    cap = args.per_relation
    estimated = estimate_cardinalities(engine.db, schema, seed_counts, cap)
    bound = "unconstrained" if cap is None else f"at most {cap} per relation"
    print(f"estimated answer size ({bound}):", file=out)
    for relation, expected in estimated.items():
        print(f"  {relation}: ~{expected:.1f} tuple(s)", file=out)
    print(f"  total: ~{sum(estimated.values()):.1f}", file=out)
    if args.target_total is not None:
        constraint = suggest_cardinality(
            engine.db, schema, seed_counts, args.target_total
        )
        print(
            f"suggested constraint for <= {args.target_total} tuples: "
            f"--per-relation {constraint.c0}",
            file=out,
        )
    if sink is not None:
        # plan() emits "match" and "schema" as separate roots (there is
        # no enclosing ask); print each captured span tree
        print("", file=out)
        for root in sink.spans:
            print(format_span_table(root), file=out)
        if engine.cache is not None:
            for layer, counters in engine.cache_stats().items():
                body = " ".join(f"{k}={v}" for k, v in counters.items())
                print(f"cache[{layer}]: {body}", file=out)
    return 0


def _cmd_serve(args, out) -> int:
    import asyncio

    from .obs import TraceBuffer
    from .service import AsyncFrontDoor, FrontDoorConfig, FrontDoorHTTP

    engine = _load_engine(
        args.directory,
        backend=_backend_for(args),
        cache=_cache_for(args),
    )
    traces = (
        TraceBuffer(
            capacity=args.trace_capacity, sample_rate=args.trace_sample
        )
        if args.trace_out is not None
        else None
    )
    config = FrontDoorConfig(
        workers=args.workers,
        max_pending=args.max_pending,
        default_timeout_s=(
            args.timeout_ms / 1000.0 if args.timeout_ms is not None else None
        ),
    )

    async def run() -> Optional[str]:
        # however the server stops, leaving the block closes the front
        # door and with it the worker pool
        async with AsyncFrontDoor(engine, config, traces=traces) as frontdoor:
            http = FrontDoorHTTP(frontdoor, host=args.host, port=args.port)
            try:
                host, port = await http.start()
            except OSError as exc:
                # asyncio words a failed bind around the OS's message
                reason = (
                    os.strerror(exc.errno)
                    if exc.errno is not None and exc.errno > 0
                    else exc.strerror
                )
                return f"cannot listen on {args.host}:{args.port}: {reason}"
            print(
                f"precis front door listening on http://{host}:{port}",
                file=out,
            )
            print(
                "routes: GET /ask?q=... | /metrics | /healthz | /shutdown",
                file=out,
            )
            try:
                await http.serve_until_shutdown()
            finally:
                await http.stop()
        return None

    refused = None
    try:
        refused = asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted", file=out)
    finally:
        if traces is not None and refused is None:
            kept = traces.export_jsonl(args.trace_out)
            print(f"{kept} trace(s) -> {args.trace_out}", file=out)
    if refused is not None:
        print(f"repro serve: {refused}", file=sys.stderr)
        raise SystemExit(1)
    print("server stopped", file=out)
    return 0


def _cmd_trace(args, out) -> int:
    import json

    from .obs.context import (
        chrome_trace_events,
        load_jsonl,
        validate_chrome_trace,
    )

    traces = load_jsonl(args.input)
    document = chrome_trace_events(traces)
    if args.validate:
        problems = validate_chrome_trace(document)
        if problems:
            for problem in problems:
                print(f"invalid: {problem}", file=out)
            return 1
    body = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if args.out == "-":
        out.write(body)
    else:
        with open(args.out, "w", encoding="utf-8") as stream:
            stream.write(body)
        print(f"{len(traces)} trace(s) exported to {args.out}", file=out)
    return 0


_COMMANDS = {
    "init-demo": _cmd_init_demo,
    "schema": _cmd_schema,
    "query": _cmd_query,
    "explain": _cmd_explain,
    "estimate": _cmd_estimate,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point; returns a process exit code (a usage error exits 2
    through :class:`SystemExit`, as argparse does, and a ``_graph.json``
    the database does not match, or an address ``serve`` cannot listen
    on, exits 1 the same way)."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("query", "explain", "estimate"):
        try:
            args.degree, args.cardinality = read_constraints(
                args.degree_weight,
                args.degree_top,
                args.degree_length,
                args.per_relation,
                getattr(args, "total", None),
            )
        except ConstraintOptionError as exc:
            flag = "--" + exc.option.replace("_", "-")
            parser.error(
                f"argument {flag}: {exc.value!r} is out of range "
                f"({exc.reason})"
            )
    try:
        return _COMMANDS[args.command](args, out)
    except GraphSchemaMismatch as exc:
        parser.exit(
            1,
            f"{parser.prog} {args.command}: {_GRAPH_FILE} does not match "
            f"the database: {'; '.join(exc.problems)}\n",
        )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
