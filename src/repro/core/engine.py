"""The précis engine — the system architecture of paper §4, Figure 2.

Wires the four components together::

    Q ──> Inverted Index ──> Result Schema Generator
              │                      │ (degree constraint d)
              │ k_i -> {(R,A,Tids)}  v
              └────────────> Result Database Generator ──> Translator
                                     (cardinality constraint c)

:class:`PrecisEngine` owns the source database, the weighted schema
graph, the inverted index and (optionally) a translator and a profile
registry; :meth:`PrecisEngine.ask` runs one query end to end and returns
a :class:`~repro.core.answer.PrecisAnswer`.
"""

from __future__ import annotations

import copy
from typing import Optional, Union

from ..cache import (
    MISSING,
    CacheConfig,
    EngineCache,
    answer_key,
    answer_token,
    plan_key,
    plan_token,
)
from ..graph.overlay import WeightOverlay, overlay_graph, weight_fingerprint
from ..graph.schema_graph import SchemaGraph, graph_from_schema
from ..obs import (
    NULL_TRACER,
    EngineMetrics,
    InMemorySink,
    MetricsRegistry,
    Span,
    Tracer,
    current_trace_id,
)
from ..personalization.profile import Profile, ProfileRegistry
from ..relational.database import Database
from ..text.inverted_index import InvertedIndex, build_index
from ..text.matching import SynonymMap, TokenMatch, match_tokens
from ..text.tokenizer import normalize
from .answer import PrecisAnswer
from .constraints import (
    CardinalityConstraint,
    DegreeConstraint,
    Unlimited,
    WeightThreshold,
)
from .database_generator import STRATEGY_AUTO, generate_result_database
from .deadline import NO_DEADLINE, Deadline
from .explain import build_explanation
from .query import PrecisQuery
from .result_schema import ResultSchema
from .schema_generator import generate_result_schema

__all__ = ["PrecisEngine"]


class PrecisEngine:
    """End-to-end précis query answering over one source database."""

    def __init__(
        self,
        db: Database,
        graph: Optional[SchemaGraph] = None,
        index: Optional[InvertedIndex] = None,
        synonyms: Optional[SynonymMap] = None,
        translator=None,
        default_degree: Optional[DegreeConstraint] = None,
        default_cardinality: Optional[CardinalityConstraint] = None,
        cache: Union[CacheConfig, EngineCache, bool, None] = None,
        drop_stopwords: bool = False,
        tracer: Optional[Tracer] = None,
        metrics: Union[EngineMetrics, MetricsRegistry, bool, None] = None,
        slow_query_ms: Optional[float] = None,
    ):
        """Build an engine.

        Parameters
        ----------
        db:
            The source database ``D``.
        graph:
            The weighted schema graph ``G``; derived from the database's
            foreign keys (at uniform default weights) when omitted.
        index:
            A pre-built inverted index; built over all TEXT columns when
            omitted.
        synonyms:
            Optional query-token canonicalization map.
        translator:
            An object with ``translate(answer, tracer=) -> str`` (see
            :class:`repro.nlg.translator.Translator`), called with the
            ask's tracer; when present, answers carry a natural-language
            narrative.
        default_degree / default_cardinality:
            Constraints used when a query supplies none. The engine
            default is the paper's running-example degree (projection
            weight ≥ 0.9) and no cardinality bound.
        cache:
            The versioned caching subsystem (:mod:`repro.cache`).
            Accepts a :class:`~repro.cache.CacheConfig`, a pre-built
            :class:`~repro.cache.EngineCache`, ``True`` (plan + answer
            caching at default bounds), or ``None``/``False`` (no
            caching — the default). The **plan cache** memoizes result
            schemas keyed by canonical (sorted token relations, degree)
            for queries over the engine's *base* graph; the opt-in
            **answer cache** short-circuits :meth:`ask` entirely for
            repeated query signatures. Both are coherent under live
            mutation by construction: every entry carries the epoch
            token — :attr:`Database.data_epoch` /
            :attr:`InvertedIndex.epoch` / :attr:`SchemaGraph.version` —
            it was computed under, and a lookup whose current token
            differs discards the entry (counted as an invalidation).
            Mutate through the database/:class:`SynchronizedWriter`/
            graph APIs and cached state can never go stale.
        drop_stopwords:
            Ignore bare single-word stopword tokens ("the", "of") in
            free-form queries. Quoted phrase tokens keep their
            stopwords — ``"Gone with the Wind"`` still phrase-matches.
        tracer:
            Observability hook (see :mod:`repro.obs`): stage spans and
            counters for index building and every query answered through
            this engine. Defaults to the zero-overhead no-op tracer;
            per-call ``tracer=`` arguments on :meth:`ask` /
            :meth:`ask_per_occurrence` / :meth:`plan` override it.
        metrics:
            Service-level metrics (:mod:`repro.obs.metrics`). Accepts an
            :class:`~repro.obs.EngineMetrics`, a bare
            :class:`~repro.obs.MetricsRegistry` (wrapped; registries may
            be shared across engines), ``True`` (fresh registry), or
            ``None`` (off — the default, zero overhead). When enabled,
            every :meth:`ask` feeds end-to-end and per-stage latency
            histograms, pipeline counters and cache hit/miss series,
            all read off the ask's span tree (recorded, when nobody
            traces, through one sinkless tracer the engine keeps);
            export via :meth:`metrics_snapshot` /
            :meth:`metrics_prometheus`.
        slow_query_ms:
            Threshold for the slow-query log (implies metrics when a
            registry was not given): asks at least this slow are kept,
            stage breakdown included, in a bounded slowest-first log
            (``engine.metrics.slow_queries``).
        """
        self.db = db
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = self._resolve_metrics(metrics, slow_query_ms)
        # Metrics digest each ask's span tree even when nobody traces:
        # one sinkless tracer for the engine's lifetime records it (its
        # span stack is thread-local; a Tracer per ask would allocate a
        # threading.local each time, cyclic garbage on the hot path).
        self._metered_tracer = Tracer() if self.metrics is not None else None
        self.graph = graph if graph is not None else graph_from_schema(db.schema)
        if index is not None:
            self.index = index
        elif self.metrics is not None and not self.tracer.enabled:
            # metrics without tracing: measure the build through a
            # private throwaway tracer, then digest the span
            sink = InMemorySink()
            self.index = build_index(db, tracer=Tracer([sink]))
            if sink.last is not None:
                self.metrics.observe_index_build(sink.last)
        else:
            self.index = build_index(db, tracer=self.tracer)
        self.synonyms = synonyms
        self.translator = translator
        self.default_degree = (
            default_degree if default_degree is not None else WeightThreshold(0.9)
        )
        self.default_cardinality = (
            default_cardinality if default_cardinality is not None else Unlimited()
        )
        self.drop_stopwords = drop_stopwords
        self.profiles = ProfileRegistry()
        self.cache = self._resolve_cache(cache)

    @staticmethod
    def _resolve_cache(
        cache: Union[CacheConfig, EngineCache, bool, None],
    ) -> Optional[EngineCache]:
        if isinstance(cache, EngineCache):
            return cache
        if isinstance(cache, CacheConfig):
            return EngineCache(cache)
        if cache is True:
            return EngineCache(CacheConfig(plans=True, answers=True))
        return None

    @staticmethod
    def _resolve_metrics(
        metrics: Union[EngineMetrics, MetricsRegistry, bool, None],
        slow_query_ms: Optional[float],
    ) -> Optional[EngineMetrics]:
        if isinstance(metrics, EngineMetrics):
            return metrics
        if isinstance(metrics, MetricsRegistry):
            return EngineMetrics(metrics, slow_query_ms=slow_query_ms)
        if metrics is True or (metrics is None and slow_query_ms is not None):
            return EngineMetrics(slow_query_ms=slow_query_ms)
        return None

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Per-layer hit/miss/eviction/invalidation counters (empty
        dict when caching is off)."""
        return self.cache.stats() if self.cache is not None else {}

    def metrics_snapshot(self) -> dict:
        """JSON-compatible dump of the service metrics: counters,
        gauges, histograms (with p50/p95/p99) and the slow-query log.
        Empty dict when metrics are off."""
        return self.metrics.snapshot() if self.metrics is not None else {}

    def metrics_prometheus(self) -> str:
        """The service metrics in Prometheus text exposition format
        (empty string when metrics are off)."""
        return self.metrics.prometheus() if self.metrics is not None else ""

    # --------------------------------------------------------------- profiles

    def register_profile(self, profile: Profile) -> None:
        self.profiles.register(profile)

    def _resolve_profile(
        self, profile: Optional[Profile | str]
    ) -> Optional[Profile]:
        if profile is None:
            return None
        if isinstance(profile, str):
            return self.profiles.get(profile)
        return profile

    def _resolve(
        self,
        query: PrecisQuery | str,
        degree: Optional[DegreeConstraint],
        cardinality: Optional[CardinalityConstraint],
        profile: Optional[Profile | str],
        weights: Optional[dict[tuple, float]],
    ) -> tuple[
        PrecisQuery, DegreeConstraint, CardinalityConstraint, SchemaGraph
    ]:
        """The parsed query, constraints and graph one call runs with.

        Explicit constraints win over the profile's, which win over the
        engine defaults. The graph is the base graph seen through the
        profile's weights plus any query-time overrides (overrides win):
        a copy-on-write :class:`~repro.graph.overlay.WeightOverlay` —
        never a clone — whose canonical fingerprint keys both caches, or
        the base graph itself when nothing is overridden. :meth:`ask`,
        :meth:`ask_signature`, :meth:`plan` and
        :meth:`ask_per_occurrence` all resolve here, so the signature
        the front door keys on is the key :meth:`ask` caches under.
        """
        if isinstance(query, str):
            query = PrecisQuery.parse(query)
        resolved = self._resolve_profile(profile)
        if resolved is not None:
            degree = degree or resolved.degree
            cardinality = cardinality or resolved.cardinality
        graph = overlay_graph(
            self.graph, resolved.weights if resolved else None, weights
        )
        return (
            query,
            degree or self.default_degree,
            cardinality or self.default_cardinality,
            graph,
        )

    # --------------------------------------------------------------- asking

    def match(
        self, query: PrecisQuery, deadline: Deadline = NO_DEADLINE
    ) -> list[TokenMatch]:
        """Step 1: resolve query tokens through the inverted index.

        An already-expired *deadline* sheds the index lookups entirely:
        every token comes back as an (empty) unmatched
        :class:`~repro.text.matching.TokenMatch`, so downstream stages
        still see a well-formed match list."""
        tokens = query.tokens
        if self.drop_stopwords:
            from ..text.stopwords import is_stopword

            tokens = tuple(
                token
                for token in tokens
                if len(token) > 1 or not is_stopword(token[0])
            )
        if deadline.expired():
            shed = []
            for token in tokens:
                text = token if isinstance(token, str) else " ".join(token)
                if self.synonyms is not None:
                    text = self.synonyms.canonicalize(text)
                shed.append(TokenMatch(normalize(text), ()))
            return shed
        return match_tokens(self.index, tokens, self.synonyms)

    def plan(
        self,
        query: PrecisQuery | str,
        degree: Optional[DegreeConstraint] = None,
        profile: Optional[Profile | str] = None,
        weights: Optional[dict[tuple, float]] = None,
        tracer: Optional[Tracer] = None,
        deadline: Deadline = NO_DEADLINE,
    ) -> tuple[ResultSchema, list[TokenMatch], SchemaGraph]:
        """Steps 1–2: match tokens and generate the result schema only.

        *weights* are query-time edge-weight overrides (§3.1: "weights
        may be set by the user at query time using an appropriate user
        interface"), applied on top of any profile. Keys are schema-graph
        edge keys: ``("proj", rel, attr)`` / ``("join", src, dst)``.

        *tracer* overrides the engine tracer for this call: a ``"match"``
        span (``tokens_matched``) and a ``"schema"`` span
        (``cache_hit``/``cache_miss`` whenever the plan cache was
        consulted, wrapping the nested ``"schema_generator"`` span on a
        miss).

        *deadline* (:mod:`repro.core.deadline`) is checked cooperatively:
        expiry sheds the index lookups and/or cuts the best-first
        traversal, leaving a valid partial schema whose ``stop`` records
        ``kind="deadline"``. Partial schemas never enter the plan cache.
        """
        query, degree, __, graph = self._resolve(
            query, degree, None, profile, weights
        )
        schema, matches, __ = self._plan(
            query, degree, graph,
            tracer if tracer is not None else self.tracer, deadline,
        )
        return schema, matches, graph

    def _plan(
        self,
        query: PrecisQuery,
        degree: DegreeConstraint,
        graph: SchemaGraph,
        tracer: Tracer,
        deadline: Deadline,
    ) -> tuple[ResultSchema, list[TokenMatch], str]:
        """Steps 1–2 over resolved parameters (see :meth:`_resolve`),
        plus the plan-cache outcome (``"hit"`` / ``"miss"`` / ``"off"``
        / ``"uncacheable"``) for provenance."""
        with tracer.span("match"):
            matches = self.match(query, deadline=deadline)
            tracer.count(
                "tokens_matched", sum(1 for match in matches if match.found)
            )
        token_relations = []
        for match in matches:
            for occurrence in match.occurrences:
                if occurrence.relation not in token_relations:
                    token_relations.append(occurrence.relation)

        with tracer.span("schema"):
            plans = self.cache.plans if self.cache is not None else None
            outcome = "off" if plans is None else "uncacheable"
            # cacheable: the base graph, or any overlay over it — the
            # overlay's canonical fingerprint joins the key, so tenants
            # with coinciding effective weights share one entry and the
            # validity token (the shared base version) keeps them all
            # coherent under base-graph mutation. Foreign graphs (a
            # caller-materialized clone) stay uncacheable.
            cacheable = plans is not None and (
                graph is self.graph
                or (
                    isinstance(graph, WeightOverlay)
                    and graph.base is self.graph
                )
            )
            if cacheable:
                try:
                    # canonical key: the schema is a function of the
                    # relation *set*, so token discovery order must not
                    # split entries
                    key = plan_key(
                        token_relations, degree, weight_fingerprint(graph)
                    )
                except TypeError:
                    cacheable = False
            if cacheable:
                token = plan_token(graph)
                invalidated = plans.stats.invalidations
                cached = plans.get(key, token)
                tracer.count(
                    "cache_invalidation",
                    plans.stats.invalidations - invalidated,
                )
                hit = cached is not MISSING
                outcome = "hit" if hit else "miss"
                tracer.count("cache_hit", 1 if hit else 0)
                tracer.count("cache_miss", 0 if hit else 1)
                if hit:
                    return cached, matches, outcome
            schema = generate_result_schema(
                graph, token_relations, degree, tracer=tracer,
                deadline=deadline,
            )
            # A deadline-cut schema is *partial* — caching it would serve
            # degraded answers to future unconstrained asks.
            degraded = (
                schema.stop is not None and schema.stop.kind == "deadline"
            )
            if cacheable and not degraded:
                plans.put(key, schema, token)
        return schema, matches, outcome

    @staticmethod
    def _signature(
        query, degree, cardinality, strategy, graph, translate, path_scoped
    ) -> Optional[tuple]:
        """The canonical answer key of fully-resolved ask parameters, or
        ``None`` when the combination is uncacheable (unhashable
        constraint/override)."""
        try:
            return answer_key(
                query,
                degree,
                cardinality,
                strategy,
                weight_fingerprint(graph),
                translate,
                path_scoped,
            )
        except TypeError:  # unhashable constraint/override
            return None

    def ask_signature(
        self,
        query: PrecisQuery | str,
        degree: Optional[DegreeConstraint] = None,
        cardinality: Optional[CardinalityConstraint] = None,
        strategy: str = STRATEGY_AUTO,
        profile: Optional[Profile | str] = None,
        translate: bool = True,
        weights: Optional[dict[tuple, float]] = None,
        tuple_weigher=None,
        path_scoped: bool = False,
    ) -> Optional[tuple]:
        """The canonical signature one :meth:`ask` call would be cached
        (and coalesced) under, without running it.

        This is exactly the answer-cache key: query tokens, resolved
        degree/cardinality constraints, strategy, the canonical weight
        fingerprint of the effective graph (profile weights + query-time
        overrides — the tenant dimension), and the translate/path_scoped
        flags. Two calls with equal signatures produce byte-identical
        answers over an unmutated database, which is what makes the
        signature safe as the async front door's request-coalescing key
        (:mod:`repro.service.frontdoor`). Returns ``None`` when the call
        is uncacheable — an opaque *tuple_weigher*, or an unhashable
        constraint/override — meaning it must never be coalesced or
        cached.
        """
        if tuple_weigher is not None:
            return None
        query, degree, cardinality, graph = self._resolve(
            query, degree, cardinality, profile, weights
        )
        return self._signature(
            query, degree, cardinality, strategy, graph, translate,
            path_scoped,
        )

    def holds_answer(self, signature: Optional[tuple]) -> bool:
        """True iff the answer cache holds a live answer under
        *signature* (an :meth:`ask_signature` result): one stored under
        the current data, index and graph epochs.

        Counts no lookup and leaves recency alone — the :meth:`ask`
        that serves the answer does both. The async front door asks
        this at admission to answer a cached ask on its event loop
        (:mod:`repro.service.frontdoor`). A write or an eviction may
        still land before that ask, which then runs the pipeline."""
        answers = self.cache.answers if self.cache is not None else None
        if answers is None or signature is None:
            return False
        return answers.holds(
            signature, answer_token(self.db, self.index, self.graph)
        )

    def ask(
        self,
        query: PrecisQuery | str,
        degree: Optional[DegreeConstraint] = None,
        cardinality: Optional[CardinalityConstraint] = None,
        strategy: str = STRATEGY_AUTO,
        profile: Optional[Profile | str] = None,
        translate: bool = True,
        weights: Optional[dict[tuple, float]] = None,
        tuple_weigher=None,
        path_scoped: bool = False,
        tracer: Optional[Tracer] = None,
        deadline: Optional[Deadline] = None,
    ) -> PrecisAnswer:
        """Answer a précis query end to end.

        *weights* are query-time edge-weight overrides (see
        :meth:`plan`); *tuple_weigher* is an optional
        :class:`~repro.core.value_weights.TupleWeigher` steering which
        tuples survive the cardinality budget (the §7 value-weight
        extension). With tracing enabled (engine- or call-level
        *tracer*), the whole run is recorded under an ``"ask"`` root
        span, and that span is the answer's
        :attr:`~repro.core.answer.PrecisAnswer.stats`.

        With the answer cache enabled (``cache=True`` or
        ``CacheConfig(answers=True)``), a repeated query signature —
        same tokens, constraints, strategy, profile contents, weight
        overrides and flags — returns the cached
        :class:`~repro.core.answer.PrecisAnswer` object without
        re-running the pipeline, provided the database, index and graph
        epochs still match the entry's validity token. Calls with a
        *tuple_weigher* (an opaque callable) are never cached. A traced
        ask gets an answer object of its own carrying its own root span;
        the cached entry itself never carries any ask's spans.

        *deadline* (:mod:`repro.core.deadline`) is a cooperative time
        budget checked at stage boundaries and inside the generator
        loops. Expiry never raises: the stage underway is cut exactly
        like a degree/cardinality constraint cut, later stages are shed,
        and the answer comes back well-formed but flagged
        :attr:`~repro.core.answer.PrecisAnswer.degraded` with the
        tripping stage in
        :attr:`~repro.core.answer.PrecisAnswer.degraded_stage` and in
        EXPLAIN provenance. Degraded answers are **never** written to
        the answer cache (serving a cached answer is still allowed —
        cached answers are complete by construction and cost no
        pipeline time).
        """
        tracer, traced = self._ask_tracer(tracer)
        deadline = deadline if deadline is not None else NO_DEADLINE
        query, degree, cardinality, graph = self._resolve(
            query, degree, cardinality, profile, weights
        )

        answer_lru = self.cache.answers if self.cache is not None else None
        cache_key = None
        answer_outcome = "off" if answer_lru is None else "uncacheable"
        if answer_lru is not None and tuple_weigher is None:
            cache_key = self._signature(
                query, degree, cardinality, strategy, graph, translate,
                path_scoped,
            )

        # the serving layer's request context (None for direct asks):
        # one id correlating this answer's EXPLAIN record, slow-query
        # entry, histogram exemplars and span tree
        trace_id = current_trace_id()
        with tracer.span("ask") as root:
            hit = False
            if cache_key is not None:
                token = answer_token(self.db, self.index, self.graph)
                with tracer.span("cache"):
                    invalidated = answer_lru.stats.invalidations
                    cached = answer_lru.get(cache_key, token)
                    tracer.count(
                        "cache_invalidation",
                        answer_lru.stats.invalidations - invalidated,
                    )
                    hit = cached is not MISSING
                    tracer.count("answer_cache_hit", 1 if hit else 0)
                    tracer.count("answer_cache_miss", 0 if hit else 1)
            if hit:
                answer = cached
            else:
                answer_outcome = (
                    "miss" if cache_key is not None else answer_outcome
                )
                # Stage-boundary deadline checks. The first stage found
                # expired names the degradation in the answer + EXPLAIN;
                # the stage itself degrades cooperatively (shed index
                # lookups / cut traversal / cut generation / skip
                # translation) — never an exception.
                degraded_stage = "match" if deadline.expired() else None
                schema, matches, plan_outcome = self._plan(
                    query, degree, graph, tracer, deadline
                )
                if (
                    degraded_stage is None
                    and schema.stop is not None
                    and schema.stop.kind == "deadline"
                ):
                    degraded_stage = "schema"
                answer = self._answer(
                    query, schema, matches, degree, cardinality, strategy,
                    translate, tracer,
                    tuple_weigher=tuple_weigher,
                    path_scoped=path_scoped,
                    deadline=deadline,
                    degraded_stage=degraded_stage,
                    plan_cache=plan_outcome,
                    answer_cache=answer_outcome,
                    trace_id=trace_id,
                )
                if cache_key is not None and not answer.degraded:
                    # partial answers must never poison the cache
                    answer_lru.put(cache_key, answer, token)
        if traced:
            if cache_key is not None:
                # a cached answer is shared by every later hit, so it
                # never carries one ask's spans: this ask gets its own
                # (a shallow copy, which shares the answer's encoded
                # body; stats are not part of it)
                answer = copy.copy(answer)
            answer.stats = root
        self._observe(root, query, trace_id)
        return answer

    def _ask_tracer(self, tracer: Optional[Tracer]) -> tuple[Tracer, bool]:
        """The tracer one ask records through, and whether the caller
        traced it (its root span then becomes ``answer.stats``)."""
        tracer = tracer if tracer is not None else self.tracer
        if tracer.enabled:
            return tracer, True
        if self._metered_tracer is not None:
            return self._metered_tracer, False
        return tracer, False

    def _observe(
        self, root: Span, query: PrecisQuery, trace_id: Optional[str]
    ) -> None:
        """Feed one closed ask root to the engine metrics, when on."""
        if self.metrics is None:
            return
        self.metrics.observe_ask(root, query.text, trace_id=trace_id)
        if self.cache is not None:
            self.metrics.observe_cache_stats(self.cache_stats())

    def _answer(
        self,
        query: PrecisQuery,
        schema: ResultSchema,
        matches: list[TokenMatch],
        degree: DegreeConstraint,
        cardinality: CardinalityConstraint,
        strategy: str,
        translate: bool,
        tracer: Tracer,
        *,
        tuple_weigher,
        path_scoped: bool,
        deadline: Deadline,
        degraded_stage: Optional[str],
        plan_cache: str,
        answer_cache: str,
        trace_id: Optional[str],
    ) -> PrecisAnswer:
        """Steps 3–4 over a planned result schema, the one way every
        answer is built: seed the result database with the matched
        tuples and populate it (Figure 5), translate it, and record its
        EXPLAIN provenance.

        *degraded_stage* is the earlier stage a deadline already cut
        (None if none did); the first stage found expired here
        (``"tuples"`` / ``"translate"``) is recorded otherwise, and an
        answer over budget sheds its narrative. *plan_cache* /
        *answer_cache* are the cache outcomes EXPLAIN reports."""
        seed_tids: dict[str, set[int]] = {}
        for match in matches:
            for occurrence in match.occurrences:
                seed_tids.setdefault(occurrence.relation, set()).update(
                    occurrence.tids
                )
        with self.db.meter.measure() as measured:
            database, report = generate_result_database(
                self.db,
                schema,
                seed_tids,
                cardinality,
                strategy,
                tuple_weigher=tuple_weigher,
                path_scoped=path_scoped,
                tracer=tracer,
                deadline=deadline,
            )
        if degraded_stage is None and report.stopped_by_deadline:
            degraded_stage = "tuples"
        answer = PrecisAnswer(
            query=query,
            result_schema=schema,
            database=database,
            report=report,
            matches=matches,
            cost=measured.delta,
        )
        if translate and self.translator is not None and answer.found:
            if degraded_stage is not None:
                pass  # already over budget: shed the narrative
            elif deadline.expired():
                degraded_stage = "translate"
            else:
                with tracer.span("translate"):
                    answer.narrative = self.translator.translate(
                        answer, tracer=tracer
                    )
        answer.degraded = degraded_stage is not None
        answer.degraded_stage = degraded_stage
        answer.explanation = build_explanation(
            answer,
            degree,
            cardinality,
            plan_cache=plan_cache,
            answer_cache=answer_cache,
            deadline_stage=degraded_stage,
            trace_id=trace_id,
        )
        return answer

    def ask_per_occurrence(
        self,
        query: PrecisQuery | str,
        degree: Optional[DegreeConstraint] = None,
        cardinality: Optional[CardinalityConstraint] = None,
        strategy: str = STRATEGY_AUTO,
        profile: Optional[Profile | str] = None,
        translate: bool = True,
        weights: Optional[dict[tuple, float]] = None,
        rank: bool = False,
        tracer: Optional[Tracer] = None,
    ) -> list[PrecisAnswer]:
        """One answer per distinct token occurrence — the §5.1 homonym

        policy: "in the absence of any additional knowledge stored in
        the system, we may return multiple answers, one for each
        homonym". Each occurrence (a (relation, attribute) pair where a
        token was found) gets its own result schema rooted at that
        relation only, its own result database seeded by that
        occurrence's tuples only, and its own narrative.

        *weights* are query-time edge-weight overrides exactly as in
        :meth:`plan`/:meth:`ask`, applied on top of any profile before
        the per-occurrence schemas are generated.

        Each answer is built by the answer step :meth:`ask` uses, so a
        query whose one token matches in one place gets the one answer
        :meth:`ask` gives (same body and EXPLAIN). With ``rank=True`` the
        answers come sorted by decreasing
        :meth:`~repro.core.answer.PrecisAnswer.relevance`. With tracing
        enabled, each answer's ``stats`` is its ``occurrence`` subtree
        of the one ``ask_per_occurrence`` root.
        """
        query, degree, cardinality, graph = self._resolve(
            query, degree, cardinality, profile, weights
        )
        tracer, traced = self._ask_tracer(tracer)
        answers: list[PrecisAnswer] = []
        trace_id = current_trace_id()
        with tracer.span("ask_per_occurrence") as root:
            with tracer.span("match"):
                matches = self.match(query)
                tracer.count(
                    "tokens_matched", sum(1 for m in matches if m.found)
                )
            for match in matches:
                for occurrence in match.occurrences:
                    with tracer.span("occurrence") as occ_span:
                        schema = generate_result_schema(
                            graph, [occurrence.relation], degree, tracer=tracer
                        )
                        answer = self._answer(
                            query,
                            schema,
                            [TokenMatch(match.token, (occurrence,))],
                            degree, cardinality, strategy, translate, tracer,
                            tuple_weigher=None,
                            path_scoped=False,
                            deadline=NO_DEADLINE,
                            degraded_stage=None,
                            plan_cache="off",
                            answer_cache="off",
                            trace_id=trace_id,
                        )
                    if traced:
                        answer.stats = occ_span
                    answers.append(answer)
        self._observe(root, query, trace_id)
        if rank:
            answers.sort(key=lambda a: -a.relevance())
        return answers

    def disambiguate(
        self, query: PrecisQuery | str, samples: int = 3
    ) -> list[dict]:
        """Describe each token occurrence so a UI can ask the user which

        entity they meant — §5.1's alternative to returning one answer
        per homonym ("obtain additional information through interaction
        with the user"). Each option carries the token, its location,
        the number of matching tuples and up to *samples* sample values
        of the matched attribute; feed the chosen option's relation back
        through :meth:`ask_per_occurrence` (or filter its output).

        Tuples whose matched attribute is NULL (or that were deleted
        since matching) don't count toward the *samples* budget: the
        scan keeps fetching further tids until it has *samples* non-null
        values or runs out of matches.
        """
        if isinstance(query, str):
            query = PrecisQuery.parse(query)
        options: list[dict] = []
        for match in self.match(query):
            for occurrence in match.occurrences:
                relation = self.db.relation(occurrence.relation)
                candidates = sorted(occurrence.tids)
                values: list[str] = []
                chunk = max(samples, 8)
                for start in range(0, len(candidates), chunk):
                    rows = relation.fetch_many(
                        candidates[start : start + chunk],
                        [occurrence.attribute],
                    )
                    for row in rows:
                        if row[0] is not None:
                            values.append(str(row[0]))
                            if len(values) >= samples:
                                break
                    if len(values) >= samples:
                        break
                options.append(
                    {
                        "token": match.token,
                        "relation": occurrence.relation,
                        "attribute": occurrence.attribute,
                        "matches": len(occurrence.tids),
                        "samples": values,
                    }
                )
        return options
