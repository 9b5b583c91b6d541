"""repro — Précis queries over relational databases.

A complete, from-scratch reproduction of

    G. Koutrika, A. Simitsis, Y. Ioannidis.
    "Précis: The Essence of a Query Answer." ICDE 2006.

A *précis query* is a set of free-form tokens; its answer is not a flat
ranked tuple list but an entire logically connected sub-database — plus,
optionally, a natural-language synthesis. The package layout:

=====================  =====================================================
``repro.relational``   in-memory relational engine (the Oracle substitute)
``repro.text``         tokenizer + positional inverted index
``repro.graph``        weighted database schema graph and paths
``repro.core``         constraints, the two generators, the engine facade
``repro.personalization``  user weight profiles
``repro.nlg``          template language and translator
``repro.baselines``    DISCOVER- and BANKS-style keyword search comparators
``repro.datasets``     the paper's movies schema + synthetic generators
``repro.bench``        §6 experiment harness helpers
``repro.obs``          tracing, service metrics + exporters, EXPLAIN records
``repro.cache``        versioned, invalidation-aware plan/answer caching
=====================  =====================================================

Quickstart::

    from repro import PrecisEngine, WeightThreshold, MaxTuplesPerRelation
    from repro.datasets import (
        paper_instance, movies_graph, movies_translation_spec,
    )
    from repro.nlg import Translator

    engine = PrecisEngine(
        paper_instance(),
        graph=movies_graph(),
        translator=Translator(movies_translation_spec()),
    )
    answer = engine.ask(
        '"Woody Allen"',
        degree=WeightThreshold(0.9),
        cardinality=MaxTuplesPerRelation(3),
    )
    print(answer.narrative)
"""

from .cache import CacheConfig, EngineCache
from .core import (
    CompositeCardinality,
    CompositeDegree,
    MaxPathLength,
    MaxTotalTuples,
    MaxTuplesPerRelation,
    PrecisAnswer,
    PrecisEngine,
    PrecisQuery,
    ResultSchema,
    TopRProjections,
    Unlimited,
    WeightThreshold,
    cardinality_for_response_time,
)
from .graph import SchemaGraph, graph_from_schema
from .obs import (
    NULL_TRACER,
    EngineMetrics,
    InMemorySink,
    MetricsRegistry,
    Tracer,
    prometheus_text,
)
from .personalization import Profile
from .relational import Database, DatabaseSchema

__version__ = "1.0.0"

__all__ = [
    "PrecisEngine",
    "PrecisQuery",
    "PrecisAnswer",
    "ResultSchema",
    "TopRProjections",
    "WeightThreshold",
    "MaxPathLength",
    "CompositeDegree",
    "MaxTotalTuples",
    "MaxTuplesPerRelation",
    "CompositeCardinality",
    "Unlimited",
    "cardinality_for_response_time",
    "SchemaGraph",
    "graph_from_schema",
    "Profile",
    "Database",
    "DatabaseSchema",
    "CacheConfig",
    "EngineCache",
    "Tracer",
    "NULL_TRACER",
    "InMemorySink",
    "EngineMetrics",
    "MetricsRegistry",
    "prometheus_text",
    "__version__",
]
