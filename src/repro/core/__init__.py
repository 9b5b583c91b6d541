"""The précis core: queries, constraints, generators, answers, engine."""

from .answer import PrecisAnswer
from .constraints import (
    CardinalityConstraint,
    CompositeCardinality,
    CompositeDegree,
    ConstraintOptionError,
    DeadlineCardinality,
    DegreeConstraint,
    MaxPathLength,
    MaxTotalTuples,
    MaxTuplesPerRelation,
    SchemaState,
    TopRProjections,
    Unlimited,
    WeightThreshold,
    cardinality_for_response_time,
    read_constraints,
)
from .deadline import NO_DEADLINE, Deadline
from .database_generator import (
    JOIN_ORDER_FIFO,
    JOIN_ORDER_WEIGHT,
    STRATEGIES,
    STRATEGY_AUTO,
    STRATEGY_NAIVE,
    STRATEGY_ROUND_ROBIN,
    GeneratorReport,
    JoinExecution,
    generate_result_database,
)
from .diff import AnswerDiff, diff_answers
from .engine import PrecisEngine
from .estimator import estimate_cardinalities, estimate_total, suggest_cardinality
from .explain import (
    answer_ddl,
    build_explanation,
    emitted_queries,
    render_explanation,
    render_plan,
    render_stats,
)
from .explorer import Explorer
from .query import PrecisQuery
from .value_weights import (
    AttributeValueWeights,
    CallableWeigher,
    CombinedWeights,
    NumericAttributeWeights,
    TupleWeigher,
)
from .result_schema import ResultSchema
from .schema_generator import SchemaGeneratorStats, generate_result_schema

__all__ = [
    "PrecisEngine",
    "PrecisQuery",
    "PrecisAnswer",
    "ResultSchema",
    "generate_result_schema",
    "SchemaGeneratorStats",
    "generate_result_database",
    "GeneratorReport",
    "JoinExecution",
    "STRATEGY_AUTO",
    "STRATEGY_NAIVE",
    "STRATEGY_ROUND_ROBIN",
    "STRATEGIES",
    "JOIN_ORDER_WEIGHT",
    "JOIN_ORDER_FIFO",
    "DegreeConstraint",
    "TopRProjections",
    "WeightThreshold",
    "MaxPathLength",
    "CompositeDegree",
    "SchemaState",
    "CardinalityConstraint",
    "MaxTotalTuples",
    "MaxTuplesPerRelation",
    "CompositeCardinality",
    "DeadlineCardinality",
    "Unlimited",
    "cardinality_for_response_time",
    "ConstraintOptionError",
    "read_constraints",
    "Deadline",
    "NO_DEADLINE",
    "emitted_queries",
    "render_plan",
    "render_stats",
    "answer_ddl",
    "build_explanation",
    "render_explanation",
    "TupleWeigher",
    "AttributeValueWeights",
    "NumericAttributeWeights",
    "CallableWeigher",
    "CombinedWeights",
    "Explorer",
    "AnswerDiff",
    "diff_answers",
    "estimate_cardinalities",
    "estimate_total",
    "suggest_cardinality",
]
