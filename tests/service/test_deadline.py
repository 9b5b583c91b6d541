"""Deadline-expiry tests: every pipeline stage, always a valid answer.

The contract under test (ISSUE 5): a deadline expiring at *any* point
of the pipeline — index lookup, schema traversal, tuple generation,
translation — yields a well-formed, partial :class:`PrecisAnswer`
flagged ``degraded`` with the tripping stage recorded in EXPLAIN
provenance, and **never** an exception. A deadline that does not trip
changes nothing: the answer is byte-identical to the deadline-free one.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import chain_database, chain_graph
from repro.core import (
    Deadline,
    NO_DEADLINE,
    PrecisAnswer,
    PrecisEngine,
    WeightThreshold,
)

from .faults import AfterNChecks

QUERY = '"Woody Allen"'
STAGES = ("match", "schema", "tuples", "translate")


def ask(engine, deadline=None):
    return engine.ask(QUERY, degree=WeightThreshold(0.3), deadline=deadline)


@pytest.fixture(scope="module")
def baseline(paper_engine):
    """The deadline-free answer, serialized once for byte comparison."""
    answer = ask(paper_engine)
    return json.dumps(answer.to_dict(), sort_keys=True)


def assert_well_formed(answer):
    """The invariants every degraded-or-not answer must satisfy."""
    assert isinstance(answer, PrecisAnswer)
    assert answer.degraded == (answer.degraded_stage is not None)
    if answer.degraded:
        assert answer.degraded_stage in STAGES
    # serialization, rendering and EXPLAIN never blow up on a partial
    json.dumps(answer.to_dict(), sort_keys=True)
    assert isinstance(answer.describe(), str)
    assert answer.explanation is not None
    assert answer.explanation.deadline_stage == answer.degraded_stage
    rendered = answer.explanation.render()
    assert isinstance(rendered, str)
    if answer.degraded:
        bounds = " | ".join(answer.explanation.bounding_constraints())
        assert "deadline" in bounds
        assert answer.degraded_stage in bounds
        assert "deadline" in rendered


class TestStageSweep:
    """Sweep the trip point across every cooperative checkpoint."""

    @pytest.fixture(scope="class")
    def sweep(self, paper_engine):
        results = []
        for n in range(0, 80):
            deadline = AfterNChecks(n)
            answer = ask(paper_engine, deadline=deadline)
            results.append((n, deadline.calls, answer))
        return results

    def test_never_raises_and_always_well_formed(self, sweep):
        for __, __, answer in sweep:
            assert_well_formed(answer)

    def test_every_stage_is_hit(self, sweep):
        stages = {answer.degraded_stage for __, __, answer in sweep}
        assert stages.issuperset(STAGES), f"stages hit: {stages}"
        # and a large-enough budget must not degrade at all
        assert None in stages

    def test_degradation_is_monotone_in_stage_order(self, sweep):
        """A later trip point never degrades an *earlier* stage."""
        order = {stage: i for i, stage in enumerate(STAGES)}
        order[None] = len(STAGES)
        ranks = [order[a.degraded_stage] for __, __, a in sweep]
        assert ranks == sorted(ranks)

    def test_untripped_deadline_is_byte_identical(self, sweep, baseline):
        clean = [a for __, __, a in sweep if not a.degraded]
        assert clean, "sweep never reached a non-degraded answer"
        for answer in clean:
            assert json.dumps(answer.to_dict(), sort_keys=True) == baseline

    def test_degraded_answers_are_partial_not_empty_shells(self, sweep):
        """Expiry mid-generation keeps the tuples already deposited:
        some trip point must yield a degraded-yet-nonempty answer."""
        partial = [
            answer
            for __, __, answer in sweep
            if answer.degraded_stage in ("tuples", "translate")
            and answer.total_tuples() >= 1
        ]
        assert partial
        # a translate-stage trip means generation finished: always found
        for __, __, answer in sweep:
            if answer.degraded_stage == "translate":
                assert answer.found


class TestStageSpecifics:
    def test_already_expired_wall_deadline_degrades_at_match(
        self, paper_engine
    ):
        answer = ask(paper_engine, deadline=Deadline.after(0.0))
        assert_well_formed(answer)
        assert answer.degraded_stage == "match"
        assert not answer.found
        assert answer.total_tuples() == 0

    def test_negative_deadline_equivalent_to_expired(self, paper_engine):
        answer = ask(paper_engine, deadline=Deadline.after(-5.0))
        assert answer.degraded_stage == "match"

    def test_translate_stage_sheds_narrative(self, sweep_translate):
        answer = sweep_translate
        assert answer.degraded_stage == "translate"
        assert answer.narrative is None
        assert answer.found  # everything before translation completed

    @pytest.fixture(scope="class")
    def sweep_translate(self, paper_engine):
        for n in range(0, 80):
            answer = ask(paper_engine, deadline=AfterNChecks(n))
            if answer.degraded_stage == "translate":
                return answer
        pytest.fail("no trip point degraded at the translate stage")

    def test_schema_stop_kind_deadline_in_explain(self, paper_engine):
        for n in range(0, 80):
            answer = ask(paper_engine, deadline=AfterNChecks(n))
            if answer.degraded_stage == "schema":
                stop = answer.explanation.schema_stop
                assert stop is not None and stop.kind == "deadline"
                assert "deadline" in answer.explanation.render()
                return
        pytest.fail("no trip point degraded at the schema stage")

    def test_no_deadline_and_never_are_equivalent(self, paper_engine, baseline):
        for deadline in (None, NO_DEADLINE, Deadline.never()):
            answer = ask(paper_engine, deadline=deadline)
            assert json.dumps(answer.to_dict(), sort_keys=True) == baseline

    def test_degraded_flag_serializes(self, paper_engine):
        answer = ask(paper_engine, deadline=Deadline.after(0.0))
        payload = answer.to_dict()
        assert payload["degraded"] is True
        clean = ask(paper_engine)
        assert clean.to_dict()["degraded"] is False


class TestCutInsideTheLastJoin:
    """A RoundRobin join checks the deadline every 64 picks and returns
    the picks made so far without flagging the cut; the walk's check
    after its last edge is what marks such an answer degraded. Here the
    only join fans one seed out to 100 tuples, so some trip point lands
    inside it."""

    QUERY = "alpha1"

    @pytest.fixture(scope="class")
    def chain(self):
        return chain_database(2, roots=1, fanout=100), chain_graph(2)

    def test_answer_is_whole_or_degraded_and_never_cached(self, chain):
        db, graph = chain
        reference = PrecisEngine(db, graph=graph).ask(self.QUERY)
        checks = AfterNChecks(10**9)
        PrecisEngine(db, graph=graph).ask(self.QUERY, deadline=checks)
        cut_inside_the_join = False
        for n in range(checks.calls + 1):
            engine = PrecisEngine(db, graph=graph, cache=True)
            answer = engine.ask(self.QUERY, deadline=AfterNChecks(n))
            assert_well_formed(answer)
            if answer.degraded:
                signature = engine.ask_signature(self.QUERY)
                assert not engine.holds_answer(signature), n
                cut_inside_the_join |= (
                    0 < answer.cardinalities().get("R2", 0) < 100
                )
            else:
                assert answer.to_json() == reference.to_json(), n
            # a later deadline-free ask is never served a partial
            assert engine.ask(self.QUERY).to_json() == reference.to_json()
        assert cut_inside_the_join


class TestDeadlineObject:
    def test_after_and_remaining(self):
        ticks = iter([0.0, 1.0, 3.0, 6.0]).__next__
        deadline = Deadline.after(2.0, clock=ticks)  # expires at t=2
        assert not deadline.expired()  # t=1
        assert deadline.expired()  # t=3
        assert deadline.remaining() == 0.0  # t=6, clamped

    def test_never(self):
        assert not Deadline.never().expires()
        assert not Deadline.never().expired()
        assert Deadline.never().remaining() == float("inf")
        assert not NO_DEADLINE.expires()

    def test_repr(self):
        assert "never" in repr(NO_DEADLINE)
        assert "remaining" in repr(Deadline.after(10.0))

    def test_nan_is_rejected(self):
        """A NaN deadline would never expire yet report 0.0 remaining,
        which the front door would sort ahead of every real deadline."""
        with pytest.raises(ValueError, match="NaN"):
            Deadline.after(float("nan"))
        with pytest.raises(ValueError, match="NaN"):
            Deadline(float("nan"))

    def test_negative_and_infinite_keep_their_meaning(self):
        clock = iter([5.0, 5.0, 5.0, 5.0]).__next__
        expired = Deadline.after(-1.0, clock=clock)
        assert expired.expired()
        assert expired.remaining() == 0.0
        endless = Deadline.after(float("inf"))
        assert endless.expires() and not endless.expired()
        assert endless.remaining() == float("inf")


class TestDeadlineProperty:
    """Hypothesis: any trip point yields a valid answer; an untripped
    deadline yields the deadline-free bytes."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=0, max_value=120))
    def test_any_trip_point_is_safe(self, paper_engine, baseline, n):
        answer = ask(paper_engine, deadline=AfterNChecks(n))
        assert_well_formed(answer)
        if not answer.degraded:
            assert json.dumps(answer.to_dict(), sort_keys=True) == baseline
