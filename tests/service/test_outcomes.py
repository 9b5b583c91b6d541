"""How a served request ended: the one outcome vocabulary.

``repro.service.errors.outcome`` is the one function the pool's and
the front door's traces and the tally of ``benchmarks/loadgen.py``
call, and each shed error names its own reason.
"""

import pytest

from repro.core import PrecisEngine
from repro.datasets import movies_graph, paper_instance
from repro.service import (
    QueueFull,
    RetryExhausted,
    ServiceClosed,
    Shed,
    StaleRequest,
    TenantQuotaExceeded,
)
from repro.service.errors import OUTCOMES, outcome

from .faults import AfterNChecks

_ENGINE = PrecisEngine(paper_instance(), graph=movies_graph())
_COMPLETE = _ENGINE.ask("Allen")
_DEGRADED = _ENGINE.ask("Allen", deadline=AfterNChecks(0))


@pytest.mark.parametrize(
    "answer, error, expected",
    [
        (None, ServiceClosed("closed"), "shed_closed"),
        (None, QueueFull(1), "shed_full"),
        (None, StaleRequest(0.0), "shed_stale"),
        (None, TenantQuotaExceeded("acme", 1), "shed_tenant_quota"),
        (None, RetryExhausted(3, OSError("disk")), "failed"),
        (None, RuntimeError("boom"), "failed"),
        (_DEGRADED, None, "degraded"),
        (_COMPLETE, None, "answered"),
    ],
    ids=[
        "closed", "full", "stale", "tenant_quota", "retry_exhausted",
        "runtime_error", "degraded", "complete",
    ],
)
def test_outcome_of_each_ending(answer, error, expected):
    assert outcome(answer, error) == expected
    assert expected in OUTCOMES


def test_every_shed_names_its_reason():
    sheds = {
        ServiceClosed: "closed",
        QueueFull: "full",
        StaleRequest: "stale",
        TenantQuotaExceeded: "tenant_quota",
    }
    for cls, reason in sheds.items():
        assert issubclass(cls, Shed)
        assert cls.reason == reason
    assert not issubclass(RetryExhausted, Shed)


def test_vocabulary_is_listed_in_tally_order():
    # run_load's ``outcomes`` keys (benchmarks/loadgen.py), in this order
    assert OUTCOMES == (
        "answered",
        "degraded",
        "shed_stale",
        "shed_full",
        "shed_tenant_quota",
        "shed_closed",
        "failed",
    )
