"""Unit tests for the scheduler-policy layer: chain mechanics + protocol."""

import inspect

import pytest

from repro.core.fine import FineWritePolicy, SilentWritePolicy
from repro.core.pausing import WritePausingPolicy
from repro.core.row import ReadOverWritePolicy
from repro.core.wow import WriteOverWritePolicy
from repro.memory.policy import (
    BaseSchedulerPolicy,
    CoarseWritePolicy,
    PolicyChain,
    ReadAdmission,
    SchedulerPolicy,
    WriteContext,
)

ALL_POLICY_TYPES = [
    CoarseWritePolicy,
    SilentWritePolicy,
    FineWritePolicy,
    ReadOverWritePolicy,
    WriteOverWritePolicy,
    WritePausingPolicy,
]


class FakeController:
    """Just enough controller for PolicyChain.select_write."""

    fine = None  # a coarse controller: the chain scans with its FIFO

    def __init__(self, ctx=None):
        self.ctx = ctx
        self.candidate_calls = 0

    def select_write_candidate(self, now):
        self.candidate_calls += 1
        return self.ctx


class Recorder(BaseSchedulerPolicy):
    name = "recorder"

    def __init__(self, pre=None, select=False):
        super().__init__()
        self._pre = pre
        self._select = select
        self.events = []

    def pre_select(self, now):
        self.events.append(("pre", now))
        return self._pre

    def select_write(self, ctx):
        self.events.append(("select", ctx))
        return self._select


class Permissive(Recorder):
    name = "permissive"
    reads_block_writes = False
    mark_reads_delayed_in_drain = False


# ----------------------------------------------------------------------
# Chain construction
# ----------------------------------------------------------------------
def test_empty_chain_rejected():
    with pytest.raises(ValueError):
        PolicyChain(FakeController(), [])


def test_bind_happens_at_construction():
    controller = FakeController()
    policy = Recorder()
    chain = PolicyChain(controller, [policy])
    assert policy.controller is controller
    assert chain.policies == [policy]


def test_describe_joins_names_in_issue_order():
    chain = PolicyChain(FakeController(), [Recorder(), Permissive()])
    assert [p.name for p in chain.policies] == ["recorder", "permissive"]


def test_discipline_flags_require_unanimity():
    strict = PolicyChain(FakeController(), [Recorder(), Recorder()])
    assert strict.reads_block_writes
    assert strict.mark_reads_delayed_in_drain
    mixed = PolicyChain(FakeController(), [Recorder(), Permissive()])
    assert not mixed.reads_block_writes
    assert not mixed.mark_reads_delayed_in_drain


# ----------------------------------------------------------------------
# The two-phase write step
# ----------------------------------------------------------------------
def test_pre_select_claims_step_before_head_selection():
    controller = FakeController()
    claimer = Recorder(pre=True)
    later = Recorder()
    assert PolicyChain(controller, [claimer, later]).select_write(5)
    assert controller.candidate_calls == 0  # no head was even picked
    assert later.events == []  # chain stopped at the claimer


def test_pre_select_false_ends_step_without_progress():
    controller = FakeController()
    blocker = Recorder(pre=False)
    later = Recorder()
    assert not PolicyChain(controller, [blocker, later]).select_write(5)
    assert controller.candidate_calls == 0
    assert later.events == []


def test_no_candidate_means_no_progress():
    controller = FakeController(ctx=None)
    policy = Recorder(select=True)
    assert not PolicyChain(controller, [policy]).select_write(5)
    assert controller.candidate_calls == 1
    assert policy.events == [("pre", 5)]  # select_write never offered


def test_first_claiming_policy_wins_the_step():
    ctx = WriteContext(now=5, head=object(), decoded=object())
    controller = FakeController(ctx=ctx)
    decliner = Recorder(select=False)
    winner = Recorder(select=True)
    shadowed = Recorder(select=True)
    chain = PolicyChain(controller, [decliner, winner, shadowed])
    assert chain.select_write(5)
    assert ("select", ctx) in decliner.events  # offered, declined
    assert ("select", ctx) in winner.events
    assert ("select", ctx) not in shadowed.events  # never consulted


# ----------------------------------------------------------------------
# Protocol conformance (the contract mypy locks down in CI)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy_type", ALL_POLICY_TYPES)
def test_concrete_policies_satisfy_the_protocol(policy_type):
    policy = policy_type()
    assert isinstance(policy, SchedulerPolicy)
    assert policy.name  # every policy names itself in a chain


@pytest.mark.parametrize("policy_type", ALL_POLICY_TYPES)
def test_hook_signatures_match_the_protocol(policy_type):
    """Local stand-in for the CI mypy gate: overridden hooks must keep
    the protocol's parameter list exactly."""
    hooks = ["bind", "pre_select", "select_write", "on_read_enqueued"]
    for hook in hooks:
        expected = inspect.signature(getattr(BaseSchedulerPolicy, hook))
        actual = inspect.signature(getattr(policy_type, hook))
        assert list(actual.parameters) == list(expected.parameters), (
            f"{policy_type.__name__}.{hook} diverges from the protocol"
        )


def test_read_admission_is_immutable():
    plan = ReadAdmission(chips=(1, 2, 3))
    assert plan.missing_word is None
    with pytest.raises(Exception):
        plan.chips = (9,)
