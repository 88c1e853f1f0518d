"""The fault-injection framework: plans, the runtime, determinism.

Driver-side unit tests only.  ``worker-crash`` and ``task-stall`` are
worker-gated kinds -- actually detonating them would kill or stall the
test process -- so here we assert the *gating* (the runtime refuses to
fire them outside a marked worker and leaves the entry unconsumed);
their end-to-end behavior (pool rebuilds, deadline recovery) is covered
by the chaos suite in ``test_chaos.py``.
"""

import pickle

import pytest

from repro import faults
from repro.core.errors import TransientError
from repro.faults import (
    ALL_KINDS,
    CORRUPT_READ,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    SITES,
    TASK_ERROR,
    TASK_STALL,
    TORN_WRITE,
    WORKER_CRASH,
)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test must leave the process fault-free."""
    assert faults.active_plan() is None
    yield
    assert faults.active_plan() is None


class TestFaultSpec:
    def test_defaults(self):
        spec = FaultSpec("parallel.task", TASK_ERROR)
        assert spec.occurrence == 1
        assert spec.seconds == 0.25

    def test_rejects_nonpositive_occurrence(self):
        with pytest.raises(ValueError):
            FaultSpec("parallel.task", TASK_ERROR, occurrence=0)

    def test_rejects_negative_stall(self):
        with pytest.raises(ValueError):
            FaultSpec("parallel.task", TASK_STALL, seconds=-1.0)

    def test_specs_are_orderable_and_hashable(self):
        a = FaultSpec("parallel.task", TASK_ERROR, occurrence=1)
        b = FaultSpec("parallel.task", TASK_ERROR, occurrence=2)
        assert sorted([b, a]) == [a, b]
        assert len({a, b, a}) == 2


class TestFaultPlan:
    def test_sites_catalogue_is_consistent(self):
        for site, kinds in SITES.items():
            assert kinds, site
            assert set(kinds) <= set(ALL_KINDS)

    def test_none_is_falsy_and_valid(self):
        plan = FaultPlan.none()
        assert not plan
        assert plan.validated() is plan

    def test_of_sorts_entries_canonically(self):
        late = FaultSpec("parallel.task", TASK_ERROR, occurrence=3)
        early = FaultSpec("parallel.task", TASK_ERROR, occurrence=1)
        plan = FaultPlan.of(late, early)
        assert plan.entries == (early, late)
        assert plan

    def test_of_rejects_unknown_site(self):
        with pytest.raises(ValueError, match="unknown injection site"):
            FaultPlan.of(FaultSpec("martian.site", TASK_ERROR))

    def test_of_rejects_unhonoured_kind(self):
        with pytest.raises(ValueError, match="does not honour"):
            FaultPlan.of(FaultSpec("checkpoint.write", WORKER_CRASH))

    def test_seeded_is_deterministic(self):
        assert FaultPlan.seeded(42) == FaultPlan.seeded(42)
        assert FaultPlan.seeded(42, faults=4) == FaultPlan.seeded(42, faults=4)

    def test_seeded_plans_vary_across_seeds(self):
        plans = {FaultPlan.seeded(seed).entries for seed in range(8)}
        assert len(plans) > 1

    def test_seeded_respects_site_restriction(self):
        plan = FaultPlan.seeded(7, sites=("parallel.task",), faults=3)
        assert all(spec.site == "parallel.task" for spec in plan.entries)
        assert all(spec.kind in SITES["parallel.task"] for spec in plan.entries)

    def test_seeded_is_always_valid(self):
        for seed in range(20):
            FaultPlan.seeded(seed, faults=3).validated()

    def test_drop_kind(self):
        plan = FaultPlan.of(
            FaultSpec("parallel.task", WORKER_CRASH),
            FaultSpec("parallel.task", TASK_ERROR, occurrence=2),
        )
        survivor = plan.drop_kind(WORKER_CRASH)
        assert [spec.kind for spec in survivor.entries] == [TASK_ERROR]

    def test_for_site(self):
        plan = FaultPlan.of(
            FaultSpec("parallel.task", TASK_ERROR),
            FaultSpec("checkpoint.write", TORN_WRITE),
        )
        assert [s.site for s in plan.for_site("checkpoint.write")] == [
            "checkpoint.write"
        ]
        assert plan.for_site("temporal.io.read") == ()

    def test_plan_survives_pickling(self):
        plan = FaultPlan.seeded(13, faults=3)
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestInjectedFault:
    def test_is_transient(self):
        assert issubclass(InjectedFault, TransientError)

    def test_pickle_round_trip_preserves_site(self):
        exc = InjectedFault("parallel.task", occurrence=3)
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.site == "parallel.task"
        assert clone.occurrence == 3
        assert "parallel.task" in str(clone)


class TestRuntime:
    def test_fire_without_plan_is_noop(self):
        assert faults.fire("parallel.task") is None
        assert faults.fired_log() == ()

    def test_injected_installs_and_restores(self):
        plan = FaultPlan.of(FaultSpec("parallel.task", TASK_ERROR))
        with faults.injected(plan):
            assert faults.active_plan() == plan
        assert faults.active_plan() is None

    def test_injected_restores_previous_plan(self):
        outer = FaultPlan.of(FaultSpec("parallel.task", TASK_ERROR, occurrence=5))
        inner = FaultPlan.of(FaultSpec("checkpoint.write", TORN_WRITE))
        with faults.injected(outer):
            with faults.injected(inner):
                assert faults.active_plan() == inner
            assert faults.active_plan() == outer

    def test_task_error_fires_at_exact_occurrence_once(self):
        plan = FaultPlan.of(FaultSpec("parallel.task", TASK_ERROR, occurrence=2))
        with faults.injected(plan):
            assert faults.fire("parallel.task") is None
            with pytest.raises(InjectedFault) as excinfo:
                faults.fire("parallel.task")
            assert excinfo.value.occurrence == 2
            # Consumed: the third visit (and every later one) is clean.
            assert faults.fire("parallel.task") is None
            assert faults.fired_log() == (("parallel.task", TASK_ERROR, 2),)

    def test_occurrence_counters_are_per_site(self):
        plan = FaultPlan.of(FaultSpec("parallel.task", TASK_ERROR, occurrence=1))
        with faults.injected(plan):
            assert faults.fire("experiments.cell") is None
            with pytest.raises(InjectedFault):
                faults.fire("parallel.task")

    def test_torn_write_and_corrupt_read_return_kind(self):
        plan = FaultPlan.of(
            FaultSpec("checkpoint.write", TORN_WRITE),
            FaultSpec("temporal.io.read", CORRUPT_READ, occurrence=2),
        )
        with faults.injected(plan):
            assert faults.fire("checkpoint.write") == TORN_WRITE
            assert faults.fire("temporal.io.read") is None
            assert faults.fire("temporal.io.read") == CORRUPT_READ
        assert faults.active_plan() is None

    def test_crash_and_stall_refuse_to_fire_in_driver(self):
        plan = FaultPlan.of(
            FaultSpec("parallel.task", WORKER_CRASH, occurrence=1),
            FaultSpec("experiments.cell", TASK_STALL, occurrence=1),
        )
        assert not faults.in_worker()
        with faults.injected(plan):
            # Neither kind detonates outside a marked worker, and the
            # entries stay unconsumed (a real worker may pick them up).
            assert faults.fire("parallel.task") is None
            assert faults.fire("experiments.cell") is None
            assert faults.fired_log() == ()

    def test_install_resets_counters(self):
        plan = FaultPlan.of(FaultSpec("parallel.task", TASK_ERROR, occurrence=1))
        with faults.injected(plan):
            with pytest.raises(InjectedFault):
                faults.fire("parallel.task")
            faults.install(plan)  # re-arm
            with pytest.raises(InjectedFault):
                faults.fire("parallel.task")
        assert faults.active_plan() is None

    def test_multiple_entries_on_one_site(self):
        plan = FaultPlan.of(
            FaultSpec("parallel.task", TASK_ERROR, occurrence=1),
            FaultSpec("parallel.task", TASK_ERROR, occurrence=3),
        )
        with faults.injected(plan):
            with pytest.raises(InjectedFault):
                faults.fire("parallel.task")
            assert faults.fire("parallel.task") is None
            with pytest.raises(InjectedFault):
                faults.fire("parallel.task")
            assert len(faults.fired_log()) == 2
