"""Fault-injection harness, failure classification, retry policy, the
and the recovery loop.

Everything here is in-process and fast; the process-pool chaos
scenarios (worker kill, pool rebuild, deadline rescue) live in
``tests/test_runtime_chaos.py``.
"""

import json
import queue
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.runtime import faults
from repro.runtime.faults import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    fault_injection,
    fault_point,
    install_fault_plan,
)
from repro.runtime.recovery import (
    DeadlineExceeded,
    PoisonedPayload,
    QueueFull,
    RequestError,
    RetryPolicy,
    classified,
    classify,
    run_with_recovery,
)


@pytest.fixture(autouse=True)
def _pristine_fault_state(monkeypatch):
    """Every test starts with no active plan and no env plan, and
    leaves the module globals the way it found them."""
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    previous = install_fault_plan(None)
    yield
    install_fault_plan(previous)


class TestFaultSpecValidation:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="fault action"):
            FaultSpec(site="worker.shard", action="explode")

    def test_unknown_error_name_fails_fast(self):
        with pytest.raises(ValueError, match="unknown fault error"):
            FaultSpec(site="worker.shard", action="raise", error="Nope")
        with pytest.raises(ValueError, match="unknown fault error"):
            FaultSpec(
                site="worker.shard", action="raise", error="TransportUnavailable"
            )

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="delay_s"):
            FaultSpec(site="worker.shard", action="delay", delay_s=-1.0)

    def test_probability_bounds(self):
        with pytest.raises(ValueError, match="p must be"):
            FaultSpec(site="worker.shard", p=1.5)

    def test_after_and_times_bounds(self):
        with pytest.raises(ValueError, match="after"):
            FaultSpec(site="worker.shard", after=-1)
        with pytest.raises(ValueError, match="times"):
            FaultSpec(site="worker.shard", times=0)

    def test_resolvable_error_names(self):
        for name in ("OSError", "BrokenProcessPool",
                     "DeadlineExceeded", "KeyboardInterrupt"):
            FaultSpec(site="worker.shard", action="raise", error=name)


class TestTriggering:
    def test_match_filters_on_context(self):
        plan = FaultPlan([FaultSpec(site="worker.shard", match={"shard": 1})])
        assert plan.visit("worker.shard", {"shard": 0}) is None
        assert plan.visit("scheduler.wave", {"shard": 1}) is None
        assert plan.visit("worker.shard", {"shard": 1}) is not None

    def test_after_skips_and_times_caps(self):
        plan = FaultPlan(
            [FaultSpec(site="worker.shard", after=2, times=2)]
        )
        fired = [
            plan.visit("worker.shard", {}) is not None for _ in range(6)
        ]
        assert fired == [False, False, True, True, False, False]
        assert plan.counters() == [(6, 2)]

    def test_times_none_fires_every_matching_hit(self):
        plan = FaultPlan([FaultSpec(site="daemon.consumer", times=None)])
        assert all(
            plan.visit("daemon.consumer", {}) is not None for _ in range(5)
        )

    def test_first_matching_spec_wins(self):
        plan = FaultPlan(
            [
                FaultSpec(site="worker.shard", action="delay", delay_s=0.0),
                FaultSpec(site="worker.shard", action="raise"),
            ]
        )
        spec = plan.visit("worker.shard", {})
        assert spec is plan.specs[0]

    def test_seeded_probability_is_deterministic(self):
        spec = {"site": "worker.shard", "p": 0.5, "times": None}
        schedules = []
        for _ in range(2):
            plan = FaultPlan.from_dict({"seed": 1234, "specs": [spec]})
            schedules.append(
                [plan.visit("worker.shard", {}) is not None for _ in range(64)]
            )
        assert schedules[0] == schedules[1]
        assert any(schedules[0]) and not all(schedules[0])

    def test_reset_rewinds_counters_and_draws(self):
        plan = FaultPlan([FaultSpec(site="worker.shard", times=1)])
        assert plan.visit("worker.shard", {}) is not None
        assert plan.visit("worker.shard", {}) is None
        plan.reset()
        assert plan.visit("worker.shard", {}) is not None


class TestSerialization:
    def test_json_round_trip_preserves_schedule(self):
        plan = FaultPlan(
            [
                FaultSpec(
                    site="worker.shard",
                    action="raise",
                    error="BrokenProcessPool",
                    after=1,
                    times=3,
                    match={"shard": 2},
                    p=0.25,
                ),
                FaultSpec(site="daemon.request", action="delay", delay_s=0.5),
            ],
            seed=7,
        )
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.as_dict() == plan.as_dict()

    def test_counters_do_not_serialize(self):
        """A plan shipped to a worker starts counting fresh."""
        plan = FaultPlan([FaultSpec(site="worker.shard", times=1)])
        assert plan.visit("worker.shard", {}) is not None
        clone = FaultPlan.from_dict(plan.as_dict())
        assert clone.visit("worker.shard", {}) is not None


class TestInstallation:
    def test_fault_injection_scopes_and_restores(self):
        outer = FaultPlan([FaultSpec(site="worker.shard")])
        inner = FaultPlan([FaultSpec(site="daemon.request")])
        install_fault_plan(outer)
        with fault_injection(inner):
            assert faults.active_fault_plan() is inner
        assert faults.active_fault_plan() is outer

    def test_env_inline_json(self, monkeypatch, tmp_path):
        payload = {"seed": 3, "specs": [{"site": "worker.shard"}]}
        monkeypatch.setenv("REPRO_FAULT_PLAN", json.dumps(payload))
        faults.clear_inherited_plan()  # re-arm the env path
        plan = faults.active_fault_plan()
        assert plan is not None and plan.seed == 3
        assert plan.specs[0].site == "worker.shard"

    def test_env_file_path(self, monkeypatch, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"specs": [{"site": "daemon.consumer"}]}))
        monkeypatch.setenv("REPRO_FAULT_PLAN", str(path))
        faults.clear_inherited_plan()
        plan = faults.active_fault_plan()
        assert plan is not None and plan.specs[0].site == "daemon.consumer"

    def test_explicit_install_overrides_env(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN", json.dumps({"specs": [{"site": "worker.shard"}]})
        )
        install_fault_plan(None)
        assert faults.active_fault_plan() is None

    def test_clear_inherited_plan_keeps_env_live(self, monkeypatch):
        """A worker that dropped a fork-inherited plan must still honor
        environment-configured chaos runs."""
        install_fault_plan(FaultPlan([FaultSpec(site="worker.shard")]))
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN", json.dumps({"specs": [{"site": "daemon.request"}]})
        )
        faults.clear_inherited_plan()
        plan = faults.active_fault_plan()
        assert plan is not None and plan.specs[0].site == "daemon.request"


class TestFaultPoint:
    def test_noop_without_plan(self):
        fault_point("worker.shard", shard=0)  # must not raise

    def test_raise_default_and_named(self):
        # Toy sites on purpose: this exercises the plan machinery, not
        # the instrumented call sites.  lint-static: allow[fault-site]
        with fault_injection(FaultPlan([FaultSpec(site="a")])):
            with pytest.raises(FaultInjected, match="injected fault at a"):
                fault_point("a")  # lint-static: allow[fault-site]
        with fault_injection(
            FaultPlan([FaultSpec(site="b", error="ValueError")])  # lint-static: allow[fault-site]
        ):
            with pytest.raises(ValueError):
                fault_point("b")  # lint-static: allow[fault-site]

    def test_poison_raises_poisoned_payload(self):
        with fault_injection(
            FaultPlan([FaultSpec(site="daemon.request", action="poison")])
        ):
            with pytest.raises(PoisonedPayload):
                fault_point("daemon.request", rows=8)

    def test_delay_sleeps(self):
        plan = FaultPlan(
            [FaultSpec(site="w", action="delay", delay_s=0.05)]  # lint-static: allow[fault-site]
        )
        with fault_injection(plan):
            start = time.monotonic()
            fault_point("w")  # lint-static: allow[fault-site]
            assert time.monotonic() - start >= 0.04


class TestClassification:
    @pytest.mark.parametrize(
        "exc",
        [
            BrokenProcessPool("pool died"),
            DeadlineExceeded("too slow"),
            TimeoutError("timeout"),
            OSError("broken pipe"),
            EOFError(),
            ConnectionError(),
        ],
    )
    def test_infrastructure_is_retryable(self, exc):
        assert classify(exc) == "retryable"

    @pytest.mark.parametrize(
        "exc",
        [
            ValueError("bad shape"),
            PoisonedPayload("poison"),
            TypeError("bad type"),
            KeyboardInterrupt(),
        ],
    )
    def test_payload_and_interrupts_are_fatal(self, exc):
        assert classify(exc) == "fatal"

    def test_request_error_carries_its_kind(self):
        assert classify(RequestError("x", kind="fatal")) == "fatal"
        assert classify(RequestError("x", kind="retryable")) == "retryable"

    def test_classified_wraps_retryable_with_cause(self):
        original = BrokenProcessPool("worker died")
        wrapped = classified(original)
        assert isinstance(wrapped, RequestError)
        assert wrapped.kind == "retryable"
        assert wrapped.__cause__ is original
        assert wrapped.__traceback__ is not None

    def test_classified_passes_fatal_through_untouched(self):
        original = PoisonedPayload("poison")
        assert classified(original) is original

    def test_exception_hierarchy_for_legacy_callers(self):
        assert issubclass(QueueFull, queue.Full)
        assert issubclass(DeadlineExceeded, TimeoutError)
        assert issubclass(PoisonedPayload, ValueError)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="deadline_s"):
            RetryPolicy(deadline_s=0)

    def test_backoff_grows_exponentially_then_caps(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, max_backoff_s=0.3
        )
        assert policy.backoff(0) == pytest.approx(0.1)
        assert policy.backoff(1) == pytest.approx(0.2)
        assert policy.backoff(2) == pytest.approx(0.3)
        assert policy.backoff(10) == pytest.approx(0.3)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF_S", "0.25")
        monkeypatch.setenv("REPRO_REQUEST_DEADLINE_S", "9.5")
        monkeypatch.setenv("REPRO_SERIAL_FALLBACK", "off")
        policy = RetryPolicy.from_env()
        assert policy.max_retries == 5
        assert policy.backoff_base_s == pytest.approx(0.25)
        assert policy.deadline_s == pytest.approx(9.5)
        assert policy.serial_fallback is False

    def test_from_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "many")
        with pytest.raises(ValueError, match="REPRO_MAX_RETRIES"):
            RetryPolicy.from_env()


class TestRunWithRecovery:
    def _policy(self, **kwargs):
        kwargs.setdefault("backoff_base_s", 0.0)
        return RetryPolicy(**kwargs)

    def test_clean_first_attempt(self):
        result, log = run_with_recovery(
            lambda remaining: "ok", policy=self._policy()
        )
        assert result == "ok"
        assert log.attempts == 1 and log.clean and not log.recovered

    def test_retryable_failure_retries_with_repair_label(self):
        calls = []

        def attempt(remaining):
            calls.append(remaining)
            if len(calls) == 1:
                raise BrokenProcessPool("worker died")
            return "recovered"

        repairs = []
        result, log = run_with_recovery(
            attempt,
            policy=self._policy(),
            on_retry=lambda exc: repairs.append(exc) or "rebuild-pool",
        )
        assert result == "recovered"
        assert log.attempts == 2 and log.recovered
        assert log.retries == [
            {
                "error": "BrokenProcessPool",
                "kind": "retryable",
                "action": "rebuild-pool",
            }
        ]
        assert isinstance(repairs[0], BrokenProcessPool)

    def test_fatal_failure_raises_immediately(self):
        calls = []

        def attempt(remaining):
            calls.append(1)
            raise PoisonedPayload("poison")

        with pytest.raises(PoisonedPayload):
            run_with_recovery(attempt, policy=self._policy())
        assert len(calls) == 1

    def test_exhausted_retries_fall_back_to_serial(self):
        def attempt(remaining):
            raise BrokenProcessPool("worker died")

        result, log = run_with_recovery(
            attempt,
            policy=self._policy(max_retries=1),
            fallback=lambda: "serial-result",
        )
        assert result == "serial-result"
        assert log.fallback == "serial" and log.recovered
        assert log.attempts == 2
        assert [r["action"] for r in log.retries] == ["retry", "serial-fallback"]

    def test_exhausted_retries_without_fallback_raise_request_error(self):
        original = BrokenProcessPool("worker died")

        def attempt(remaining):
            raise original

        with pytest.raises(RequestError) as excinfo:
            run_with_recovery(attempt, policy=self._policy(max_retries=0))
        assert excinfo.value.kind == "retryable"
        assert excinfo.value.__cause__ is original

    def test_deadline_budget_is_threaded_to_attempts(self):
        budgets = []
        result, log = run_with_recovery(
            lambda remaining: budgets.append(remaining) or "ok",
            policy=self._policy(),
            deadline_s=30.0,
        )
        assert result == "ok"
        assert budgets[0] is not None and 0 < budgets[0] <= 30.0

    def test_deadline_exhausted_goes_straight_to_fallback(self):
        calls = []

        def attempt(remaining):
            calls.append(1)
            time.sleep(0.05)
            raise DeadlineExceeded("straggler")

        result, log = run_with_recovery(
            attempt,
            policy=self._policy(max_retries=5),
            deadline_s=0.03,
            fallback=lambda: "serial-result",
        )
        assert result == "serial-result"
        assert len(calls) == 1, "no budget left: must not re-attempt"
        assert log.fallback == "serial"

    def test_backoff_sleeps_follow_policy(self):
        pauses = []

        def attempt(remaining):
            raise OSError("flaky")

        result, log = run_with_recovery(
            attempt,
            policy=RetryPolicy(
                max_retries=2, backoff_base_s=0.1, backoff_factor=2.0
            ),
            fallback=lambda: "ok",
            sleep=pauses.append,
        )
        assert result == "ok"
        assert pauses == [pytest.approx(0.1), pytest.approx(0.2)]

