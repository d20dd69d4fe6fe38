"""Failure-injection tests for the reproduction service.

The service PR's retry contract, exercised end-to-end: a flaky runner
raising :class:`TransientServiceError` succeeds on a later attempt with
exponential-backoff delays (recorded through an injected sleeper, never
slept for real); a deterministic task exception fails fast on the first
attempt; transient failures exhaust ``max_attempts`` and record the
last error; cancellation during backoff ends the job instead of
retrying; custom classification rules reroute exceptions.  Plus unit
coverage of the classifier rules and the retry-policy arithmetic.
"""

from __future__ import annotations

import asyncio
import random
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.engine import ExecutionCancelled, ExperimentSpec, Registry
from repro.service import (
    FailureClass,
    FailureClassifier,
    JobFailed,
    JobManager,
    JobState,
    RetryPolicy,
    TransientServiceError,
)

FAST_ENGINE = {"use_cache": False, "jobs": 1}


def make_registry(name, runner):
    registry = Registry("experiment")
    registry.register(name, ExperimentSpec(name, f"{name} (failure test)", runner))
    return registry


def _runner_raising(exc_factory, record):
    def runner(engine, seed=None, batch_size=None, full=False, stats=None,
               topology=None, tuning=None, benchmarks=None, routing=None):
        record["attempts"] += 1
        raise exc_factory()

    return runner


def _flaky_runner(record, failures, exc_factory):
    """Fail the first ``failures`` invocations, then succeed."""

    def runner(engine, seed=None, batch_size=None, full=False, stats=None,
               topology=None, tuning=None, benchmarks=None, routing=None):
        record["attempts"] += 1
        if record["attempts"] <= failures:
            raise exc_factory()
        return {"ok": record["attempts"]}, f"ok after {record['attempts']}"

    return runner


def _sleep_recorder(delays):
    async def sleep(delay):
        delays.append(delay)

    return sleep


class TestClassifierRules:
    @pytest.mark.parametrize(
        ("exc", "expected_class", "expected_rule"),
        (
            (TransientServiceError("warming up"), FailureClass.TRANSIENT, "transient-marker"),
            (BrokenProcessPool("pool died"), FailureClass.TRANSIENT, "broken-pool"),
            (ConnectionResetError("peer gone"), FailureClass.TRANSIENT, "connection"),
            (TimeoutError("too slow"), FailureClass.TRANSIENT, "timeout"),
            (ExecutionCancelled("stop"), FailureClass.CANCELLED, "cancelled"),
            (asyncio.CancelledError(), FailureClass.CANCELLED, "cancelled"),
            (ValueError("bad input"), FailureClass.DETERMINISTIC, "deterministic-default"),
            (ZeroDivisionError(), FailureClass.DETERMINISTIC, "deterministic-default"),
        ),
    )
    def test_default_rules(self, exc, expected_class, expected_rule):
        rule = FailureClassifier().classify(exc)
        assert rule.classification is expected_class
        assert rule.name == expected_rule

    def test_added_rules_outrank_defaults(self):
        classifier = FailureClassifier()
        classifier.add_rule(
            "flaky-storage", FailureClass.TRANSIENT, exception_types=(OSError,)
        )
        assert classifier.classify(OSError("disk weather")).name == "flaky-storage"
        # ConnectionError is an OSError subclass: the user rule now wins.
        assert classifier.classify(ConnectionError()).name == "flaky-storage"

    def test_predicate_rules(self):
        classifier = FailureClassifier()
        classifier.add_rule(
            "http-5xx",
            FailureClass.TRANSIENT,
            predicate=lambda exc: "503" in str(exc),
        )
        assert classifier.classify(RuntimeError("got 503")).name == "http-5xx"
        assert (
            classifier.classify(RuntimeError("got 404")).classification
            is FailureClass.DETERMINISTIC
        )

    def test_rule_needs_exactly_one_matcher(self):
        classifier = FailureClassifier()
        with pytest.raises(ValueError, match="exactly one"):
            classifier.add_rule("bad", FailureClass.TRANSIENT)
        with pytest.raises(ValueError, match="exactly one"):
            classifier.add_rule(
                "bad",
                FailureClass.TRANSIENT,
                exception_types=(OSError,),
                predicate=lambda exc: True,
            )

    def test_rules_listing_ends_with_fallback(self):
        rules = FailureClassifier().rules()
        assert rules[-1].name == "deterministic-default"
        assert rules[-1].matches(Exception("anything"))


class TestRetryPolicy:
    def test_delays_grow_exponentially_and_cap(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=1.0, multiplier=2.0, max_delay=3.0, jitter=0.0
        )
        rng = random.Random(0)
        assert [policy.delay(n, rng) for n in (1, 2, 3, 4)] == [1.0, 2.0, 3.0, 3.0]

    def test_jitter_is_bounded_and_seeded(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, jitter=0.5)
        delays = [policy.delay(1, random.Random(7)) for _ in range(3)]
        assert delays[0] == delays[1] == delays[2]  # same seed, same draw
        rng = random.Random(123)
        for _ in range(50):
            assert 1.0 <= policy.delay(1, rng) <= 1.5

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="non-negative"):
            RetryPolicy(base_delay=-1.0)


class TestRetryEndToEnd:
    def test_flaky_transient_succeeds_after_retry(self):
        record = {"attempts": 0}
        delays: list[float] = []
        registry = make_registry(
            "flaky",
            _flaky_runner(record, 2, lambda: TransientServiceError("warming up")),
        )
        retry = RetryPolicy(max_attempts=3, base_delay=0.2, multiplier=2.0, jitter=0.5)

        async def scenario():
            async with JobManager(
                registry,
                workers=1,
                engine_options=FAST_ENGINE,
                retry=retry,
                sleep=_sleep_recorder(delays),
                retry_seed=42,
            ) as manager:
                handle = await manager.submit("flaky")
                result, text = await handle.result(timeout=30)
                return result, text, manager.status(handle.id), manager.stats()

        result, text, status, stats = asyncio.run(scenario())
        assert record["attempts"] == 3
        assert result == {"ok": 3} and text == "ok after 3"
        assert status["state"] == "succeeded" and status["attempts"] == 3
        assert stats["retries"] == 2 and stats["succeeded"] == 1
        # Delays follow the seeded policy exactly: backoff doubles, jitter
        # comes from the injected seed — no wall-clock sleeping happened.
        rng = random.Random(42)
        assert delays == [retry.delay(1, rng), retry.delay(2, rng)]
        assert delays[1] > delays[0]

    def test_deterministic_exception_fails_fast(self):
        record = {"attempts": 0}
        delays: list[float] = []
        registry = make_registry(
            "broken", _runner_raising(lambda: ValueError("bad model input"), record)
        )

        async def scenario():
            async with JobManager(
                registry,
                workers=1,
                engine_options=FAST_ENGINE,
                retry=RetryPolicy(max_attempts=5),
                sleep=_sleep_recorder(delays),
            ) as manager:
                handle = await manager.submit("broken")
                with pytest.raises(JobFailed, match="bad model input"):
                    await handle.result(timeout=30)
                return manager.status(handle.id), manager.stats()

        status, stats = asyncio.run(scenario())
        assert record["attempts"] == 1, "deterministic failure was retried"
        assert delays == []
        assert status["state"] == "failed"
        assert status["error"]["classification"] == "deterministic"
        assert status["error"]["rule"] == "deterministic-default"
        assert status["error"]["type"] == "ValueError"
        assert stats["retries"] == 0 and stats["failed"] == 1

    def test_transient_failures_exhaust_attempts(self):
        record = {"attempts": 0}
        delays: list[float] = []
        registry = make_registry(
            "down", _runner_raising(lambda: ConnectionError("backend gone"), record)
        )

        async def scenario():
            async with JobManager(
                registry,
                workers=1,
                engine_options=FAST_ENGINE,
                retry=RetryPolicy(max_attempts=3),
                sleep=_sleep_recorder(delays),
            ) as manager:
                handle = await manager.submit("down")
                with pytest.raises(JobFailed, match="backend gone"):
                    await handle.result(timeout=30)
                return manager.status(handle.id), manager.stats()

        status, stats = asyncio.run(scenario())
        assert record["attempts"] == 3
        assert len(delays) == 2  # no sleep after the final attempt
        assert status["error"]["classification"] == "transient"
        assert status["error"]["rule"] == "connection"
        assert status["error"]["attempts"] == 3
        assert stats["retries"] == 2 and stats["failed"] == 1

    def test_retrying_state_is_observable_in_events(self):
        record = {"attempts": 0}
        registry = make_registry(
            "flaky",
            _flaky_runner(record, 1, lambda: TransientServiceError("blip")),
        )

        async def scenario():
            async with JobManager(
                registry,
                workers=1,
                engine_options=FAST_ENGINE,
                sleep=_sleep_recorder([]),
            ) as manager:
                handle = await manager.submit("flaky")
                await handle.result(timeout=30)
                return [event async for event in manager.events(handle.id)]

        events = asyncio.run(scenario())
        states = [
            event.payload for event in events if event.kind == "state"
        ]
        sequence = [payload["state"] for payload in states]
        assert sequence == ["queued", "running", "retrying", "running", "succeeded"]
        retrying = next(p for p in states if p["state"] == "retrying")
        assert retrying["rule"] == "transient-marker"
        assert "TransientServiceError" in retrying["failure"]
        assert retrying["delay"] > 0

    def test_custom_rule_makes_oserror_retryable(self):
        record = {"attempts": 0}
        classifier = FailureClassifier()
        classifier.add_rule(
            "flaky-storage", FailureClass.TRANSIENT, exception_types=(OSError,)
        )
        registry = make_registry(
            "io", _flaky_runner(record, 1, lambda: OSError("storage weather"))
        )

        async def scenario():
            async with JobManager(
                registry,
                workers=1,
                engine_options=FAST_ENGINE,
                classifier=classifier,
                sleep=_sleep_recorder([]),
            ) as manager:
                handle = await manager.submit("io")
                result, _ = await handle.result(timeout=30)
                return result, manager.status(handle.id)

        result, status = asyncio.run(scenario())
        assert record["attempts"] == 2 and result == {"ok": 2}
        assert status["state"] == "succeeded"

    def test_cancel_during_backoff_does_not_retry(self):
        record = {"attempts": 0}
        registry = make_registry(
            "down", _runner_raising(lambda: TransientServiceError("blip"), record)
        )
        holder: dict = {}

        async def blocking_sleep(delay):
            holder["slept"] = delay
            await holder["gate"].wait()

        async def scenario():
            holder["gate"] = asyncio.Event()
            async with JobManager(
                registry,
                workers=1,
                engine_options=FAST_ENGINE,
                retry=RetryPolicy(max_attempts=5),
                sleep=blocking_sleep,
            ) as manager:
                handle = await manager.submit("down")
                deadline = asyncio.get_running_loop().time() + 15
                while "slept" not in holder:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.01)
                assert handle.state is JobState.RETRYING
                assert await handle.cancel()
                holder["gate"].set()
                job = await handle.wait(timeout=30)
                return job.state, manager.status(handle.id)

        state, status = asyncio.run(scenario())
        assert record["attempts"] == 1, "job retried after cancellation"
        assert state is JobState.CANCELLED
        assert status["state"] == "cancelled"

    def test_execution_cancelled_from_engine_is_not_retried(self):
        record = {"attempts": 0}
        registry = make_registry(
            "stops", _runner_raising(lambda: ExecutionCancelled("mid-batch"), record)
        )

        async def scenario():
            async with JobManager(
                registry,
                workers=1,
                engine_options=FAST_ENGINE,
                sleep=_sleep_recorder([]),
            ) as manager:
                handle = await manager.submit("stops")
                job = await handle.wait(timeout=30)
                return job.state, manager.status(handle.id)

        state, status = asyncio.run(scenario())
        assert record["attempts"] == 1
        assert state is JobState.CANCELLED
        assert status["error"]["rule"] == "cancelled"
