"""Frame-bound, large-session and shutdown tests for the serving stack.

What the one :class:`PolicyServer` and the router in front of it guarantee
at the edges of the wire:

* **large sessions** — a 50-job (~80 KB) and a 200-job (~330 KB) ``decide``
  is answered through a single server and through a 2-shard fleet, with the
  action in-process ``agent.act(greedy=True)`` chooses;
* **one frame bound** — a frame over ``MAX_FRAME_BYTES`` sent to the server,
  to the router's data port or to its control port gets a ``frame_too_large``
  error frame and then EOF, leaves a flight event and a log line behind,
  leaks no session, and the listener keeps answering everyone else;
* **one shard-request helper** — the control plane's ``stats``, ``health``
  and observability fan-outs share ``_shard_request`` but keep their distinct
  policies towards a dead shard;
* **shutdown** — no request stays parked when the dispatcher ends.
"""

import asyncio
import logging
import socket
import threading
import time

import numpy as np
import pytest

from repro.core import DecimaAgent, DecimaConfig
from repro.service import (
    AdaptiveBatchWindow,
    ControlClient,
    DecisionRequest,
    PolicyClient,
    PolicyServer,
    ProtocolError,
    SessionState,
    ShardRouter,
)
from repro.service.protocol import MAX_FRAME_BYTES, decode_frame
from repro.simulator import SchedulingEnvironment, SimulatorConfig
from repro.workloads import batched_arrivals, sample_tpch_jobs

NUM_EXECUTORS = 50


def big_agent():
    return DecimaAgent(total_executors=NUM_EXECUTORS, config=DecimaConfig(seed=0))


def tpch_observation(num_jobs: int):
    jobs = batched_arrivals(sample_tpch_jobs(num_jobs, np.random.default_rng(num_jobs)))
    env = SchedulingEnvironment(SimulatorConfig(num_executors=NUM_EXECUTORS, seed=0))
    return env.reset(jobs, seed=0)


def wait_until(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def send_oversized_frame(address, opening_frames=()):
    """Send ``opening_frames`` then one over-bound frame; return every reply line."""
    with socket.create_connection(address, timeout=30.0) as raw:
        stream = raw.makefile("rwb")
        replies = []
        for frame in opening_frames:
            stream.write(frame)
            stream.flush()
            replies.append(decode_frame(stream.readline()))
        stream.write(b"x" * (MAX_FRAME_BYTES + 1) + b"\n")
        stream.flush()
        replies.append(decode_frame(stream.readline()))
        assert stream.readline() == b""  # then EOF: the connection is closed
    return replies


HELLO = b'{"type":"hello","protocol":3,"num_executors":50,"session_id":"oversized"}\n'


# --------------------------------------------------------------- large sessions
@pytest.fixture(scope="module", params=[1, 2], ids=["single_server", "two_shard_fleet"])
def big_server(request):
    from repro.service import ServingConfig, build_server

    with build_server(ServingConfig(num_shards=request.param), big_agent()) as server:
        yield server


class TestLargeSessions:
    @pytest.mark.parametrize("num_jobs", [50, 200])
    def test_large_decide_matches_in_process_agent(self, big_server, num_jobs):
        observation = tpch_observation(num_jobs)
        expected, _ = big_agent().act(observation, greedy=True)
        with PolicyClient(*big_server.address) as client:
            client.hello(num_executors=NUM_EXECUTORS)
            reply = client.decide(observation)
        assert reply["source"] == "policy"
        assert (reply["job_id"], reply["node_id"], reply["parallelism_limit"]) == (
            expected.node.job.job_id,
            expected.node.node_id,
            expected.parallelism_limit,
        )


# ------------------------------------------------------------------ frame bound
class TestFrameBound:
    def test_server_rejects_oversized_frame_without_leaking(self, server_factory, caplog):
        server = server_factory(big_agent())
        with PolicyClient(*server.address) as bystander:
            bystander.hello(num_executors=NUM_EXECUTORS)
            assert server.num_live_sessions() == 1
            with caplog.at_level(logging.INFO, logger="repro"):
                welcome, error = send_oversized_frame(server.address, [HELLO])
            assert welcome["type"] == "welcome"
            assert error["type"] == "error" and error["code"] == "frame_too_large"
            # The offender's session is gone, the bystander's is not.
            assert wait_until(lambda: server.num_live_sessions() == 1)
            assert "oversized" not in server.sessions
            (event,) = [e for e in server.flight.events() if e["kind"] == "frame_too_large"]
            assert event["session_id"] == "oversized"
            (record,) = [r for r in caplog.records if r.msg == "connection_closed"]
            assert record.fields["reason"] == "frame_too_large"
            # The dispatch loop is alive: old and new clients are answered.
            assert bystander.decide(tpch_observation(2))["type"] == "action"
            with PolicyClient(*server.address) as newcomer:
                newcomer.hello(num_executors=NUM_EXECUTORS)
                assert newcomer.decide(tpch_observation(2))["type"] == "action"

    @pytest.mark.parametrize("listener", ["data", "control"])
    def test_router_rejects_oversized_frame_without_leaking(
        self, server_factory, caplog, listener
    ):
        fleet = server_factory(big_agent(), num_shards=2)

        def active_sessions(control):
            (sample,) = control.metrics()["router"]["router_active_sessions"]["samples"]
            shard_sessions = sum(s["num_sessions"] for s in control.stats()["shards"])
            return sample["value"], shard_sessions

        with ControlClient(*fleet.control_address) as control, \
             PolicyClient(*fleet.address) as bystander:
            bystander.hello(num_executors=NUM_EXECUTORS)
            assert active_sessions(control) == (1.0, 1)
            with caplog.at_level(logging.INFO, logger="repro"):
                if listener == "data":
                    welcome, error = send_oversized_frame(fleet.address, [HELLO])
                    assert welcome["type"] == "welcome"
                else:
                    (error,) = send_oversized_frame(fleet.control_address)
            assert error["type"] == "error" and error["code"] == "frame_too_large"
            assert wait_until(lambda: active_sessions(control) == (1.0, 1))
            (event,) = [
                e for e in fleet.router.flight.events() if e["kind"] == "frame_too_large"
            ]
            assert event["listener"] == listener
            (record,) = [r for r in caplog.records if r.msg == "connection_closed"]
            assert record.fields == {
                "reason": "frame_too_large",
                "listener": listener,
                "max_frame_bytes": MAX_FRAME_BYTES,
            }
            # Both listeners keep answering: the same control connection, the
            # bystander's session and a brand-new one.
            assert control.health()["num_healthy"] == 2
            assert bystander.decide(tpch_observation(2))["type"] == "action"
            with PolicyClient(*fleet.address) as newcomer:
                newcomer.hello(num_executors=NUM_EXECUTORS)
                assert newcomer.decide(tpch_observation(2))["type"] == "action"

    def test_a_frame_of_exactly_the_bound_is_read(self, server_factory):
        server = server_factory(big_agent())
        padding = MAX_FRAME_BYTES - len(b'{"type":"stats","pad":""}')
        frame = b'{"type":"stats","pad":"' + b" " * padding + b'"}'
        assert len(frame) == MAX_FRAME_BYTES
        with socket.create_connection(server.address, timeout=30.0) as raw:
            stream = raw.makefile("rwb")
            stream.write(frame + b"\n")
            stream.flush()
            assert decode_frame(stream.readline())["type"] == "stats"


# ------------------------------------------------- the router's shard requests
class TestShardRequestCallers:
    """``stats``, ``health`` and the fan-outs share one helper, not one policy."""

    @pytest.mark.parametrize("command", ["stats", "health", "metrics", "trace", "flight"])
    def test_dead_shard_policy_per_caller(self, server_factory, free_port, command):
        live = server_factory(big_agent())
        router = ShardRouter(
            [live.address, ("127.0.0.1", free_port)], probe_timeout=1.0
        )
        with router, ControlClient(*router.control_address) as control:
            dead = router.shards[1]
            if command == "stats":
                alive_entry, dead_entry = control.stats()["shards"]
                assert alive_entry["ok"] and alive_entry["num_sessions"] == 0
                assert alive_entry["broker"]["num_decisions"] == 0
                assert dead_entry["ok"] is False and dead_entry["healthy"] is False
                # A failed stats fetch demotes the shard through _mark_failed.
                assert (dead.healthy, dead.failures) == (False, 1)
                assert router.counters.shard_failures == 1
            elif command == "health":
                health = control.health()
                assert [s["probe_ok"] for s in health["shards"]] == [True, False]
                assert health["num_healthy"] == 1
                # Demoted by the health payload alone: no failure is counted.
                assert (dead.healthy, dead.failures) == (False, 0)
                assert router.counters.shard_failures == 0
            else:
                if command == "metrics":
                    reply = control.metrics()
                    assert [s["index"] for s in reply["shards"]] == [0]
                elif command == "trace":
                    assert control.trace("no-such-trace")["spans"] == []
                else:
                    recorders = [s["recorder"] for s in control.flight()["shards"]]
                    assert recorders[0] is not None and recorders[1] is None
                # An observability query never changes placement state.
                assert (dead.healthy, dead.failures) == (True, 0)
                assert router.counters.shard_failures == 0


# --------------------------------------------------------------------- shutdown
class TestShutdown:
    def test_nothing_stays_parked_when_the_dispatcher_ends(self):
        """The batch being coalesced and a deferred same-session request
        fail with ``server shutting down``."""
        server = PolicyServer(big_agent())
        server.adaptive_window = AdaptiveBatchWindow(min_ms=60_000.0, max_ms=60_000.0)
        first, second, third = (
            SessionState(name, NUM_EXECUTORS) for name in ("first", "second", "third")
        )
        # Three live sessions: the dispatcher holds the batch open for them.
        server.sessions = {s.session_id: s for s in (first, second, third)}

        async def scenario():
            loop = asyncio.get_running_loop()
            server._queue = asyncio.Queue()
            parked = [
                (DecisionRequest(session, None), loop.create_future())
                for session in (first, first, second)
            ]
            for item in parked:
                server._queue.put_nowait(item)
            dispatcher = loop.create_task(server._dispatch_loop())
            await asyncio.sleep(0.05)
            # Held open for the third session: two in the batch, one deferred.
            assert server._requeue == [parked[1]]
            assert server._queue.empty()
            dispatcher.cancel()
            await asyncio.gather(dispatcher, return_exceptions=True)
            return [future for _, future in parked]

        for future in asyncio.run(scenario()):
            with pytest.raises(ProtocolError, match="server shutting down"):
                future.result()
        assert server._requeue == []

    def test_stop_answers_the_batch_in_flight(self, server_factory):
        """A graceful stop does not wait out the window, and the request
        being coalesced still gets its reply."""
        server = server_factory(big_agent())
        server.adaptive_window = AdaptiveBatchWindow(min_ms=60_000.0, max_ms=60_000.0)
        observation = tpch_observation(2)
        replies = []
        with PolicyClient(*server.address) as waiting, \
             PolicyClient(*server.address) as idle:
            waiting.hello(session_id="waiting", num_executors=NUM_EXECUTORS)
            idle.hello(num_executors=NUM_EXECUTORS)  # keeps the window open
            decider = threading.Thread(
                target=lambda: replies.append(waiting.decide(observation))
            )
            decider.start()
            # Reconciled means parked: the handler queues the request in the
            # same loop step, so it is ahead of the stop signal.
            assert wait_until(lambda: server.sessions["waiting"].num_jobs > 0)
            assert server.broker.num_batches == 0  # held open, not dispatched
            started = time.monotonic()
            server.stop()
            decider.join(timeout=10.0)
            assert not decider.is_alive()
            assert time.monotonic() - started < 10.0
        assert [reply["type"] for reply in replies] == ["action"]

    def test_router_stop_ends_live_connections(self, server_factory):
        """``stop()`` closes the client, control and shard streams it holds
        (from Python 3.12 ``Server.wait_closed`` waits for all of them)."""
        shard = server_factory(big_agent())
        router = ShardRouter([shard.address])
        router.start()
        try:
            with PolicyClient(*router.address) as client, \
                 ControlClient(*router.control_address) as control:
                client.hello(num_executors=NUM_EXECUTORS)
                assert client.decide(tpch_observation(2))["type"] == "action"
                assert control.health()["num_healthy"] == 1
                started = time.monotonic()
                router.stop()
                assert time.monotonic() - started < 5.0
                for peer in (client, control):
                    with pytest.raises((ProtocolError, OSError)):
                        peer.request({"type": "stats"})
            # The shard saw its stream end like any client leaving; it was
            # not marked failed on the way out.
            assert wait_until(lambda: shard.num_live_sessions() == 0)
            assert router.counters.shard_failures == 0
        finally:
            router.stop()
