"""One pool contract, four worker kinds.

Every child process in the tree — rollout workers, sweep workers, the online
trainer, fleet shards — is a :class:`~repro.core.parallel.PipeWorkerPool`
around a different worker function, so what a caller may rely on is checked
once, over all four: a handler's exception comes back as ``RuntimeError``
with the child's traceback and the worker keeps serving; an unknown command
is an error, not a hang; a dead worker is named, and the others' replies are
read all the same; a closed pool rejects work; ``close()`` is idempotent and
leaves no live child.
"""

import os
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from _helpers import make_training_setup
from repro.core import RolloutWorkerPool, agent_spec
from repro.core.parallel import PipeWorkerPool
from repro.experiments import SweepCell, SweepWorkerPool
from repro.learning import OnlineTrainerPool
from repro.service import ServingConfig
from repro.service.fleet import SHARD_COMMANDS, _shard_worker

TINY = dict(num_jobs=2, num_executors=6)
BAD_STATE = {"param_0": np.zeros(1)}


def rollout_kind():
    config, agent, _ = make_training_setup(seed=0, num_executors=5)
    return SimpleNamespace(
        pool=RolloutWorkerPool(config, agent_spec(agent), num_workers=1),
        name="rollout worker",
        bad=("collect", ([], BAD_STATE, None)),
        good=("collect", ([], agent.state_dict(), None)),
    )


def sweep_kind():
    return SimpleNamespace(
        pool=SweepWorkerPool(num_workers=1, **TINY),
        name="sweep worker",
        bad=("run", ([SweepCell("no_such_scenario", "fifo", 0)],)),
        good=("run", ([],)),
    )


def trainer_kind():
    _, agent, _ = make_training_setup(seed=0, num_executors=5)
    return SimpleNamespace(
        pool=OnlineTrainerPool(agent_spec(agent), 1e-3),
        name="online trainer",
        bad=("update", (BAD_STATE, [])),
        good=("update", (agent.state_dict(), [])),
    )


def shard_kind():
    _, agent, _ = make_training_setup(seed=0, num_executors=5)
    arguments = (agent_spec(agent), agent.state_dict(), ServingConfig(), 0)
    return SimpleNamespace(
        pool=PipeWorkerPool(
            1, _shard_worker, lambda index: arguments, description="policy shard"
        ),
        name="policy shard",
        bad=("install_policy", (agent.state_dict(), 0)),  # versions start at 1
        good=("stats_payload", ()),
    )


@pytest.fixture(params=[rollout_kind, sweep_kind, trainer_kind, shard_kind])
def kind(request):
    made = request.param()
    yield made
    made.pool.close()


class TestPoolContract:
    def test_errors_are_answers_and_death_and_close_are_clean(self, kind):
        pool = kind.pool
        (bad_command, bad_payload), (command, payload) = kind.bad, kind.good

        with pytest.raises(RuntimeError, match=f"{kind.name} 0 failed") as failure:
            pool.run(bad_command, [bad_payload])
        assert "Traceback (most recent call last)" in str(failure.value)
        pool.run(command, [payload])  # the worker is still serving

        with pytest.raises(RuntimeError, match="unknown worker command 'no_such'"):
            pool.run("no_such", [()], timeout=30.0)
        pool.run(command, [payload])

        assert pool.is_alive
        pool.processes[0].kill()
        pool.processes[0].join(timeout=10.0)
        assert not pool.is_alive
        with pytest.raises(RuntimeError, match=f"{kind.name} 0 (died|is not running)"):
            pool.run(command, [payload], timeout=30.0)
        assert pool.ask(command, [payload], timeout=30.0)[0][0] == "dead"

        pool.close()
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.run(command, [payload])
        assert not any(process.is_alive() for process in pool.processes)

    def test_close_ends_a_healthy_worker(self, kind):
        command, payload = kind.good
        kind.pool.run(command, [payload])
        kind.pool.close()
        for process in kind.pool.processes:
            assert not process.is_alive() and process.exitcode == 0


class TestShardCommands:
    def test_every_command_is_a_policy_server_method(self):
        from repro.service import PolicyServer

        assert all(callable(getattr(PolicyServer, name)) for name in SHARD_COMMANDS)

    def test_a_method_off_the_allowlist_is_not_a_command(self):
        made = shard_kind()
        with made.pool as pool:
            with pytest.raises(RuntimeError, match="unknown worker command 'stop'"):
                pool.run("stop", [()])
            assert pool.run("stats_payload", [()])[0]["type"] == "stats"


class TestDeadWorkerDoesNotDesynchronise:
    def test_send_to_a_dead_worker_is_its_outcome_not_the_callers_exception(self):
        """At the parent commit the unguarded send raised ``BrokenPipeError``
        and left worker 0's reply queued for the next ``run`` to misread."""
        cells = [SweepCell("tpch_batched", "fifo", seed) for seed in (0, 1, 2)]
        with SweepWorkerPool(num_workers=2, **TINY) as pool:
            pool.processes[1].kill()
            pool.processes[1].join(timeout=10.0)
            with pytest.raises(RuntimeError, match="sweep worker 1") as failure:
                pool.run_cells(cells[:2])
            assert "sweep worker 0" not in str(failure.value)
            assert not pool._connections[0].poll(0)  # nothing left queued
            # Worker 0 answers the next request, not the previous one.
            ((status, results),) = pool.ask("run", [([cells[2]],)], timeout=60.0)
            assert status == "ok" and [r.seed for r in results] == [2]


def _failing_worker(reason):
    raise KeyError(f"cannot set up: {reason}")


class TestSetUpFailure:
    def test_a_worker_whose_set_up_raises_answers_with_the_cause(self):
        """At the parent commit the child died before its loop, and the caller
        read only "died without replying"; the cause went to its stderr."""
        with PipeWorkerPool(
            2, _failing_worker, lambda index: (f"no table {index}",)
        ) as pool:
            with pytest.raises(RuntimeError) as failure:
                pool.run("anything", [(), ()], timeout=30.0)
            message = str(failure.value)
            assert "died" not in message
            for index in (0, 1):
                assert f"worker {index} failed:\nset-up failed:" in message
                assert f"KeyError: 'cannot set up: no table {index}'" in message
            # It keeps answering, map included, until closed.
            with pytest.raises(RuntimeError, match="cannot set up"):
                pool.map("anything", [1, 2, 3])
            assert pool.is_alive
        assert not any(process.is_alive() for process in pool.processes)


def _napping_worker():
    def nap(seconds):
        time.sleep(seconds)
        return "late"

    return {"nap": nap, "echo": lambda value: value}


class TestTimeout:
    def test_a_reply_that_misses_its_timeout_is_never_taken_for_the_next(self):
        with PipeWorkerPool(1, _napping_worker, lambda index: ()) as pool:
            ((status, why),) = pool.ask("nap", [(0.5,)], timeout=0.05)
            assert (status, why) == ("dead", "did not reply within 0.05 s")
            # "late" arrives while this request waits; its ticket gives it away.
            assert pool.ask("echo", [("on time",)], timeout=30.0) == [("ok", "on time")]
            assert pool.is_alive


def _running(pid):
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class TestOrphans:
    def test_workers_exit_when_their_parent_is_killed(self):
        """A worker holds a copy of its parent's end of the pipe until it
        closes it; left open, the pipe never reads EOF and a SIGKILLed
        parent's workers (a fleet's shards, say) serve on as orphans."""
        script = (
            "import time\n"
            "from repro.experiments import SweepWorkerPool\n"
            "pool = SweepWorkerPool(num_workers=2)\n"
            "print(*[process.pid for process in pool.processes], flush=True)\n"
            "time.sleep(60)\n"
        )
        parent = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        try:
            workers = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(workers) == 2 and all(_running(pid) for pid in workers)
        finally:
            parent.kill()
            parent.wait(timeout=10.0)
            parent.stdout.close()
        deadline = time.monotonic() + 10.0
        while any(_running(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(_running(pid) for pid in workers)
