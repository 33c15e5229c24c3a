"""Tests for executable-task management."""

from __future__ import annotations

import pytest

from repro.errors import TaskRejectedError
from repro.overlay.messages import TaskResult
from repro.overlay.peer import PeerConfig, RequestTimeout
from repro.simnet.kernel import Simulator
from repro.simnet.transport import Host

from tests.conftest import connect, run_process


class TestSubmit:
    def test_simple_execution(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        outcome = run_process(
            sim, broker.tasks.submit(client.advertisement(), "t", ops=10.0)
        )
        assert outcome.ok
        assert outcome.busy_seconds > 0
        assert outcome.result_at > outcome.submitted_at
        assert outcome.transfer is None
        assert outcome.transfer_seconds == 0.0

    def test_busy_seconds_scale_with_ops(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        o1 = run_process(
            sim, broker.tasks.submit(client.advertisement(), "t1", ops=10.0)
        )
        o2 = run_process(
            sim, broker.tasks.submit(client.advertisement(), "t2", ops=20.0)
        )
        assert o2.busy_seconds == pytest.approx(2 * o1.busy_seconds, rel=0.01)

    def test_with_input_file(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        from repro.units import mbit

        outcome = run_process(
            sim,
            broker.tasks.submit(
                client.advertisement(),
                "t",
                ops=10.0,
                input_bits=mbit(5),
                input_parts=2,
            ),
        )
        assert outcome.ok
        assert outcome.transfer is not None
        assert outcome.transfer.ok
        assert outcome.transfer_seconds > 0
        assert outcome.total_seconds == pytest.approx(
            outcome.transfer_seconds + outcome.round_trip_seconds
        )

    def test_executor_stats_updated(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        run_process(
            sim, broker.tasks.submit(client.advertisement(), "t", ops=5.0)
        )
        assert client.stats.total.tasks_offered == 1
        assert client.stats.total.tasks_accepted == 1
        assert client.stats.total.tasks_executed == 1
        assert client.stats.total.tasks_ok == 1
        assert client.stats.pending_tasks == 0

    def test_execution_observation_recorded(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        run_process(
            sim, broker.tasks.submit(client.advertisement(), "t", ops=50.0)
        )
        hist = broker.observed_perf(client.peer_id)
        assert hist.estimated_exec_rate(0.0) > 0


class TestAdmissionControl:
    def test_queue_full_rejects(self, sim, streams, two_node_topology):
        from repro.overlay.broker import Broker
        from repro.overlay.client import SimpleClient
        from repro.overlay.ids import IdFactory
        from repro.simnet.transport import Network

        net = Network(sim, two_node_topology, streams=streams)
        ids = IdFactory()
        cfg = PeerConfig(task_queue_limit=1)
        broker = Broker(net, "a.example", ids, name="broker")
        client = SimpleClient(net, "b.example", ids, name="client", config=cfg)
        connect(sim, broker, client)

        outcomes = []
        errors = []

        def submit_two():
            def one(name):
                try:
                    out = yield sim.process(
                        broker.tasks.submit(client.advertisement(), name, ops=50.0)
                    )
                    outcomes.append(out)
                except TaskRejectedError as exc:
                    errors.append(exc)

            # Fire both without waiting: second should hit a full queue.
            p1 = sim.process(one("t1"))
            p2 = sim.process(one("t2"))
            yield sim.all_of([p1, p2])

        run_process(sim, submit_two())
        assert len(outcomes) == 1
        assert len(errors) == 1
        assert client.stats.total.tasks_offered == 2
        assert client.stats.total.tasks_accepted == 1

    def test_failure_injection(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        client.tasks.failure_prob = 1.0
        outcome = run_process(
            sim, broker.tasks.submit(client.advertisement(), "t", ops=5.0)
        )
        assert not outcome.ok
        assert outcome.error == "injected failure"
        assert client.stats.total.tasks_executed == 1
        assert client.stats.total.tasks_ok == 0

    def test_fifo_execution_on_single_core(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        finished = []

        def submit(name):
            out = yield sim.process(
                broker.tasks.submit(client.advertisement(), name, ops=20.0)
            )
            finished.append((name, sim.now))

        def both():
            p1 = sim.process(submit("first"))
            p2 = sim.process(submit("second"))
            yield sim.all_of([p1, p2])

        run_process(sim, both())
        names = [n for n, _ in sorted(finished, key=lambda x: x[1])]
        assert names == ["first", "second"]


class TestComputeInline:
    """An executed task computes inside its ``_execute`` process."""

    def test_a_task_spawns_only_its_execute_process(
        self, overlay_pair, sim, monkeypatch
    ):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        spawned = []
        spawn = Simulator.process

        def recording(sim, generator, name=""):
            spawned.append(generator.gi_code.co_name)
            return spawn(sim, generator, name)

        monkeypatch.setattr(Simulator, "process", recording)
        outcome = run_process(
            sim, broker.tasks.submit(client.advertisement(), "t", ops=10.0)
        )
        assert outcome.ok and outcome.busy_seconds > 0
        assert spawned.count("_execute") == 1
        assert "compute" not in spawned


class TestOverdueResult:
    """The result is a light, fire-and-forget send: a lost one is asked
    for again once overdue, instead of leaving ``submit`` waiting for
    ever (Fig. 7 never ended at seeds 48 and 68 for this)."""

    @staticmethod
    def _drop_results(monkeypatch, count):
        """Drop the next ``count`` ``TaskResult`` sends; return their times."""
        dropped = []
        send = Host.send

        def lossy(host, dst, payload, *args, **kwargs):
            if isinstance(payload, TaskResult) and len(dropped) < count:
                dropped.append(host.network.sim.now)
                return None
            return send(host, dst, payload, *args, **kwargs)

        monkeypatch.setattr(Host, "send", lossy)
        return dropped

    def test_a_lost_result_is_sent_again(self, overlay_pair, sim, monkeypatch):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        dropped = self._drop_results(monkeypatch, 1)
        outcome = run_process(
            sim, broker.tasks.submit(client.advertisement(), "t", ops=10.0)
        )
        assert len(dropped) == 1
        assert outcome.ok and outcome.busy_seconds > 0
        deadline = broker.tasks._result_deadline(net.host("b.example"), 10.0)
        # Asked again at the deadline; answered one round trip later.
        waited = outcome.result_at - outcome.decision_at
        assert deadline < waited < deadline + 1.0

    def test_a_result_that_never_comes_raises(self, overlay_pair, sim, monkeypatch):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        self._drop_results(monkeypatch, 1)
        # Every query goes unanswered too: the executor is down.
        sim.call_in(5.0, net.host("b.example").crash)
        proc = sim.process(
            broker.tasks.submit(client.advertisement(), "t", ops=10.0)
        )
        with pytest.raises(RequestTimeout):
            sim.run(until=proc)
        deadline = broker.tasks._result_deadline(net.host("b.example"), 10.0)
        cfg = broker.config
        queried = cfg.request_retries * cfg.request_timeout_s
        assert deadline + queried < sim.now < deadline + queried + 5.0

    def test_the_deadline_covers_a_full_queue_at_the_lowest_share(
        self, overlay_pair
    ):
        broker, client, net = overlay_pair
        host = net.host("b.example")
        spec = host.spec
        worst = 10.0 / (spec.cpu_speed * spec.load_min_share)
        cfg = broker.config
        assert broker.tasks._result_deadline(host, 10.0) == pytest.approx(
            cfg.task_queue_limit * worst + cfg.request_timeout_s
        )
