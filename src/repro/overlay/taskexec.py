"""Executable-task management.

The overlay's primitives include submitting executable tasks to peers
and receiving results (paper §3).  This module implements both sides:

* **Submitter** — :meth:`TaskExecutionService.submit` optionally ships
  the task's input file first (through the file-transfer protocol),
  then sends ``TaskSubmit``, awaits the accept/reject decision and
  finally the ``TaskResult``.  The result is a light, fire-and-forget
  send, so a result overdue past its worst case is asked for again
  with ``TaskQuery``.
* **Executor** — inbound tasks are accepted while the local queue is
  below ``task_queue_limit``, queued on the host CPU (FIFO), executed
  at the node's CPU speed under its sliver load, and answered with a
  ``TaskResult``, which it keeps to answer a ``TaskQuery``.

The Figure 7 experiment ("just execution" vs "transmission &
execution") is a straight composition of :meth:`submit` with and
without an input file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.errors import TaskRejectedError
from repro.overlay.advertisements import PeerAdvertisement
from repro.overlay.ids import PeerId, TaskId
from repro.overlay.messages import (
    TaskAccept,
    TaskQuery,
    TaskReject,
    TaskResult,
    TaskSubmit,
)
from repro.overlay.filetransfer import FileTransferOutcome
from repro.simnet.transport import Datagram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.overlay.peer import PeerNode

__all__ = ["TaskOutcome", "TaskExecutionService"]


@dataclass
class TaskOutcome:
    """Submitter-side record of one task's life cycle."""

    task_id: TaskId
    executor: PeerId
    ok: bool
    submitted_at: float
    decision_at: float = 0.0
    result_at: float = 0.0
    busy_seconds: float = 0.0
    transfer: Optional[FileTransferOutcome] = None
    error: str = ""

    @property
    def transfer_seconds(self) -> float:
        """Input-file transmission time (0 when no input was shipped)."""
        if self.transfer is None:
            return 0.0
        return self.transfer.total_duration

    @property
    def round_trip_seconds(self) -> float:
        """Submit to result, excluding any input transfer."""
        return self.result_at - self.submitted_at

    @property
    def total_seconds(self) -> float:
        """Everything: input transfer (if any) + submission round."""
        return self.transfer_seconds + self.round_trip_seconds


class TaskExecutionService:
    """Both roles of the task-execution protocol for one peer."""

    def __init__(self, peer: "PeerNode") -> None:
        self.peer = peer
        self.sim = peer.sim
        #: Probability that an accepted task fails at runtime
        #: (failure-injection hooks for tests; default healthy).
        self.failure_prob = 0.0
        self._fail_rng = peer.network.streams.draws(f"taskfail/{peer.host.hostname}")
        #: Executor-side: finished results by task id, resent on a
        #: submitter's ``TaskQuery``.
        self._results: dict = {}

    # ------------------------------------------------------------------
    # Submitter side
    # ------------------------------------------------------------------

    def submit(
        self,
        dst_adv: PeerAdvertisement,
        name: str,
        ops: float,
        input_bits: float = 0.0,
        input_parts: int = 1,
    ):
        """Generator: run a task on ``dst_adv``.

        Wait on it with ``yield from sim.call(...)``; start it with
        ``sim.process`` only to run it alongside the caller.

        Ships the input file first when ``input_bits > 0`` (the
        "transmission & execution" setting of Figure 7), then submits
        and awaits the result.  Returns a :class:`TaskOutcome`; raises
        :class:`TaskRejectedError` if the executor declines, and
        :class:`RequestTimeout` if an overdue result never comes.
        """
        peer = self.peer
        peer.learn(dst_adv)
        dst_host = peer.network.host(dst_adv.hostname)
        task_id = peer.ids.task_id(f"{peer.name}:{name}")

        transfer: Optional[FileTransferOutcome] = None
        if input_bits > 0:
            transfer = yield from self.sim.call(
                peer.transfers.send_file(
                    dst_adv,
                    filename=f"{name}.input",
                    total_bits=input_bits,
                    n_parts=input_parts,
                )
            )

        submitted_at = self.sim.now
        submit = TaskSubmit(
            task_id=task_id,
            submitter=peer.peer_id,
            name=name,
            ops=ops,
            input_bits=input_bits,
        )
        decision = yield from self.sim.call(
            peer.request(dst_host, submit, ("task-decision", task_id))
        )
        outcome = TaskOutcome(
            task_id=task_id,
            executor=dst_adv.peer_id,
            ok=False,
            submitted_at=submitted_at,
            decision_at=self.sim.now,
            transfer=transfer,
        )
        if isinstance(decision, TaskReject):
            outcome.error = decision.reason
            peer.observed_perf(dst_adv.peer_id)  # ensure history exists
            raise TaskRejectedError(
                f"{dst_adv.name} rejected task {name!r}: {decision.reason}"
            )

        key = ("task-result", task_id)
        result_waiter = peer.expect(key)
        deadline = self._result_deadline(dst_host, ops)
        if (yield from self.sim.within(result_waiter, deadline)):
            result: TaskResult = result_waiter.value
        else:
            # Overdue, so lost on its way: ask the executor, which keeps
            # finished results, to send it again.
            peer.cancel_wait(key, result_waiter)
            result = yield from self.sim.call(
                peer.request(dst_host, TaskQuery(task_id=task_id), key, light=True)
            )
        outcome.result_at = self.sim.now
        outcome.ok = result.ok
        outcome.busy_seconds = result.busy_seconds
        outcome.error = result.error
        if result.ok and result.busy_seconds > 0:
            peer.observed_perf(dst_adv.peer_id).record_execution(
                self.sim.now, ops, result.busy_seconds
            )
        return outcome

    def _result_deadline(self, dst_host, ops: float) -> float:
        """When a result still on its way has surely arrived: the task
        run at the executor's lowest CPU share, behind a full queue of
        tasks like it, plus one request timeout for the reply."""
        spec = dst_host.spec
        worst = ops * dst_host.slow_factor / (spec.cpu_speed * spec.load_min_share)
        cfg = self.peer.config
        return cfg.task_queue_limit * worst + cfg.request_timeout_s

    # ------------------------------------------------------------------
    # Executor side
    # ------------------------------------------------------------------

    def handle_submit(self, dgram: Datagram) -> None:
        """Admission control + queue the execution process."""
        submit: TaskSubmit = dgram.payload
        peer = self.peer
        src_host = peer.network.host(dgram.src)
        accept = peer.stats.pending_tasks < peer.config.task_queue_limit
        peer.stats.record_task_offered(accepted=accept)
        if not accept:
            peer.host.send(
                src_host,
                TaskReject(task_id=submit.task_id, reason="queue full"),
                light=True,
            )
            return
        peer.stats.pending_tasks += 1
        peer.host.send(src_host, TaskAccept(task_id=submit.task_id), light=True)
        self.sim.process(self._execute(src_host, submit), name=f"task@{peer.name}")

    def handle_query(self, dgram: Datagram) -> None:
        """Resend a finished task's result; a task not finished yet
        answers when it finishes."""
        query: TaskQuery = dgram.payload
        result = self._results.get(query.task_id)
        if result is not None:
            peer = self.peer
            peer.host.send(peer.network.host(dgram.src), result, light=True)

    def _execute(self, src_host, submit: TaskSubmit):
        peer = self.peer
        try:
            busy = yield from self.sim.call(peer.host.compute(submit.ops))
            failed = self.failure_prob > 0 and (
                self._fail_rng.random() < self.failure_prob
            )
            ok = not failed
            peer.stats.record_task_executed(self.sim.now, ok=ok)
            result = TaskResult(
                task_id=submit.task_id,
                ok=ok,
                busy_seconds=busy,
                error="" if ok else "injected failure",
            )
        except ValueError as exc:  # a negative demand: report, don't crash the peer
            peer.stats.record_task_executed(self.sim.now, ok=False)
            result = TaskResult(
                task_id=submit.task_id, ok=False, busy_seconds=0.0, error=str(exc)
            )
        finally:
            peer.stats.pending_tasks -= 1
        self._results[submit.task_id] = result
        if peer.host.is_up:
            peer.host.send(src_host, result, light=True)
