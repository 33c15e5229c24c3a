"""Tests for the file-transmission protocol."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransferAborted
from repro.overlay.broker import Broker
from repro.overlay.client import SimpleClient
from repro.overlay.filetransfer import PART_IO_FIXED_S, split_even
from repro.overlay.ids import IdFactory
from repro.overlay.peer import PeerConfig
from repro.simnet.kernel import Simulator
from repro.simnet.rng import RandomStreams
from repro.simnet.transport import Network
from repro.units import mbit

from tests.conftest import connect, make_two_node_topology, run_process


class TestSplitEven:
    def test_even_division(self):
        sizes = split_even(mbit(100), 4)
        assert len(sizes) == 4
        assert all(s == mbit(25) for s in sizes)

    def test_single_part(self):
        assert split_even(mbit(50), 1) == [mbit(50)]

    def test_sizes_sum_to_total(self):
        sizes = split_even(mbit(100), 7)
        assert sum(sizes) == pytest.approx(mbit(100))

    def test_validation(self):
        with pytest.raises(ValueError):
            split_even(0.0, 4)
        with pytest.raises(ValueError):
            split_even(mbit(1), 0)

    def test_paper_sixteen_parts(self):
        """16 parts of 100 Mb are 6.25 Mb each (paper §4.2)."""
        sizes = split_even(mbit(100), 16)
        assert len(sizes) == 16
        assert all(s == pytest.approx(mbit(6.25)) for s in sizes)

    @given(
        st.floats(min_value=0.1, max_value=1e4),
        st.integers(min_value=1, max_value=128),
    )
    @settings(max_examples=100, deadline=None)
    def test_even_split_invariants(self, size_mb, n):
        sizes = split_even(mbit(size_mb), n)
        assert len(sizes) == n
        assert sum(sizes) == pytest.approx(mbit(size_mb))
        assert all(s > 0 for s in sizes)


class TestSendFile:
    def test_outcome_complete(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        outcome = run_process(
            sim,
            broker.transfers.send_file(
                client.advertisement(), "f.bin", mbit(10), n_parts=2
            ),
        )
        assert outcome.ok
        assert len(outcome.parts) == 2
        assert outcome.petition_time > 0
        assert outcome.ack_received_at > outcome.petition_sent_at
        assert outcome.finished_at >= outcome.parts[-1].bulk_done_at
        assert outcome.total_duration >= outcome.transmission_time

    def test_petition_time_reflects_receiver_overhead(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        outcome = run_process(
            sim,
            broker.transfers.send_file(client.advertisement(), "f", mbit(1)),
        )
        # b.example overhead 0.05 deterministic + one-way 0.01.
        assert outcome.petition_time == pytest.approx(0.06, abs=1e-6)

    def test_unanswered_petition_aborts_after_all_timeouts(self):
        # Each resend follows its timeout at once, so a dead receiver
        # costs exactly retries * timeout.
        config = PeerConfig(petition_timeout_s=10.0, petition_retries=3)
        sim = Simulator()
        net = Network(
            sim, make_two_node_topology(), streams=RandomStreams(seed=42)
        )
        ids = IdFactory()
        broker = Broker(net, "a.example", ids, name="broker", config=config)
        client = SimpleClient(
            net, "b.example", ids, name="client", config=config
        )
        net.host("b.example").crash()
        p = sim.process(
            broker.transfers.send_file(client.advertisement(), "f", mbit(1))
        )
        with pytest.raises(TransferAborted):
            sim.run(until=p)
        assert sim.now == pytest.approx(30.0)

    def test_parts_sequential(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        outcome = run_process(
            sim,
            broker.transfers.send_file(
                client.advertisement(), "f", mbit(12), n_parts=3
            ),
        )
        for prev, nxt in zip(outcome.parts, outcome.parts[1:]):
            assert nxt.started_at >= prev.confirmed_at

    def test_measure_last_mb_appends_unit(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        outcome = run_process(
            sim,
            broker.transfers.send_file(
                client.advertisement(),
                "f",
                mbit(10),
                n_parts=1,
                measure_last_mb=True,
            ),
        )
        assert outcome.last_mb_time is not None
        assert outcome.parts[-1].is_last_mb
        assert outcome.parts[-1].size_bits == pytest.approx(mbit(1))
        assert sum(p.size_bits for p in outcome.parts) == pytest.approx(mbit(10))

    def test_no_last_mb_when_not_measuring(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        outcome = run_process(
            sim,
            broker.transfers.send_file(client.advertisement(), "f", mbit(10)),
        )
        assert outcome.last_mb_time is None

    def test_sender_stats_updated(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        run_process(
            sim,
            broker.transfers.send_file(client.advertisement(), "f", mbit(4)),
        )
        assert broker.stats.total.files_sent_ok == 1
        assert broker.stats.pending_transfers == 0
        inter = broker.interaction_stats("b.example")
        assert inter.total.files_sent_ok == 1

    def test_receiver_pending_returns_to_zero(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        run_process(
            sim,
            broker.transfers.send_file(
                client.advertisement(), "f", mbit(4), n_parts=2
            ),
        )
        assert client.stats.pending_transfers == 0
        assert client.transfers.incoming_open() == 0

    def test_observation_history_fed(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        run_process(
            sim,
            broker.transfers.send_file(client.advertisement(), "f", mbit(4)),
        )
        hist = broker.observed_perf(client.peer_id)
        assert hist.estimated_transfer_bps(0.0) > 0
        assert hist.estimated_petition_latency() > 0

    def test_lossy_transfer_retries_parts(self):
        sim = Simulator()
        topo = make_two_node_topology(loss_b=0.05)
        net = Network(sim, topo, streams=RandomStreams(3))
        ids = IdFactory()
        broker = Broker(net, "a.example", ids, name="broker")
        client = SimpleClient(net, "b.example", ids, name="client")
        connect(sim, broker, client)
        outcome = run_process(
            sim,
            broker.transfers.send_file(
                client.advertisement(), "f", mbit(60), n_parts=2
            ),
        )
        assert outcome.ok
        assert outcome.total_attempts > 2  # some retransmissions happened


class TestTransferHandle:
    def test_open_send_close(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        handle = run_process(
            sim,
            broker.transfers.open_transfer(
                client.advertisement(), "f", mbit(10)
            ),
        )
        rec1 = run_process(sim, handle.send_part(mbit(5)))
        rec2 = run_process(sim, handle.send_part(mbit(5)))
        assert (rec1.index, rec2.index) == (0, 1)
        outcome = handle.close()
        assert outcome.ok
        assert len(outcome.parts) == 2

    def test_outgoing_open_tracked(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        assert broker.transfers.outgoing_open("b.example") == 0
        handle = run_process(
            sim,
            broker.transfers.open_transfer(client.advertisement(), "f", mbit(2)),
        )
        assert broker.transfers.outgoing_open("b.example") == 1
        handle.close()
        assert broker.transfers.outgoing_open("b.example") == 0

    def test_cancel_records_cancellation(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        handle = run_process(
            sim,
            broker.transfers.open_transfer(client.advertisement(), "f", mbit(2)),
        )
        run_process(sim, handle.send_part(mbit(1)))
        handle.cancel("test")
        sim.run(until=sim.now + 1.0)
        assert broker.stats.total.transfers_cancelled == 1
        assert not handle.outcome.ok
        # Receiver state cleaned up by the cancel message.
        assert client.transfers.incoming_open() == 0

    def test_send_after_close_raises(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        handle = run_process(
            sim,
            broker.transfers.open_transfer(client.advertisement(), "f", mbit(2)),
        )
        handle.close()
        p = sim.process(handle.send_part(mbit(1)))
        with pytest.raises(TransferAborted):
            sim.run(until=p)

    def test_close_idempotent(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        handle = run_process(
            sim,
            broker.transfers.open_transfer(client.advertisement(), "f", mbit(2)),
        )
        out1 = handle.close()
        out2 = handle.close()
        assert out1 is out2
        assert broker.stats.total.files_attempted == 1

    def test_per_part_goodput_recorded(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        handle = run_process(
            sim,
            broker.transfers.open_transfer(client.advertisement(), "f", mbit(4)),
        )
        run_process(sim, handle.send_part(mbit(4)))
        handle.close()
        assert broker.observed_perf(client.peer_id).transfer_obs


class TestReceiverProtocol:
    def test_duplicate_notice_confirmed_without_extra_io(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        handle = run_process(
            sim,
            broker.transfers.open_transfer(
                client.advertisement(), "f", mbit(4), n_parts_hint=1
            ),
        )
        run_process(sim, handle.send_part(mbit(4)))

        from repro.overlay.messages import PartNotice

        # Replay the notice: the receiver must re-confirm immediately.
        before = sim.now
        notice = PartNotice(transfer_id=handle.transfer_id, index=0, size_bits=mbit(4))
        waiter = broker.expect(("part-confirm", handle.transfer_id, 0))
        broker.host.send(net.host("b.example"), notice, light=True)
        sim.run(until=waiter)
        # No I/O delay on replay: well under the PART_IO_FIXED_S.
        assert sim.now - before < PART_IO_FIXED_S

    def test_petition_ack_carries_received_at(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        outcome = run_process(
            sim,
            broker.transfers.send_file(client.advertisement(), "f", mbit(1)),
        )
        assert outcome.petition_received_at > outcome.petition_sent_at
        assert outcome.ack_received_at >= outcome.petition_received_at


class TestSwarmedFileCompletion:
    """``file_parts`` streams: arrival is the cross-stream union of
    distinct confirmed part indices, not any single stream's close."""

    def _open(self, sim, broker, client, filename="swarmed"):
        return run_process(
            sim,
            broker.transfers.open_transfer(
                client.advertisement(),
                filename,
                mbit(4),
                file_parts=(0, 1),
            ),
        )

    def test_union_across_streams_signals_arrival(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        waiter = client.transfers.wait_for_file("swarmed")
        a = self._open(sim, broker, client)
        b = self._open(sim, broker, client)
        run_process(sim, a.send_part(mbit(2), index=1))
        assert not waiter.triggered  # one distinct index of two
        run_process(sim, b.send_part(mbit(2), index=0))
        assert waiter.triggered
        assert waiter.value.filename == "swarmed"

    def test_duplicate_index_not_double_counted(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        waiter = client.transfers.wait_for_file("swarmed")
        a = self._open(sim, broker, client)
        b = self._open(sim, broker, client)
        run_process(sim, a.send_part(mbit(2), index=1))
        # The same index on a second stream grows the union by nothing.
        run_process(sim, b.send_part(mbit(2), index=1))
        assert not waiter.triggered
        run_process(sim, a.send_part(mbit(2), index=0))
        assert waiter.triggered

    def test_single_stream_close_does_not_signal(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        waiter = client.transfers.wait_for_file("swarmed")
        a = self._open(sim, broker, client)
        run_process(sim, a.send_part(mbit(2), index=0))
        a.close()
        sim.run(until=sim.now + 1.0)
        # The stream finished but the file is one index short.
        assert not waiter.triggered
        assert client.transfers.incoming_open() == 0

    def test_progress_ends_with_the_last_open_stream(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        waiter = client.transfers.wait_for_file("swarmed")
        a = self._open(sim, broker, client)
        b = self._open(sim, broker, client)
        run_process(sim, a.send_part(mbit(2), index=0))
        a.close()
        sim.run(until=sim.now + 1.0)
        # ``b`` is still open: the file keeps the index ``a`` delivered.
        assert client.transfers._file_progress == {"swarmed": {1}}
        b.cancel("gone")
        sim.run(until=sim.now + 1.0)
        assert client.transfers._file_progress == {}
        # A later stream starts from what its petition says is owed.
        c = self._open(sim, broker, client)
        run_process(sim, c.send_part(mbit(2), index=1))
        assert not waiter.triggered
        run_process(sim, c.send_part(mbit(2), index=0))
        assert waiter.triggered

    def test_cancelled_wait_never_fires(self, overlay_pair, sim):
        broker, client, net = overlay_pair
        connect(sim, broker, client)
        waiter = client.transfers.wait_for_file("swarmed")
        client.transfers.cancel_wait_for_file("swarmed", waiter)
        a = self._open(sim, broker, client)
        run_process(sim, a.send_part(mbit(2), index=0))
        run_process(sim, a.send_part(mbit(2), index=1))
        assert not waiter.triggered
