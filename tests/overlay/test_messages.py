"""Tests for the overlay message vocabulary."""

from __future__ import annotations

import dataclasses

import pytest

from repro.overlay import messages
from repro.overlay.ids import IdFactory

ids = IdFactory()


class TestVocabularyShape:
    def test_every_exported_message_is_a_frozen_dataclass(self):
        for name in messages.__all__:
            cls = getattr(messages, name)
            assert dataclasses.is_dataclass(cls), name
            assert cls.__dataclass_params__.frozen, name

    def test_exports_cover_protocol_families(self):
        families = {
            # membership / liveness
            "JoinRequest", "JoinAck", "KeepAlive",
            "Ping", "Pong",
            # statistics & replication
            "StatReport", "DigestEntry", "StateSync",
            # discovery
            "DiscoveryQuery", "DiscoveryResponse", "PublishAdvertisement",
            # file sharing & transfer
            "FileRequest", "FileRequestAck",
            "FilePetition", "PetitionAck", "PartNotice", "PartConfirm",
            "TransferCancel", "TransferComplete",
            # tasks
            "TaskSubmit", "TaskAccept", "TaskReject",
            "TaskQuery", "TaskResult",
        }
        assert families == set(messages.__all__)


class TestDefaults:
    def test_petition_ack_defaults(self):
        ack = messages.PetitionAck(transfer_id=ids.transfer_id(), accepted=True)
        assert ack.received_at == 0.0

    def test_part_confirm_defaults_ok(self):
        c = messages.PartConfirm(transfer_id=ids.transfer_id(), index=0)
        assert c.ok is True

    def test_task_result_defaults(self):
        r = messages.TaskResult(task_id=ids.task_id(), ok=True)
        assert r.busy_seconds == 0.0
        assert r.output is None
        assert r.error == ""

    def test_keepalive_defaults(self):
        k = messages.KeepAlive(peer_id=ids.peer_id())
        assert (k.outbox_len, k.inbox_len) == (0, 0)
        assert (k.pending_tasks, k.pending_transfers) == (0, 0)

    def test_state_sync_defaults_empty(self):
        sync = messages.StateSync(broker_id=ids.peer_id())
        assert sync.entries == ()
        assert sync.advertisements == ()

    def test_messages_immutable(self):
        ping = messages.Ping(sender=ids.peer_id())
        with pytest.raises(dataclasses.FrozenInstanceError):
            ping.nonce = 5
