"""JXTA-Overlay platform (Python reimplementation).

The parts of the paper's three modules (§3) that the selection studies
reach: the **Broker** (:class:`.broker.Broker` — network governor,
registry, statistics, discovery index), the primitives as per-peer
services (:class:`.discovery.DiscoveryService`,
:class:`.filetransfer.FileTransferService`,
:class:`.filesharing.FileSharingService`,
:class:`.taskexec.TaskExecutionService`, built on first use by
:class:`.peer.PeerNode`) and the **Client** module
(:class:`.client.SimpleClient` / :class:`.client.Client`).  JXTA pipes,
peergroups and instant messages are not modelled.
"""

from repro.overlay.advertisements import (
    DEFAULT_LIFETIME_S,
    Advertisement,
    PeerAdvertisement,
    ResourceAdvertisement,
)
from repro.overlay.broker import Broker, PeerRecord
from repro.overlay.client import Client, SimpleClient
from repro.overlay.discovery import DiscoveryService
from repro.overlay.filesharing import (
    FileNotShared,
    FileSharingService,
    SharedFile,
)
from repro.overlay.filetransfer import (
    FileTransferOutcome,
    FileTransferService,
    PartRecord,
    TransferHandle,
    split_even,
)
from repro.overlay.ids import IdFactory, PeerId, TaskId, TransferId
from repro.overlay.peer import PeerConfig, PeerNode, RequestTimeout
from repro.overlay.statistics import Counters, PeerStats, PerformanceHistory
from repro.overlay.taskexec import TaskExecutionService, TaskOutcome

__all__ = [
    "IdFactory",
    "PeerId",
    "TaskId",
    "TransferId",
    "Advertisement",
    "PeerAdvertisement",
    "ResourceAdvertisement",
    "DEFAULT_LIFETIME_S",
    "PeerNode",
    "PeerConfig",
    "RequestTimeout",
    "SimpleClient",
    "Client",
    "Broker",
    "PeerRecord",
    "PeerStats",
    "Counters",
    "PerformanceHistory",
    "FileTransferService",
    "FileTransferOutcome",
    "PartRecord",
    "TransferHandle",
    "split_even",
    "TaskExecutionService",
    "TaskOutcome",
    "DiscoveryService",
    "FileSharingService",
    "SharedFile",
    "FileNotShared",
]
