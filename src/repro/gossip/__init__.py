"""SWIM-style gossip membership and broker federation.

The paper's broker is a single governor; its registry learns liveness
from per-client keepalives — a control-plane cost that grows linearly
with the population.  This package replaces that with the two layers
the ROADMAP's "sharded, gossip-federated control plane" item asks for:

* :mod:`repro.gossip.swim` — a SWIM-style failure detector: seeded
  probe / ping-req rounds over a sparse membership graph, suspect→dead
  timeouts with refutation incarnation numbers, and membership deltas
  piggybacked on probe traffic with bounded rumor retransmission.
* :mod:`repro.gossip.shard` / :mod:`repro.gossip.federation` — a
  versioned shard map partitioning the registry by region across N
  brokers, with deterministic shard handoff when
  gossip declares a broker dead, wrong-shard join redirects carrying
  the fresh map (stale-shard-map retry), and cross-shard discovery
  fan-out.

Grounding: "Gossiping with Multiple Messages" (rumor dissemination
cost), "About the Lifespan of Peer to Peer Networks" (liveness under
population decay) — see PAPERS.md.
"""

from repro.gossip.config import GossipConfig
from repro.gossip.messages import (
    GossipAck,
    GossipNotify,
    GossipPing,
    GossipPingReq,
    Rumor,
    ShardMapUpdate,
)
from repro.gossip.shard import ShardMap, build_shard_map, region_shard_key
from repro.gossip.swim import MemberState, SwimAgent
from repro.gossip.federation import Federation

__all__ = [
    "GossipConfig",
    "Rumor",
    "GossipPing",
    "GossipAck",
    "GossipPingReq",
    "GossipNotify",
    "ShardMapUpdate",
    "ShardMap",
    "build_shard_map",
    "region_shard_key",
    "MemberState",
    "SwimAgent",
    "Federation",
]
