#!/usr/bin/env python
"""Gossip-federated brokers: sharded registry, SWIM liveness, rehoming.

JXTA-Overlay's brokers "act as governors of the P2P network" — plural.
This example runs the real :mod:`repro.gossip` federation: three
brokers shard the registry by region over a versioned shard map, every
peer joins its shard owner (following wrong-shard redirects), SWIM
probes replace keepalives, and a cross-shard discovery query resolves
through the federated fan-out.  Then the middle broker crashes: gossip
declares it dead, the survivors recompute the shard map, orphaned
peers rehome, and the same discovery still resolves.

Run:  python examples/federation.py
"""

from __future__ import annotations

from repro.gossip.config import GossipConfig
from repro.gossip.federation import Federation
from repro.overlay.advertisements import ResourceAdvertisement
from repro.overlay.broker import Broker
from repro.overlay.client import SimpleClient
from repro.overlay.ids import IdFactory
from repro.simnet.kernel import Simulator
from repro.simnet.planetlab import build_testbed
from repro.simnet.rng import RandomStreams
from repro.simnet.transport import Network

N_BROKERS = 3


def homes(federation: Federation) -> dict:
    """Broker name -> sorted names of the peers homed on it."""
    out: dict = {broker.name: [] for broker in federation.brokers.values()}
    for peer in federation.peers.values():
        if peer.online and peer.broker_adv is not None:
            home = federation.brokers.get(peer.broker_adv.hostname)
            if home is not None:
                out[home.name].append(peer.name)
    return {name: sorted(peers) for name, peers in out.items()}


def main() -> None:
    testbed = build_testbed(federation_brokers=N_BROKERS)
    sim = Simulator()
    net = Network(sim, testbed.topology, streams=RandomStreams(17))
    ids = IdFactory()

    brokers = [
        Broker(net, hostname, ids, name="broker" if i == 0 else f"broker{i+1}")
        for i, hostname in enumerate(testbed.federation)
    ]
    federation = Federation(net, brokers, GossipConfig())
    # SWIM is the liveness source: join_federated starts no beacons.
    labels = testbed.sc_labels()
    clients = {
        label: SimpleClient(net, testbed.sc_hostname(label), ids, name=label)
        for label in labels
    }

    def scenario():
        print("shard map v%d over %d brokers:" % (
            federation.shard_map.version, len(federation.brokers)))
        for shard, owner in federation.shard_map.assignment:
            print(f"  {shard:24s} -> {owner}")

        for client in clients.values():
            federation.enroll(client)
        for client in clients.values():
            yield sim.process(
                client.join_federated(
                    federation.shard_map, federation.broker_advs()
                )
            )
        federation.start_gossip()
        print("\npeers homed per broker:", homes(federation))

        # One peer shares a file; a peer in another shard resolves it
        # by name — local shard first, federated fan-out on miss.
        sharer = clients[labels[0]]
        seeker = clients[labels[-1]]
        sharer.discovery.publish(ResourceAdvertisement(
            published_at=sim.now,
            peer_id=sharer.peer_id,
            kind="file",
            name="notes.pdf",
        ))
        yield 5.0
        advs = yield sim.process(
            seeker.discovery.query("resource", attrs={"name": "notes.pdf"})
        )
        print(f"{seeker.name} resolved notes.pdf via {len(advs)} adv(s) "
              f"(publisher shard != seeker shard is fine: fan-out)")

        # Crash the second broker: SWIM suspects it, declares it dead,
        # survivors recompute the shard map and orphans rehome.
        victim = brokers[1]
        victim_peers = homes(federation)[victim.name]
        print(f"\ncrashing {victim.name} ({victim.host.hostname}); "
              f"orphaning {victim_peers}")
        net.host(victim.host.hostname).crash()
        yield 600.0

        survivor = brokers[0]
        print(f"shard map now v{survivor.shard_map.version}, brokers "
              f"{survivor.shard_map.brokers}")
        print("peers homed per broker:", homes(federation))

        advs = yield sim.process(
            seeker.discovery.query("resource", attrs={"name": "notes.pdf"})
        )
        print(f"after the crash {seeker.name} still resolves notes.pdf "
              f"({len(advs)} adv(s))")

    p = sim.process(scenario())
    sim.run(until=p)


if __name__ == "__main__":
    main()
