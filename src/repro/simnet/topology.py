"""Network topology: sites, node specifications and path characteristics.

The topology is a star-of-regions abstraction adequate for the paper's
experiments: every node sits at a *site* inside a *region*, inter-node
round-trip latency decomposes into a region-pair base RTT plus per-node
processing overhead, and each node's access link is the bandwidth
bottleneck (typical for PlanetLab slivers, whose virtualized NICs are
capped well below the site uplink).

:class:`Topology` is a pure description — it owns no simulator state.
:mod:`repro.simnet.transport` instantiates live hosts from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional

from repro.errors import ConfigError, NoRouteError

__all__ = ["Region", "Site", "NodeSpec", "Topology", "PathSpec"]


@dataclass(frozen=True)
class Region:
    """A coarse geographic region used for base-RTT lookup."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("region name must be non-empty")


@dataclass(frozen=True)
class Site:
    """A hosting site (university/lab) within a region."""

    name: str
    region: Region
    country: str = ""


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one node.

    Attributes
    ----------
    hostname:
        Unique DNS-style identifier (e.g. ``planetlab1.hiit.fi``).
    site:
        The hosting :class:`Site`.
    cpu_speed:
        Relative compute rate in normalized ops/second.  Task execution
        time is ``ops / (cpu_speed * available_share)``.
    cores:
        Number of task-execution slots.
    up_bps / down_bps:
        Nominal access-link rates in bits/second (sliver caps).
    overhead_s:
        Mean processing overhead for *unbound* first-contact messages
        (pipe resolution + heavy XML processing) — the dominant term in
        the paper's petition times (Figure 2).
    overhead_cv:
        Coefficient of variation of the overhead (lognormal).
    bound_handling_s:
        Mean handling time for messages on an already-bound pipe; small
        and roughly uniform across nodes (the per-part confirmations of
        the transfer protocol ride on bound pipes).
    spike_prob / spike_factor:
        Probability and magnitude of scheduling spikes (sliver
        descheduling); gives the heavy tail of slow nodes.
    load_min_share / load_max_share:
        Bounds of the time-varying fraction of the nominal access rate
        actually available (sliver contention).
    per_mb_loss:
        Per-megabit corruption probability on this node's access path.
    """

    hostname: str
    site: Site
    cpu_speed: float = 1.0
    cores: int = 1
    up_bps: float = 10_000_000.0
    down_bps: float = 10_000_000.0
    overhead_s: float = 0.05
    overhead_cv: float = 0.3
    bound_handling_s: float = 0.02
    spike_prob: float = 0.0
    spike_factor: float = 1.0
    load_min_share: float = 0.5
    load_max_share: float = 1.0
    per_mb_loss: float = 0.0
    #: Optional diurnal modulation of the access rate: depth of the
    #: daily dip in [0, 1) and the time-of-day offset of the peak.
    diurnal_depth: float = 0.0
    diurnal_peak_offset_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.hostname:
            raise ConfigError("hostname must be non-empty")
        if self.cpu_speed <= 0:
            raise ConfigError(f"{self.hostname}: cpu_speed must be > 0")
        if self.cores < 1:
            raise ConfigError(f"{self.hostname}: cores must be >= 1")
        if self.up_bps <= 0 or self.down_bps <= 0:
            raise ConfigError(f"{self.hostname}: link rates must be > 0")
        if self.overhead_s < 0:
            raise ConfigError(f"{self.hostname}: overhead must be >= 0")
        if self.bound_handling_s < 0:
            raise ConfigError(f"{self.hostname}: bound_handling_s must be >= 0")
        if not 0 <= self.per_mb_loss < 1:
            raise ConfigError(f"{self.hostname}: per_mb_loss must be in [0, 1)")
        if not 0 < self.load_min_share <= self.load_max_share <= 1:
            raise ConfigError(
                f"{self.hostname}: need 0 < load_min_share <= load_max_share <= 1"
            )
        if not 0 <= self.diurnal_depth < 1:
            raise ConfigError(f"{self.hostname}: diurnal_depth must be in [0, 1)")


@dataclass(frozen=True)
class PathSpec:
    """Derived static characteristics of a directed node pair."""

    src: str
    dst: str
    base_one_way_s: float
    per_mb_loss: float


@dataclass
class Topology:
    """A set of nodes plus region-pair base RTTs.

    ``region_rtt`` maps *unordered* region-name pairs (stored sorted) to
    base round-trip times in seconds; the diagonal entry (r, r) is the
    intra-region RTT.  A ``default_rtt`` covers missing pairs if set,
    otherwise unknown pairs raise :class:`NoRouteError`.
    """

    nodes: Dict[str, NodeSpec] = field(default_factory=dict)
    region_rtt: Dict[tuple[str, str], float] = field(default_factory=dict)
    default_rtt: Optional[float] = None
    #: (src region, dst region) -> base one-way latency from the pair
    #: table, filled by :meth:`one_way_s`.
    _one_way: Dict[tuple[str, str], float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # -- construction -------------------------------------------------------

    def add_node(self, spec: NodeSpec) -> None:
        """Register a node; hostnames must be unique."""
        if spec.hostname in self.nodes:
            raise ConfigError(f"duplicate hostname {spec.hostname!r}")
        self.nodes[spec.hostname] = spec

    def add_nodes(self, specs: Iterable[NodeSpec]) -> None:
        for spec in specs:
            self.add_node(spec)

    def set_region_rtt(self, a: str, b: str, rtt_s: float) -> None:
        """Set the base RTT between regions ``a`` and ``b`` (symmetric)."""
        if rtt_s < 0:
            raise ConfigError(f"rtt must be >= 0, got {rtt_s}")
        self.region_rtt[self._key(a, b)] = float(rtt_s)
        self._one_way.clear()

    @staticmethod
    def _key(a: str, b: str) -> tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    # -- queries --------------------------------------------------------------

    def node(self, hostname: str) -> NodeSpec:
        """Look up a node by hostname."""
        try:
            return self.nodes[hostname]
        except KeyError:
            raise NoRouteError(f"unknown node {hostname!r}") from None

    def hostnames(self) -> tuple[str, ...]:
        """All hostnames in deterministic (insertion) order."""
        return tuple(self.nodes)

    def _region_rtt(self, a: str, b: str) -> float:
        key = self._key(a, b)
        rtt = self.region_rtt.get(key)
        if rtt is None:
            if self.default_rtt is None:
                raise NoRouteError(f"no RTT configured for regions {key}")
            rtt = self.default_rtt
        return rtt

    def path(self, src: str, dst: str) -> PathSpec:
        """Static path characteristics for the directed pair."""
        if src == dst:
            return PathSpec(src=src, dst=dst, base_one_way_s=0.0, per_mb_loss=0.0)
        s, d = self.node(src), self.node(dst)
        one_way = self.one_way_s(s, d)
        # Losses on the two access paths compound.
        loss = 1.0 - (1.0 - s.per_mb_loss) * (1.0 - d.per_mb_loss)
        return PathSpec(src=src, dst=dst, base_one_way_s=one_way, per_mb_loss=loss)

    def one_way_s(self, src: NodeSpec, dst: NodeSpec) -> float:
        """Base one-way latency between two nodes: half their base RTT,
        zero from a node to itself.

        The message path asks this once per send, so values are
        memoised per region pair (:meth:`set_region_rtt` clears the
        memo).
        """
        if src.hostname == dst.hostname:
            return 0.0
        key = (src.site.region.name, dst.site.region.name)
        one_way = self._one_way.get(key)
        if one_way is None:
            one_way = self._one_way[key] = 0.5 * self._region_rtt(*key)
        return one_way

    def validate(self) -> None:
        """Check that every node pair has a resolvable RTT."""
        regions = {spec.site.region.name for spec in self.nodes.values()}
        # Sorted so the first missing pair reported is stable across
        # runs (set order varies with hash seeding).
        for a in sorted(regions):
            for b in sorted(regions):
                key = self._key(a, b)
                if key not in self.region_rtt and self.default_rtt is None:
                    raise ConfigError(f"missing region RTT for {key}")

    def __len__(self) -> int:
        return len(self.nodes)
