"""Command-line entry point: regenerate the paper's evaluation.

Usage::

    python -m repro                      # every table and figure
    python -m repro fig2 fig5            # a subset
    python -m repro --seed 41 --reps 5   # different seed / repetitions
    python -m repro --list               # available artifacts
    python -m repro fig2 --metrics-out metrics.json   # + observability

``--metrics-out PATH`` installs a metrics registry for the run and
writes every instrument (petition-latency and per-part transfer
histograms, kernel/flow counters, ...) to PATH as JSON — or CSV when
the path ends in ``.csv`` — and prints a summary table.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict

from repro.errors import ConfigError
from repro.faults.profiles import PROFILES, get_profile
from repro.obs import MetricsRegistry, summary_table, use_registry, write_metrics
from repro.experiments import (
    ExperimentConfig,
    churn,
    resilience,
    fig2_petition,
    fig3_fulltransfer,
    fig4_lastmb,
    fig5_granularity,
    fig6_selection,
    fig7_execution,
    scale,
    swarming,
    table1_nodes,
)

__all__ = ["main"]


def _needs_config(runner):
    def run(config: ExperimentConfig) -> str:
        return runner(config).table()

    return run


#: artifact name -> (description, callable(config) -> rendered table).
ARTIFACTS: Dict[str, tuple[str, Callable[[ExperimentConfig], str]]] = {
    "table1": (
        "nodes added to the PlanetLab slice",
        lambda config: table1_nodes.run().table(),
    ),
    "fig2": ("petition reception time per peer", _needs_config(fig2_petition.run)),
    "fig3": ("50 Mb transmission time per peer", _needs_config(fig3_fulltransfer.run)),
    "fig4": ("last-Mb completion time per peer", _needs_config(fig4_lastmb.run)),
    "fig5": ("100 Mb whole vs 4 vs 16 parts", _needs_config(fig5_granularity.run)),
    "fig6": ("three selection models x two granularities",
             _needs_config(fig6_selection.run)),
    "fig7": ("execution vs transmission & execution",
             _needs_config(fig7_execution.run)),
    "scale": ("future work: larger peer pools", _needs_config(scale.run)),
    "scale-large": (
        "future work: 100/500/1000 synthetic peers (slow; not in default set)",
        _needs_config(scale.run_large),
    ),
    "scale-federated": (
        "gossip federation: control-plane cost + broker-kill degradation",
        _needs_config(scale.run_federated),
    ),
    "churn": ("extension: selection under peer churn", _needs_config(churn.run)),
    "resilience": (
        "extension: selection policies x fault profiles (see --faults)",
        _needs_config(resilience.run),
    ),
    "swarming": (
        "extension: multi-source downloads, k sources x selection model",
        _needs_config(swarming.run),
    ),
}

#: Artifacts too expensive for the default run-everything invocation.
_OPT_IN = frozenset({"scale-large", "scale-federated", "resilience", "swarming"})


def main(argv=None) -> int:
    """Run the requested artifacts; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "artifacts",
        nargs="*",
        metavar="ARTIFACT",
        help="artifact names (default: all); see --list",
    )
    parser.add_argument("--seed", type=int, default=2007, help="master seed")
    parser.add_argument(
        "--reps", type=int, default=5,
        help="repetitions to average (paper: 5)",
    )
    parser.add_argument(
        "--config", metavar="FILE", default=None,
        help="load an ExperimentConfig JSON (overrides --seed/--reps)",
    )
    parser.add_argument(
        "--faults", metavar="PROFILE", default=None,
        help="install a named fault profile for the run "
             f"({', '.join(sorted(PROFILES))}); with no artifacts "
             "listed, runs the resilience matrix",
    )
    parser.add_argument(
        "--recovery", action="store_true",
        help="run self-healing: transfer checkpoint/resume, standby "
             "broker failover and degraded-mode selection "
             "(repro.recovery defaults)",
    )
    parser.add_argument(
        "--federated", action="store_true",
        help="run on the gossip-federated control plane: 3 sharded "
             "brokers with SWIM liveness instead of one keepalive "
             "broker (repro.gossip defaults)",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="collect run metrics and write them to PATH "
             "(.csv for CSV, anything else for JSON)",
    )
    parser.add_argument(
        "--parallel", metavar="N", type=int, default=None,
        help="fan every (cell, repetition) sweep out over N worker "
             "processes (0 = one per CPU); results are bit-identical "
             "to serial",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available artifacts"
    )
    args = parser.parse_args(argv)

    if args.list:
        for name, (desc, _) in ARTIFACTS.items():
            print(f"{name:8s} {desc}")
        return 0

    if args.faults:
        chosen = args.artifacts or ["resilience"]
    else:
        chosen = args.artifacts or [a for a in ARTIFACTS if a not in _OPT_IN]
    unknown = [a for a in chosen if a not in ARTIFACTS]
    if unknown:
        print(f"unknown artifacts: {unknown}; try --list", file=sys.stderr)
        return 2

    if args.config is not None:
        try:
            config = ExperimentConfig.load(args.config)
        except (OSError, ValueError, ConfigError) as exc:
            print(f"--config: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            config = ExperimentConfig(seed=args.seed, repetitions=args.reps)
        except ConfigError as exc:
            print(f"--seed/--reps: {exc}", file=sys.stderr)
            return 2
    if args.faults:
        import dataclasses

        try:
            plan = get_profile(args.faults)
        except ConfigError as exc:
            print(f"--faults: {exc}", file=sys.stderr)
            return 2
        config = dataclasses.replace(config, fault_plan=plan)
    if args.recovery:
        import dataclasses

        from repro.recovery.config import RecoveryConfig

        config = dataclasses.replace(config, recovery=RecoveryConfig())
    if args.federated:
        import dataclasses

        from repro.gossip.config import GossipConfig

        config = dataclasses.replace(
            config, gossip=GossipConfig(), federation_brokers=3
        )
    if args.parallel is not None:
        from repro.perf.parallel import set_default_workers

        set_default_workers(args.parallel)
    if args.metrics_out:
        out_dir = Path(args.metrics_out).expanduser().resolve().parent
        if not out_dir.is_dir():
            # Fail before the run, not after minutes of simulation.
            print(
                f"--metrics-out: directory {out_dir} does not exist",
                file=sys.stderr,
            )
            return 2
    registry = MetricsRegistry() if args.metrics_out else None
    with use_registry(registry) if registry is not None else nullcontext():
        for name in chosen:
            desc, runner = ARTIFACTS[name]
            print()
            print("=" * 72)
            print(f"{name} — {desc}")
            print("=" * 72)
            print(runner(config))

    if registry is not None:
        path = write_metrics(registry, args.metrics_out)
        print()
        print(summary_table(registry, title=f"run metrics → {path}"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
