"""repro — reproduction of "An Experimental Study on Peer Selection in
a P2P Network over PlanetLab" (Xhafa, Barolli, Fernández, Daradoumis;
ICPPW 2007).

Subpackages
-----------
:mod:`repro.simnet`
    Discrete-event network substrate standing in for PlanetLab: DES
    kernel, latency/bandwidth/loss models, topology, transport with
    flow-level fair sharing, and the calibrated Table 1 testbed.
:mod:`repro.overlay`
    The JXTA-Overlay parts the selection models read: the broker,
    advertisements, discovery, statistics, the file-transmission and
    file-sharing protocols and executable-task management, with
    SimpleClient and Client peers.  Pipes, peergroups and instant
    messages are not modelled.
:mod:`repro.selection`
    The paper's subject: scheduling-based (economic), data-evaluator
    and user's-preference selection models plus a blind round-robin
    baseline.
:mod:`repro.workloads`
    Synthetic virtual-campus workloads (files, tasks, generators).
:mod:`repro.experiments`
    One harness per table/figure of the paper's evaluation.
:mod:`repro.analysis`
    Summary statistics for results.

Quickstart
----------
>>> from repro.experiments import ExperimentConfig, fig2_petition
>>> result = fig2_petition.run(ExperimentConfig(repetitions=5))
>>> print(result.table())
"""

from repro import analysis, experiments, overlay, selection, simnet, workloads
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "simnet",
    "overlay",
    "selection",
    "workloads",
    "experiments",
    "analysis",
    "ReproError",
    "__version__",
]
