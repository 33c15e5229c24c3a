"""Find input seeds on which every workload runs cleanly, at its
typical size.

    PYTHONPATH=src python3 benchmarks/suite/vet.py FIRST LAST

Runs every workload once at each seed in ``[FIRST, LAST)``, with a
time limit per artifact, and prints the seeds on which every artifact
returned and met every enforced criterion, and whose kernel events
are within :data:`SIZE_BAND` of the median clean seed's on every
workload, as the tuple ``workloads.INPUT_SEEDS`` holds; ``#`` lines
say why a seed was rejected.
A handful of seeds make the program hang or raise (see README.md),
and the benchmark measures speed, not those bugs.  A run averages a
few inputs, so inputs of unequal size would make its time depend on
the draw: ``keepalive``'s kernel events vary by 5.5% (standard
deviation) over clean seeds, the others' by 2-3%.
"""

from __future__ import annotations

import signal
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: Host seconds an artifact may take before its seed is rejected
#: (the slowest artifact takes about 3 s).
LIMIT_S = 60
#: Largest share by which a seed's kernel events may differ from the
#: median clean seed's, on any workload.
SIZE_BAND = 0.05


class _Timeout(BaseException):
    """Not an ``Exception``, so the program's own handlers let it through."""


def _alarm(signum, frame):
    raise _Timeout()


def reasons(seed: int, events: dict) -> list:
    """Why ``seed`` is unfit as an input (empty when it is fit); adds
    each workload's kernel events at ``seed`` to ``events``."""
    from repro.obs import MetricsRegistry, use_registry

    from benchmarks.suite import workloads

    out = []
    for name in workloads.NAMES:
        registry = MetricsRegistry()
        for art in workloads.build(name, seed):
            signal.alarm(LIMIT_S)
            try:
                with use_registry(registry):
                    result = art.run()
                out += [f"{name}/{art.name}: {c.text}"
                        for c in art.check(result) if c.enforced and not c.ok]
            except _Timeout:
                out.append(f"{name}/{art.name}: still running after {LIMIT_S} s")
            except Exception as exc:  # a raising artifact rejects the seed
                out.append(f"{name}/{art.name}: raised {type(exc).__name__}")
            finally:
                signal.alarm(0)
        events[name] = registry.counter("kernel.events_processed").value
    return out


def main(argv=None) -> int:
    first, last = map(int, (argv or sys.argv[1:])[:2])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    signal.signal(signal.SIGALRM, _alarm)
    events = {}
    for seed in range(first, last):
        events[seed] = {}
        why = reasons(seed, events[seed])
        if why:
            del events[seed]
        print(f"# seed {seed}: {'; '.join(why) or 'ok'}", flush=True)
    median = {name: statistics.median(e[name] for e in events.values())
              for name in next(iter(events.values()))}
    fit = []
    for seed, counts in events.items():
        off = [f"{name} {n:.0f} kernel events, median {median[name]:.0f}"
               for name, n in counts.items()
               if abs(n / median[name] - 1) > SIZE_BAND]
        if off:
            print(f"# seed {seed}: {'; '.join(off)}")
        else:
            fit.append(seed)
    print("INPUT_SEEDS = (" + ", ".join(map(str, fit)) + ")")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
