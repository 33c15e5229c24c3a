"""Per-layer host-time tracer, installed from outside the program.

:func:`installed` wraps the calls where one layer hands work to
another and restores the originals on exit:

* ``Simulator.step`` is a *kernel* span (one per event);
* ``Simulator.process`` hands the kernel a proxy generator whose
  ``send``/``throw`` time every resume, under the layer of the module
  the generator's code lives in;
* ``Simulator.call_at`` (and so ``call_in``) wraps the scheduled
  callable the same way; ``FlowScheduler.*`` counts as *flows* and
  ``Host.*`` as *transport*;
* ``Host.send`` is a *transport* span and tallies messages by payload
  type; handlers given to ``Host.on_message`` run under their own
  module's layer;
* every ``select`` in ``repro.selection``, ``FlowScheduler.start_flow``
  and ``Session.__init__`` are spans of their layer.

Spans nest on one stack; a span's self time is its duration minus its
children's.  Self time and counts are folded online into one entry per
(layer, qualname, parent layer): a raw span per event would be
millions of records on the larger workloads.
"""

from __future__ import annotations

# simlint: disable-file=SIM001 -- spans time the host, not the simulation

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import PurePath
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["LAYERS", "LayerTracer", "installed", "layer_of"]

#: Layers, named after the modules they cover.
LAYERS: Tuple[str, ...] = (
    "kernel", "transport", "flows", "overlay", "selection", "gossip",
    "swarm", "recovery", "faults", "experiments",
)

#: ``repro`` sub-packages that are a layer of their own; every package
#: not listed here (experiments, analysis, workloads, obs, ...) is the
#: *experiments* layer, and ``simnet`` splits into kernel and transport.
_PACKAGE_LAYERS = {
    p: p for p in ("overlay", "selection", "gossip", "swarm", "recovery", "faults")
}


def layer_of(filename: str, qualname: str) -> str:
    """The layer that owns code defined in ``filename`` as ``qualname``."""
    if qualname.startswith("FlowScheduler."):
        return "flows"
    if qualname.startswith("Host."):
        return "transport"
    parts = PurePath(filename).parts
    if "repro" not in parts:
        return "kernel"
    rest = parts[len(parts) - parts[::-1].index("repro"):]
    if rest[0] == "simnet":
        return "kernel" if rest[1:] == ("kernel.py",) else "transport"
    return _PACKAGE_LAYERS.get(rest[0], "experiments")


def _function_of(fn: Any) -> Any:
    while isinstance(fn, functools.partial):
        fn = fn.func
    return getattr(fn, "__func__", fn)


class LayerTracer:
    """Span stack plus the aggregates a traced run reports."""

    def __init__(self) -> None:
        self._stack: List[list] = []  # frames: [layer, child seconds]
        #: (layer, qualname, parent layer) -> [spans, self seconds,
        #: seconds including children]
        self.spans: Dict[Tuple[str, str, Optional[str]], list] = defaultdict(
            lambda: [0, 0.0, 0.0]
        )
        #: Messages handed to ``Host.send``, by payload type name.
        self.messages: Counter = Counter()
        #: Process resumes (generator ``send``/``throw`` calls).
        self.resumes = 0
        self.selections = 0
        self.candidates = 0
        self._layers: Dict[Any, Tuple[str, str]] = {}

    def span(self, layer: str, qualname: str, fn: Callable, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` as one span of ``layer``."""
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [layer, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            entry = self.spans[(layer, qualname, parent[0] if parent else None)]
            entry[0] += 1
            entry[1] += elapsed - frame[1]
            entry[2] += elapsed
            if parent is not None:
                parent[1] += elapsed

    def _owner(self, code, qualname: str) -> Tuple[str, str]:
        key = code or qualname
        owner = self._layers.get(key)
        if owner is None:
            layer = "kernel" if code is None else layer_of(code.co_filename, qualname)
            owner = self._layers[key] = (layer, qualname)
        return owner

    def wrap(self, fn: Callable) -> Callable:
        """``fn`` as a span of the layer that defines it."""
        f = _function_of(fn)
        layer, qualname = self._owner(
            getattr(f, "__code__", None), getattr(f, "__qualname__", "callback")
        )
        span = self.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return span(layer, qualname, fn, *args, **kwargs)

        # The kernel names callback events after ``fn.__name__``.
        traced.__name__ = getattr(fn, "__name__", "call")
        return traced

    # -- reports -------------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        """Self seconds per layer (every layer present, 0 when idle)."""
        out = dict.fromkeys(LAYERS, 0.0)
        for (layer, _q, _p), (_n, self_s, _t) in self.spans.items():
            out[layer] += self_s
        return out

    def inclusive(self, qualname: str) -> Tuple[float, int]:
        """(seconds including children, spans) of ``qualname`` so far."""
        entries = [e for (_l, q, _p), e in self.spans.items() if q == qualname]
        return sum(e[2] for e in entries), sum(e[0] for e in entries)

    def top(self, n: int = 25) -> List[dict]:
        """The ``n`` entries with the most self time."""
        ranked = sorted(self.spans.items(), key=lambda kv: -kv[1][1])[:n]
        return [
            {"layer": layer, "qualname": q, "parent": parent,
             "spans": count, "self_s": self_s}
            for (layer, q, parent), (count, self_s, _t) in ranked
        ]


class _TracedGenerator:
    """Generator proxy: every resume is a span of the generator's layer."""

    def __init__(self, gen, tracer: LayerTracer) -> None:
        self._gen = gen
        self._tracer = tracer
        self._span = tracer.span
        self._layer, self._qualname = tracer._owner(gen.gi_code, gen.__qualname__)
        self.__name__ = gen.__name__

    def send(self, value):
        self._tracer.resumes += 1
        return self._span(self._layer, self._qualname, self._gen.send, value)

    def throw(self, *exc):
        self._tracer.resumes += 1
        return self._span(self._layer, self._qualname, self._gen.throw, *exc)

    def close(self):
        return self._gen.close()


@contextmanager
def installed(tracer: LayerTracer) -> Iterator[LayerTracer]:
    """Install the wrappers for the duration of the block."""
    from repro.experiments.scenario import Session
    from repro.selection import base, hybrid, scheduling
    from repro.simnet.kernel import Simulator
    from repro.simnet.transport import FlowScheduler, Host

    span = tracer.span
    patches: List[Tuple[type, str, Any]] = []

    def patch(owner: type, name: str, make: Callable[[Any], Callable]) -> None:
        original = owner.__dict__[name]
        patches.append((owner, name, original))
        setattr(owner, name, make(original))

    def spanned(layer: str, qualname: str):
        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return span(layer, qualname, original, *args, **kwargs)
            return wrapper
        return make

    def process(original):
        def wrapper(sim, generator, name=""):
            if hasattr(generator, "gi_code"):
                generator = _TracedGenerator(generator, tracer)
            return original(sim, generator, name)
        return wrapper

    def call_at(original):
        def wrapper(sim, at, fn, *args):
            return original(sim, at, tracer.wrap(fn), *args)
        return wrapper

    def send(original):
        def wrapper(host, dst, payload, *args, **kwargs):
            tracer.messages[type(payload).__name__] += 1
            return span("transport", "Host.send", original,
                        host, dst, payload, *args, **kwargs)
        return wrapper

    def on_message(original):
        def wrapper(host, payload_type, handler):
            return original(host, payload_type, tracer.wrap(handler))
        return wrapper

    def select(qualname: str):
        def make(original):
            def wrapper(selector, context):
                stack = tracer._stack
                if not stack or stack[-1][0] != "selection":
                    tracer.selections += 1
                    tracer.candidates += len(context.candidates)
                return span("selection", qualname, original, selector, context)
            return wrapper
        return make

    try:
        patch(Simulator, "step", spanned("kernel", "Simulator.step"))
        patch(Simulator, "process", process)
        patch(Simulator, "call_at", call_at)
        patch(Host, "send", send)
        patch(Host, "on_message", on_message)
        patch(FlowScheduler, "start_flow",
              spanned("flows", "FlowScheduler.start_flow"))
        patch(Session, "__init__", spanned("experiments", "Session.__init__"))
        for cls in (base.PeerSelector, scheduling.SchedulingBasedSelector,
                    hybrid.HybridSelector):
            patch(cls, "select", select(f"{cls.__name__}.select"))
        yield tracer
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)
