"""Span tracing around the public functions of each prefixcast layer.

A layer is one module of the package. Every public module-level function a
layer defines is wrapped at every place the package binds it (the defining
module, modules that import it by name, and the package namespace), so
``prefixcast.multicast.huffman_code`` and ``prefixcast.source_coding.
huffman_code`` both record a ``source_coding`` span. Methods and private
helpers stay unwrapped to keep the overhead small; their time counts toward
the span that called them.

Each span carries the request id and its parent span id. Self time is a
span's duration minus the time of its child spans. A generator function
(``gossip.trial_outcomes``) gets one span whose duration is the sum of its
resumptions, since its work runs when the consumer iterates, not when it is
called.
"""

from __future__ import annotations

import functools
import inspect
import sys
import types
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "cli",
    "fileio",
    "source_coding",
    "graphs",
    "hierarchy",
    "multicast",
    "gossip",
    "fusion",
)

# spans kept for the raw output; aggregates keep counting past the cap
SPAN_CAP = 20000


def _count_edges(args, result):
    return (("graphs.edges", len(result.edges)),)


# work counts read from arguments and return values at the layer boundary
COUNTERS = {
    "source_coding.huffman_code": lambda args, result: (
        ("source_coding.symbols", len(args[0])),
    ),
    "hierarchy.verify_secure": lambda args, result: (
        ("hierarchy.leaders", len(args[0].leaders)),
    ),
    "multicast.embed_dary_tree": lambda args, result: (
        ("multicast.vertices", len(args[0].vertices)),
        ("multicast.pruned", len(result.pruned)),
    ),
    "graphs.enumerate_spanning_trees": lambda args, result: (
        ("graphs.trees_enumerated", len(result)),
    ),
    "fileio.parse_graph": _count_edges,
    "fileio.parse_weighted_graph": _count_edges,
    "fusion.overlap_function": lambda args, result: (
        ("fusion.breakpoints", len(result.breakpoints)),
    ),
}


class _Frame:
    __slots__ = ("layer", "span_id", "child")

    def __init__(self, layer, span_id):
        self.layer = layer
        self.span_id = span_id
        self.child = 0.0


class Tracer:
    """Installs span wrappers into an imported prefixcast package."""

    def __init__(self):
        self.stack = []
        self.spans = []  # (request, span id, parent id, function, start, end)
        self.spans_dropped = 0
        self._next_id = 0
        self.reset_request(-1)
        self._patches = []  # (module, attribute, original, wrapper)
        modules = [sys.modules["prefixcast"]] + [
            sys.modules[f"prefixcast.{layer}"] for layer in LAYERS
        ]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules[1:]):
            for attr, fn in vars(mod).items():
                if (
                    isinstance(fn, types.FunctionType)
                    and not attr.startswith("_")
                    and fn.__module__ == mod.__name__
                ):
                    wrappers[id(fn)] = self._wrap(layer, f"{layer}.{attr}", fn)
        for mod in modules:
            for attr, obj in vars(mod).items():
                if id(obj) in wrappers and isinstance(obj, types.FunctionType):
                    self._patches.append((mod, attr, obj, wrappers[id(obj)]))

    # ------------------------------------------------------------ lifecycle

    def install(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def reset_request(self, request_id):
        """Start attributing spans and counts to a new request."""
        self.request = request_id
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.counts = defaultdict(int)

    # ------------------------------------------------------------- wrappers

    def _wrap(self, layer, name, fn):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                return self._iterate(layer, name, fn(*args, **kwargs))

            return traced_gen

        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._call(layer, name, fn, args, kwargs)
            if counter is not None:
                for key, value in counter(args, result):
                    self.counts[key] += value
            return result

        return traced

    def _open(self, layer):
        parent = self.stack[-1] if self.stack else None
        self._next_id += 1
        frame = _Frame(layer, self._next_id)
        return parent, frame

    def _close(self, name, parent, frame, start, end, active):
        layer = frame.layer
        self.self_s[layer] += active - frame.child
        self.calls[layer] += 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                (
                    self.request,
                    frame.span_id,
                    parent.span_id if parent else 0,
                    name,
                    start,
                    end,
                )
            )
        else:
            self.spans_dropped += 1

    def _left_layer(self, parent, layer):
        # an exception leaves the layer when the caller belongs elsewhere
        if parent is None or parent.layer != layer:
            self.errors[layer] += 1

    def _call(self, layer, name, fn, args, kwargs):
        parent, frame = self._open(layer)
        self.stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._left_layer(parent, layer)
            raise
        finally:
            end = perf_counter()
            self.stack.pop()
            if parent is not None:
                parent.child += end - start
            self._close(name, parent, frame, start, end, end - start)
        return result

    def _iterate(self, layer, name, gen):
        parent, frame = self._open(layer)
        first = last = None
        active = 0.0
        try:
            while True:
                outer = self.stack[-1] if self.stack else None
                self.stack.append(frame)
                start = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                except BaseException:
                    self._left_layer(outer, layer)
                    raise
                finally:
                    last = perf_counter()
                    self.stack.pop()
                    if first is None:
                        first = start
                    active += last - start
                    if outer is not None:
                        outer.child += last - start
                yield item
        finally:
            if first is not None:
                self._close(name, parent, frame, first, last, active)
