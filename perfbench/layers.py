"""Span recording around the simulator's layers, installed from outside.

:func:`install` wraps each layer's entry points in span recorders
before ``build_simulation`` runs, so bound methods the program caches
while wiring (NIC pull sources, transmit callbacks) are wrapped too.
It also wraps every callback handed to the event loop's scheduling
methods, attributed to the layer of the module that defines it.
Nothing inside the program's source changes.

A span records its id, name, start, end and parent span.  Self time is
a span's duration minus the durations of its direct children,
accumulated per layer for every span; the first :data:`KEEP_SPANS`
spans are kept in memory as records and written out when the
measurement ends.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import pkgutil
import sys
import time
from typing import Callable, Dict, List, Tuple

#: The layers, named after the program's modules.
LAYERS = (
    "sim",
    "net.port",
    "net.switch",
    "net.queues",
    "net.pool",
    "protocols",
    "metrics",
    "validate",
    "workloads",
    "experiments",
)
#: Time in a callback whose module maps to none of the layers.
OTHER = "other"

#: Module prefix -> layer, for callbacks the event loop dispatches.
#: Longest prefix wins.
MODULE_LAYERS = (
    ("repro.sim", "sim"),
    ("repro.net.port", "net.port"),
    ("repro.net.node", "net.port"),
    ("repro.net.switch", "net.switch"),
    ("repro.net.routing", "net.switch"),
    ("repro.net.queues", "net.queues"),
    ("repro.dataplane", "net.queues"),
    ("repro.net.pool", "net.pool"),
    ("repro.net.columns", "net.pool"),
    ("repro.protocols", "protocols"),
    ("repro.metrics", "metrics"),
    ("repro.validate", "validate"),
    ("repro.workloads", "workloads"),
    ("repro.experiments", "experiments"),
)

KEEP_SPANS = 50_000

_MARK = "_perfbench_span"


def layer_of_module(module: str) -> str:
    best, best_len = OTHER, -1
    for prefix, layer in MODULE_LAYERS:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > best_len:
            best, best_len = layer, len(prefix)
    return best


class SpanRecorder:
    """Accumulates per-layer self time and call counts; keeps early spans."""

    def __init__(self, keep: int = KEEP_SPANS) -> None:
        self.clock = time.perf_counter
        self.keep = keep
        # One [self_seconds, calls] cell per layer, captured by wrappers.
        self.cells: Dict[str, List[float]] = {layer: [0.0, 0] for layer in LAYERS + (OTHER,)}
        self.stack: List[list] = []  # open spans: [child_seconds, span_id]
        self.names: Dict[str, int] = {}
        self.name_layer: List[str] = []
        self.name_calls: List[int] = []
        self.spans: List[Tuple[int, int, float, float, int]] = []  # id, name, start, end, parent
        self._ids = itertools.count(1)

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        """``fn`` with a span around every call."""
        cell = self.cells[layer]
        stack = self.stack
        clock = self.clock
        spans = self.spans
        keep = self.keep
        ids = self._ids
        name_id = self.names.get(name)
        if name_id is None:
            name_id = self.names[name] = len(self.name_layer)
            self.name_layer.append(layer)
            self.name_calls.append(0)
        name_calls = self.name_calls

        def span(*args, **kwargs):
            sid = next(ids)
            frame = [0.0, sid]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                cell[0] += d - frame[0]
                cell[1] += 1
                name_calls[name_id] += 1
                if stack:
                    stack[-1][0] += d
                if len(spans) < keep:
                    spans.append((sid, name_id, t0, t1, parent))

        setattr(span, _MARK, True)
        return span

    def wrap_callback(self, fn: Callable) -> Callable:
        """Wrap a callback handed to the event loop, unless already wrapped."""
        if getattr(getattr(fn, "__func__", fn), _MARK, False):
            return fn
        module = getattr(fn, "__module__", None) or ""
        name = getattr(fn, "__qualname__", None) or type(fn).__name__
        return self.wrap(fn, layer_of_module(module), name)

    def snapshot(self) -> dict:
        """Per-layer ``(self_s, calls)`` and per-name calls so far."""
        return {
            "layers": {layer: (cell[0], cell[1]) for layer, cell in self.cells.items()},
            "names": {name: self.name_calls[i] for name, i in self.names.items()},
        }

    def layer_of_name(self, name: str) -> str:
        return self.name_layer[self.names[name]]

    def span_records(self) -> dict:
        names = sorted(self.names, key=self.names.get)
        return {
            "names": names,
            "fields": ["span", "name", "start_s", "end_s", "parent_span"],
            "spans": [list(s) for s in self.spans],
            "spans_total": next(self._ids) - 1,
            "spans_kept": len(self.spans),
        }


def _patch(cls, attr: str, recorder: SpanRecorder, layer: str, undo: list) -> None:
    original = cls.__dict__[attr]
    wrapped = recorder.wrap(original, layer, f"{cls.__qualname__}.{attr}")
    setattr(cls, attr, wrapped)
    undo.append((cls, attr, original))


def _classes_in(package: str):
    """Every class defined in ``package`` and its submodules."""
    root = importlib.import_module(package)
    modules = [root]
    for info in pkgutil.walk_packages(getattr(root, "__path__", []), package + "."):
        try:
            modules.append(importlib.import_module(info.name))
        except ImportError as exc:  # an optional submodule may not import here
            print(f"perfbench: skipping {info.name}: {exc}", file=sys.stderr)
    for mod in modules:
        for _, cls in inspect.getmembers(mod, inspect.isclass):
            if cls.__module__ == mod.__name__:
                yield cls


def _public_functions(cls) -> List[str]:
    return [
        attr
        for attr, value in vars(cls).items()
        if inspect.isfunction(value) and not attr.startswith("__")
        and (not attr.startswith("_") or attr.startswith("_on_"))
    ]


def _entry_points() -> List[Tuple[str, str, object, List[str]]]:
    """``(layer, description, class, methods)`` of every entry point found.

    Entries whose module or class no longer exists are returned with
    ``class`` set to None so the caller can report them absent.
    """
    out = []

    def fixed(layer, module, cls_name, methods):
        try:
            cls = getattr(importlib.import_module(module), cls_name)
        except (ImportError, AttributeError):
            out.append((layer, f"{module}.{cls_name}", None, methods))
            return
        out.append((layer, f"{module}.{cls_name}", cls, methods))

    fixed("sim", "repro.sim.engine", "EventLoop", ["run"])
    fixed("net.port", "repro.net.port", "Port", ["send", "kick", "_tx_done"])
    # The fused transmit path pushes ``peer.receive`` straight onto the
    # event heap, past the wrapped scheduling methods, so the receiving
    # end of a link is wrapped here: a host's NIC delivery counts with
    # the ports, a switch's with the switches.
    fixed("net.port", "repro.net.node", "Host", ["receive", "send"])
    fixed("net.switch", "repro.net.switch", "Switch", ["receive"])
    fixed("net.pool", "repro.net.pool", "PacketPool", ["data", "control", "release"])
    fixed("metrics", "repro.metrics.collector", "MetricsCollector", None)

    def scanned(layer, packages, wanted, keep):
        found = False
        for package in packages:
            for cls in _classes_in(package):
                methods = [m for m in wanted if inspect.isfunction(vars(cls).get(m))]
                if methods and keep(cls):
                    out.append((layer, f"{cls.__module__}.{cls.__qualname__}", cls, methods))
                    found = True
        if not found:
            out.append((layer, f"{'/'.join(wanted)} in {', '.join(packages)}", None, wanted))

    scanned("net.queues", ("repro.net", "repro.dataplane"), ("push", "pop"),
            lambda cls: layer_of_module(cls.__module__) == "net.queues" and hasattr(cls, "push"))
    scanned("protocols", ("repro.protocols",), ("start_flow", "on_packet", "nic_pull"),
            lambda cls: hasattr(cls, "on_packet"))

    try:
        from repro.validate import standard_auditors

        auditor_types = {type(a) for a in standard_auditors()}
    except ImportError:
        auditor_types = set()
        out.append(("validate", "repro.validate.standard_auditors", None, []))
    seen = set()
    for t in auditor_types:
        for cls in t.__mro__:
            if cls in seen or layer_of_module(cls.__module__) != "validate":
                continue
            seen.add(cls)
            out.append(("validate", f"{cls.__module__}.{cls.__qualname__}", cls, None))
    return out


def install(recorder: SpanRecorder) -> Tuple[Callable[[], None], List[List[str]]]:
    """Wrap every layer entry point; returns ``(undo, absent)``.

    ``absent`` lists ``[layer, entry point]`` for each entry point that
    no longer exists; each is also reported on stderr.  The benchmark
    carries on without it, but a missing entry point's time lands in
    whichever layer called it, so the caller reports the time split as
    absent (see ``run.per_layer_values``).
    """
    undo: list = []
    absent: List[List[str]] = []
    for layer, where, cls, methods in _entry_points():
        if cls is None:
            absent.append([layer, where])
            continue
        names = _public_functions(cls) if methods is None else methods
        for attr in names:
            if inspect.isfunction(vars(cls).get(attr)):
                _patch(cls, attr, recorder, layer, undo)
            else:
                absent.append([layer, f"{where}.{attr}"])

    try:
        from repro.sim.engine import EventLoop
    except ImportError:
        absent.append(["sim", "repro.sim.engine.EventLoop scheduling"])
    else:
        for attr in ("schedule_at", "schedule_timer_at"):
            original = vars(EventLoop).get(attr)
            if original is None:
                absent.append(["sim", f"repro.sim.engine.EventLoop.{attr}"])
                continue
            setattr(EventLoop, attr, _dispatching(original, recorder))
            undo.append((EventLoop, attr, original))

    for layer, where in absent:
        print(f"perfbench: warning: entry point {where} ({layer}) is absent; not traced",
              file=sys.stderr)

    def restore() -> None:
        for cls, attr, original in reversed(undo):
            setattr(cls, attr, original)

    return restore, absent


def _dispatching(schedule: Callable, recorder: SpanRecorder) -> Callable:
    wrap_callback = recorder.wrap_callback

    def schedule_wrapped(self, when, fn, *args):
        return schedule(self, when, wrap_callback(fn), *args)

    return schedule_wrapped
