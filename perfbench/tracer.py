"""Outside-in layer tracing: spans around each layer's public entry points.

:class:`Tracer` patches a fixed list of entry points (class attributes and
module-level names, each where the program looks it up) with wrappers that
record one span per call (per resume, for a generator): name, start, end
and parent span.  Spans live in
flat in-memory arrays and are written once, at the end, by
:meth:`Tracer.write_spans`.  A layer's self time is its spans' durations
minus the part covered by their child spans (:func:`self_times`).

Callbacks handed to a scheduler (``Simulator.schedule``/``schedule_at``,
the realtime scheduler's timers, the simulator's deadline pool) are wrapped
too and attributed to the layer of the callback's module, so time spent in
timers does not pile up in the engine's run loop.

Install wrappers *before* the system is built: components capture bound
methods at construction (``node.set_receiver(service.handle_message)``),
and only a class patched beforehand hands out wrapped ones.
:meth:`Tracer.restore` puts every patched attribute back, so an untraced
run never measures a wrapper.
"""

from __future__ import annotations

import inspect
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Module prefix -> layer, longest prefix first.
LAYER_OF_MODULE: Tuple[Tuple[str, str], ...] = (
    ("repro.fd.swim", "fd.swim"),
    ("repro.fd", "fd"),
    ("repro.core.group", "core.group"),
    ("repro.core.election", "core.election"),
    ("repro.core", "core.service"),
    ("repro.sim", "sim"),
    ("repro.net", "net"),
    ("repro.runtime", "runtime"),
    ("repro.lease", "lease"),
    ("repro.metrics", "metrics"),
    ("repro.experiments", "experiments"),
    ("repro.chaos", "chaos"),
    ("perfbench", "bench"),
)

LAYERS = tuple(dict.fromkeys(layer for _, layer in LAYER_OF_MODULE)) + ("other",)

_ROOT = -1


def layer_of_module(module: Optional[str]) -> str:
    if module:
        for prefix, layer in LAYER_OF_MODULE:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "other"


def self_times(
    name_id: np.ndarray, start: np.ndarray, end: np.ndarray, parent: np.ndarray, n_names: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-name ``(calls, self seconds)`` of a span forest.

    A span's self time is its duration minus the durations of its direct
    children (children nest inside their parent, so this is exactly the
    part of the interval no child covers).
    """
    duration = end - start
    has_parent = parent >= 0
    child = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    own = duration - child
    calls = np.bincount(name_id, minlength=n_names)
    seconds = np.bincount(name_id, weights=own, minlength=n_names)
    return calls, seconds


class Tracer:
    """Span recorder plus the patch plan for every traced entry point."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_layer: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: List[int] = [_ROOT]
        self._stack_names: List[int] = [-1]
        #: Generator entry point name id -> calls (their spans are resumes).
        self.generator_calls: Dict[int, int] = {}
        #: Free-form counters (changed records, cache misses, ...).
        self.counts: Dict[str, int] = {}
        #: Realtime timer lateness samples (fire - due), seconds.
        self.timer_lag: List[float] = []
        #: ``is_down(node_id) -> bool``, set by the workload: ground truth
        #: for the suspicion-accuracy ratio.
        self.is_down: Callable[[int], bool] = lambda node: False
        self._saved: List[Tuple[object, str, object]] = []
        self._layer_cache: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------
    def name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
        return nid

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        post: Optional[Callable[[object, tuple], None]] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        A call re-entering the span it is already in (an override calling
        ``super()``) records no second span.  ``post(result, args)`` sees
        every call's result, for useful-work counters.
        """
        nid = self.name_id(name, layer)
        stack = self._stack
        stack_names = self._stack_names
        names_append = self.span_name.append
        start_append = self.span_start.append
        end_append = self.span_end.append
        parent_append = self.span_parent.append
        ends = self.span_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack_names[-1] == nid:
                return fn(*args, **kwargs)
            index = len(ends)
            names_append(nid)
            parent_append(stack[-1])
            end_append(0.0)
            stack.append(index)
            stack_names.append(nid)
            start_append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                stack_names.pop()
            if post is not None:
                post(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn: Callable, name: str, layer: str) -> Callable:
        """Generator function ``fn`` recording one span per *resume*.

        Calling a generator function only builds the generator; its body
        runs later, a piece per ``next()``, inside whatever span the
        consumer is in.  So each resume becomes a span of ``name`` (a child
        of the consumer's span), and the call itself is counted in
        :attr:`generator_calls`, which :meth:`summary` reports as the
        entry point's calls.
        """
        nid = self.name_id(name, layer)
        self.generator_calls.setdefault(nid, 0)
        generator_calls = self.generator_calls
        stack = self._stack
        stack_names = self._stack_names
        names_append = self.span_name.append
        start_append = self.span_start.append
        end_append = self.span_end.append
        parent_append = self.span_parent.append
        ends = self.span_end
        clock = time.perf_counter

        def resumed(generator):
            try:
                while True:
                    index = len(ends)
                    names_append(nid)
                    parent_append(stack[-1])
                    end_append(0.0)
                    stack.append(index)
                    stack_names.append(nid)
                    start_append(clock())
                    try:
                        item = next(generator)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        ends[index] = clock()
                        stack.pop()
                        stack_names.pop()
                    yield item
            finally:
                generator.close()

        def traced(*args, **kwargs):
            generator_calls[nid] += 1
            return resumed(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def callback_layer(self, fn: Callable) -> str:
        """The layer a scheduled callback's work belongs to."""
        owner = getattr(fn, "__self__", None)
        if owner is not None and type(owner).__name__ in ("PeriodicTimer", "VariableTimer"):
            # Engine-agnostic timer helpers: the work is their callback's.
            fn = owner._callback
        module = getattr(fn, "__module__", None) or ""
        layer = self._layer_cache.get(module)
        if layer is None:
            layer = self._layer_cache[module] = layer_of_module(module)
        return layer

    def wrap_callback(self, fn: Callable, engine: str = "sim") -> Callable:
        """``fn`` as a span of its own layer, counted as an ``engine``
        timer firing."""
        layer = self.callback_layer(fn)
        key = f"{engine}.timer.calls"
        counts = self.counts

        def fired(result, args) -> None:
            counts[key] = counts.get(key, 0) + 1

        return self.wrap(fn, f"{layer}.callback", layer, fired)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _patch_method(self, cls, attr: str, name: str, layer: str, post=None) -> None:
        fn = cls.__dict__[attr]
        if inspect.isgeneratorfunction(fn):
            if post is not None:
                raise ValueError(f"{name}: a generator's calls have no result to inspect")
            self._patch(cls, attr, self.wrap_generator(fn, name, layer))
        else:
            self._patch(cls, attr, self.wrap(fn, name, layer, post))

    def install(self) -> None:
        """Patch every traced entry point (see the module docstring)."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        import repro.experiments.runner as runner
        import repro.runtime.realtime as realtime
        from repro.core.election.base import ElectionAlgorithm
        from repro.core.group import MembershipView
        from repro.core.service import GroupRuntime, LeaderElectionService
        from repro.fd.configurator import ConfiguratorCache
        from repro.fd.estimator import LinkQualityEstimator
        from repro.fd.monitor import NfdsMonitor
        from repro.fd.plane import NodeFdPlane
        from repro.fd.swim import SwimFdPlane
        from repro.lease.client import LeaseClient
        from repro.lease.ledger import LeaseLedger
        from repro.lease.manager import LeaseManager
        from repro.metrics.trace import TraceRecorder
        from repro.metrics.usage import UsageMeter
        from repro.net.network import Network
        from repro.net.node import Node
        from repro.sim.engine import Simulator
        from repro.sim.vector import DeadlinePool

        patch = self._patch_method
        count = self.count

        # sim: the run loop, and every scheduled callback by its module.
        patch(Simulator, "run_until", "sim.run_until", "sim")
        schedule = Simulator.__dict__["schedule"]
        schedule_at = Simulator.__dict__["schedule_at"]
        register = DeadlinePool.__dict__["register"]
        arm = realtime.RealtimeScheduler.__dict__["_arm"]
        wrap_callback = self.wrap_callback

        def sim_schedule(sim, delay, fn, *args):
            return schedule(sim, delay, wrap_callback(fn), *args)

        def sim_schedule_at(sim, when, fn, *args):
            return schedule_at(sim, when, wrap_callback(fn), *args)

        def pool_register(pool, callback):
            return register(pool, wrap_callback(callback))

        lag = self.timer_lag

        def realtime_arm(scheduler, fire_time, delay, fn, args=()):
            inner = wrap_callback(fn, "runtime")

            def late(*call_args):
                lag.append(time.time() - fire_time)
                return inner(*call_args)

            return arm(scheduler, fire_time, delay, late, args)

        self._patch(Simulator, "schedule", sim_schedule)
        self._patch(Simulator, "schedule_at", sim_schedule_at)
        self._patch(DeadlinePool, "register", pool_register)
        self._patch(realtime.RealtimeScheduler, "_arm", realtime_arm)

        # net
        patch(Network, "send", "net.send", "net")
        patch(Network, "send_batch", "net.send_batch", "net")
        patch(Node, "deliver", "net.deliver", "net")

        # runtime: the codec, patched where the transport looks it up.
        for attr, name in (
            ("encode_message", "runtime.encode"),
            ("encode_message_into", "runtime.encode"),
            ("decode_message", "runtime.decode"),
        ):
            self._patch(realtime, attr, self.wrap(getattr(realtime, attr), name, "runtime"))

        # fd
        for plane in (NodeFdPlane, SwimFdPlane):
            layer = "fd" if plane is NodeFdPlane else "fd.swim"
            patch(plane, "observe_frame", f"{layer}.observe_frame", layer)

            def suspected(result, args):
                count("fd.suspect.calls")
                if self.is_down(args[1]):
                    count("fd.suspect.accurate")

            patch(plane, "_fan_suspect", "fd.suspect", "fd", suspected)
        for monitor in _subclasses_defining(NfdsMonitor, "on_alive"):
            patch(monitor, "on_alive", "fd.monitor.on_alive", "fd")
        patch(LinkQualityEstimator, "observe", "fd.estimator.observe", "fd")
        configure = ConfiguratorCache.__dict__["configure"]

        def cached_configure(cache, qos, estimate):
            misses = cache.misses
            result = configure(cache, qos, estimate)
            if cache.misses != misses:
                count("fd.configure.misses")
            return result

        self._patch(
            ConfiguratorCache,
            "configure",
            self.wrap(cached_configure, "fd.configure", "fd"),
        )
        for attr in ("on_ping", "on_ping_req", "on_ack", "apply_updates"):
            patch(SwimFdPlane, attr, f"fd.swim.{attr}", "fd.swim")

        # core.group
        def merged(key):
            def post(result, args):
                if result:
                    count(key)

            return post

        patch(
            MembershipView,
            "merge_record",
            "core.group.merge_record",
            "core.group",
            merged("core.group.merge_record.changed"),
        )

        def delta_records(result, args):
            count("core.group.delta_since.records", len(result))

        patch(
            MembershipView, "delta_since", "core.group.delta_since", "core.group", delta_records
        )

        # core.election
        for attr in ("on_alive", "on_suspect", "on_trust", "on_accusation"):
            for algorithm in _subclasses_defining(ElectionAlgorithm, attr):
                patch(algorithm, attr, f"core.election.{attr}", "core.election")

        # core.service (hellos are dispatched through a class-level table)
        patch(
            LeaderElectionService, "handle_message", "core.service.handle_message", "core.service"
        )
        for attr in ("handle_cell", "handle_hello", "emit_cells"):
            patch(GroupRuntime, attr, f"core.service.{attr}", "core.service")
        wrapped = {
            GroupRuntime.__dict__[attr].__wrapped__: GroupRuntime.__dict__[attr]
            for attr in ("handle_hello",)
        }
        dispatch = LeaderElectionService.__dict__["_DISPATCH"]
        self._patch(
            LeaderElectionService,
            "_DISPATCH",
            {kind: wrapped.get(fn, fn) for kind, fn in dispatch.items()},
        )

        # lease
        def decided(result, args):
            if result is not None and result.status == "granted":
                count("lease.manager.handle.granted")

        patch(LeaseManager, "handle", "lease.manager.handle", "lease", decided)
        patch(
            LeaseLedger,
            "merge_record",
            "lease.ledger.merge_record",
            "lease",
            merged("lease.ledger.merge_record.changed"),
        )
        patch(LeaseClient, "_start", "lease.client.op", "lease")
        patch(LeaseClient, "_send", "lease.client.submit", "lease")

        # metrics
        patch(UsageMeter, "on_send", "metrics.usage.on_send", "metrics")
        patch(UsageMeter, "on_receive", "metrics.usage.on_receive", "metrics")
        for attr in [a for a in TraceRecorder.__dict__ if a.startswith("record_")]:
            patch(TraceRecorder, attr, "metrics.trace.record", "metrics")

        # experiments: build_system, looked up on its module by the workloads.
        self._patch(
            runner,
            "build_system",
            self.wrap(runner.build_system, "experiments.build_system", "experiments"),
        )

    def restore(self) -> None:
        """Put back every patched attribute, newest patch first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.frombuffer(self.span_name, dtype=np.uint16),
            np.frombuffer(self.span_start, dtype=np.float64),
            np.frombuffer(self.span_end, dtype=np.float64),
            np.frombuffer(self.span_parent, dtype=np.int32),
        )

    def summary(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, self seconds)`` over every recorded span, plus
        one ``<layer>.self_s`` total per layer."""
        name_id, start, end, parent = self.arrays()
        calls, seconds = self_times(name_id, start, end, parent, len(self.names))
        out: Dict[str, Tuple[int, float]] = {}
        layer_total: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        for nid, name in enumerate(self.names):
            out[name] = (self.generator_calls.get(nid, int(calls[nid])), float(seconds[nid]))
            layer = self.name_layer[nid]
            layer_total[layer] = layer_total.get(layer, 0.0) + float(seconds[nid])
        for layer, total in layer_total.items():
            out[f"{layer}.self_s"] = (0, total)
        return out

    def write_spans(self, path: Path) -> None:
        """Write every span once, as one compressed-free ``.npz`` file."""
        name_id, start, end, parent = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=name_id,
            start=start,
            end=end,
            parent=parent,
        )


def _subclasses_defining(base: type, attr: str) -> List[type]:
    """``base`` and every (transitive) subclass whose own body defines ``attr``."""
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if attr in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found
