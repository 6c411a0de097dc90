"""Layer spans recorded from outside the program.

A :class:`Tracer` wraps the public functions and methods listed in
:data:`TARGETS` for as long as it is installed, and restores the originals
when uninstalled; the program's source is never edited.  A function target
is rebound in *every* loaded ``repro`` module that holds it, so callers that
did ``from repro.data.datasets import load_dataset`` are traced too.

Spans live in memory (one small list per span) and are summarised when the
benchmark ends.  ``SimulationEnvironment.step`` is deliberately not
wrapped: it runs once per event, and the event loop's own time is derived
by subtraction (:meth:`Tracer.self_seconds`).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

_MEMBERSHIP = "simulation.cluster.membership"
_HYDRATE = "simulation.virtual_pool.hydrate"


def _lanes(args: tuple) -> int:
    # BatchedModel.train_step(self, x, y, ...): x is (lanes, batch, ...).
    return int(args[1].shape[0])


#: (defining module, attribute path, span name, units counter or None).
#: A units counter maps the call's positional arguments to a work count
#: accumulated as ``<span name>.units``.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.fl.runtime", "build_experiment", "fl.runtime.build_experiment", None),
    ("repro.data.datasets", "load_dataset", "data.load_dataset", None),
    ("repro.data.partition", "plan_partition", "data.plan_partition", None),
    ("repro.nn.model", "SplitCNN.train_batch", "nn.train_batch", None),
    ("repro.nn.model", "SplitCNN.evaluate", "nn.evaluate", None),
    ("repro.nn.batched", "BatchedModel.train_step", "nn.batched.train_step", _lanes),
    ("repro.fl.federator", "BaseFederator.aggregate", "fl.aggregate", None),
    ("repro.fl.transport", "DirectTransport.send", "fl.transport.send", None),
    ("repro.fl.transport", "ReliableTransport.send", "fl.transport.send", None),
    ("repro.fl.checkpoint", "capture_snapshot", "fl.checkpoint.capture", None),
    ("repro.fl.checkpoint", "write_checkpoint", "fl.checkpoint.write", None),
    ("repro.api.store", "RunWriter.append", "api.store.append", None),
    ("repro.core.scheduler", "schedule_offloading", "core.schedule_offloading", None),
    ("repro.simulation.cluster", "SimulatedCluster.set_client_offline", _MEMBERSHIP, None),
    ("repro.simulation.cluster", "SimulatedCluster.set_client_online", _MEMBERSHIP, None),
    ("repro.simulation.virtual_pool", "VirtualClientPool.hydrate", _HYDRATE, None),
    ("repro.serve.protocol", "parse_jsonl_body", "serve.parse_jsonl", None),
    ("repro.serve.server", "ExperimentServer.checkin", "serve.checkin", None),
    ("repro.serve.session", "SessionManager.checkin", "serve.session.checkin", None),
)

#: Per-layer metric -> (span name, summary field) for the metrics read
#: straight off the spans.
SPAN_METRICS: Dict[str, Tuple[str, str]] = {
    "data.load_dataset.s": ("data.load_dataset", "s"),
    "data.plan_partition.s": ("data.plan_partition", "s"),
    "fl.runtime.build_experiment.s": ("fl.runtime.build_experiment", "s"),
    "nn.train_batch.s": ("nn.train_batch", "s"),
    "nn.train_batch.calls": ("nn.train_batch", "calls"),
    "nn.batched.train_step.s": ("nn.batched.train_step", "s"),
    "nn.batched.train_step.calls": ("nn.batched.train_step", "calls"),
    "nn.batched.train_step.lanes": ("nn.batched.train_step", "units"),
    "nn.evaluate.s": ("nn.evaluate", "s"),
    "nn.evaluate.calls": ("nn.evaluate", "calls"),
    "fl.aggregate.s": ("fl.aggregate", "s"),
    "fl.transport.send.s": ("fl.transport.send", "s"),
    "fl.transport.sends": ("fl.transport.send", "calls"),
    "fl.checkpoint.capture.s": ("fl.checkpoint.capture", "s"),
    "fl.checkpoint.write.s": ("fl.checkpoint.write", "s"),
    "fl.checkpoint.writes": ("fl.checkpoint.write", "calls"),
    "api.store.append.s": ("api.store.append", "s"),
    "core.schedule_offloading.s": ("core.schedule_offloading", "s"),
    "simulation.cluster.membership.s": ("simulation.cluster.membership", "s"),
    "simulation.cluster.membership.calls": ("simulation.cluster.membership", "calls"),
    "simulation.virtual_pool.hydrate.s": ("simulation.virtual_pool.hydrate", "s"),
    "simulation.virtual_pool.hydrate.calls": ("simulation.virtual_pool.hydrate", "calls"),
    "serve.checkin.s": ("serve.checkin", "s"),
    "serve.checkin.calls": ("serve.checkin", "calls"),
    "serve.parse_jsonl.s": ("serve.parse_jsonl", "s"),
    "serve.session.checkin.s": ("serve.session.checkin", "s"),
}


def span_layers(totals: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """The span-derived per-layer metrics (0 for a layer that never ran),
    plus the lockstep share: lockstep client-batches over all of them."""
    layers = {
        metric: float(totals.get(span, {}).get(field, 0.0))
        for metric, (span, field) in SPAN_METRICS.items()
    }
    lockstep = layers["nn.batched.train_step.lanes"]
    everything = lockstep + layers["nn.train_batch.calls"]
    layers["nn.batched.lockstep_share"] = lockstep / everything if everything else 0.0
    return layers


# Span record fields: [name, start, end, parent index, counted, units].
_NAME, _START, _END, _PARENT, _COUNTED, _UNITS = range(6)


class Tracer:
    """Records nested, per-thread spans around the :data:`TARGETS`."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        # Spans come from several threads in the server; an index must be
        # taken and its record appended as one step, or two spans share it.
        self._append = threading.Lock()
        self._saved: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str, units: int) -> int:
        stack = self._stack()
        # Only the outermost span of a name counts towards its totals, so a
        # recursive or re-entrant layer is never counted twice.
        counted = all(self.spans[index][_NAME] != name for index in stack)
        record = [name, None, None, stack[-1] if stack else -1, counted, units]
        with self._append:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[_START] = time.perf_counter()
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self._enter(name, 0)
        try:
            yield index
        finally:
            self._exit(index)

    def _wrap(self, original: Callable, name: str, units: Optional[Callable]) -> Callable:
        enter, leave = self._enter, self._exit

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = enter(name, units(args) if units is not None else 0)
            try:
                return original(*args, **kwargs)
            finally:
                leave(index)

        return traced

    # ------------------------------------------------------------- patching
    def install(self) -> None:
        """Wrap every target; idempotent per tracer."""
        if self._saved:
            return
        for module_name, path, name, units in TARGETS:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            if owner_path:
                owner = getattr(module, owner_path)
                self._patch(owner, attr, self._wrap(vars(owner)[attr], name, units))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, units)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name.split(".")[0] == "repro" and getattr(loaded, attr, None) is original:
                    self._patch(loaded, attr, wrapped)

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every original back (reverse order, so doubles unwind)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ summaries
    def totals(
        self, since: float = float("-inf"), until: float = float("inf")
    ) -> Dict[str, Dict[str, float]]:
        """Per span name: inclusive seconds, calls and units, for finished
        outermost spans that started inside ``[since, until)``."""
        out: Dict[str, Dict[str, float]] = {}
        for name, start, end, _, counted, units in self.spans:
            if not counted or end is None or not since <= start < until:
                continue
            entry = out.setdefault(name, {"s": 0.0, "calls": 0, "units": 0})
            entry["s"] += end - start
            entry["calls"] += 1
            entry["units"] += units
        return out

    def self_seconds(self, index: int) -> float:
        """A span's duration minus the time its direct children cover."""
        span = self.spans[index]
        children = sum(
            s[_END] - s[_START]
            for s in self.spans[index + 1 :]
            if s[_PARENT] == index and s[_END] is not None
        )
        return span[_END] - span[_START] - children

    def duration(self, index: int) -> float:
        return self.spans[index][_END] - self.spans[index][_START]
