"""Streaming differential operators.

A :class:`Dataflow` is a DAG of operator nodes exchanging *batches* of
``(record, multiplicity)`` diffs stamped with a
:class:`~repro.dataflow.timestamps.Timestamp`.  The stateful operators
(join and the keyed reductions) maintain hash-indexed traces of their
accumulated inputs and emit only corrections -- the differential
property: work is proportional to affected keys, not collection size.

There are no feedback edges: iterative computations are unrolled into
a fixed chain of stages (see :mod:`repro.dataflow.graph_programs`),
which matches the module-level simplification of totally-ordered
timestamps.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.dataflow.timestamps import Timestamp
from repro.obs import trace
from repro.obs.registry import get_registry

__all__ = ["Dataflow", "Stream", "Probe", "InputSession"]

Record = Tuple
Diff = Tuple[Record, int]
Batch = List[Diff]


def _consolidate(diffs: Iterable[Diff]) -> Batch:
    weights: Counter = Counter()
    for record, mult in diffs:
        weights[record] += mult
    return [(record, mult) for record, mult in weights.items() if mult != 0]


class Dataflow:
    """An operator DAG with epoch/step-stamped batch processing."""

    def __init__(self) -> None:
        self._nodes: List[_Node] = []
        self.current_time = Timestamp(0, 0)
        #: Total diffs processed across all operators -- the engine's
        #: work metric (the analogue of edge computations).
        self.records_processed = 0

    # ------------------------------------------------------------------
    def input(self) -> "InputSession":
        node = _InputNode(self)
        return InputSession(self, node)

    def _register(self, node: "_Node") -> None:
        self._nodes.append(node)

    # ------------------------------------------------------------------
    def advance_epoch(self) -> Timestamp:
        self.current_time = self.current_time.next_epoch()
        return self.current_time

    def run(self) -> None:
        """Process queued batches until every operator is quiescent."""
        before = self.records_processed
        with trace.span("dataflow_run", engine="dataflow",
                        epoch=self.current_time.epoch,
                        step=self.current_time.step) as span:
            progressing = True
            while progressing:
                progressing = False
                for node in self._nodes:
                    if node.pending:
                        node.drain()
                        progressing = True
            processed = self.records_processed - before
            span.tag(records=processed)
        get_registry().counter("dataflow.records_processed").inc(processed)


class Stream:
    """An operator's output; the handle operators are chained on."""

    def __init__(self, dataflow: Dataflow, node: "_Node") -> None:
        self.dataflow = dataflow
        self._node = node
        node.output = self
        self._subscribers: List[Tuple[_Node, int]] = []

    def _subscribe(self, node: "_Node", port: int) -> None:
        self._subscribers.append((node, port))

    def _publish(self, time: Timestamp, diffs: Batch) -> None:
        if not diffs:
            return
        for node, port in self._subscribers:
            node.accept(port, time, diffs)

    # ------------------------------------------------------------------
    # Operator constructors
    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Record], Record]) -> "Stream":
        return _MapNode(self.dataflow, [self], fn).output

    def filter(self, predicate: Callable[[Record], bool]) -> "Stream":
        return _FilterNode(self.dataflow, [self], predicate).output

    def concat(self, other: "Stream") -> "Stream":
        return _ConcatNode(self.dataflow, [self, other]).output

    def join(self, other: "Stream") -> "Stream":
        """Keyed join of ``(k, a)`` with ``(k, b)`` into ``(k, (a, b))``."""
        return _JoinNode(self.dataflow, [self, other]).output

    def reduce(self, fn: Callable[[Record, List[Record]], Iterable[Record]]
               ) -> "Stream":
        """Keyed group-reduce; ``fn(key, values) -> output values``."""
        return _ReduceNode(self.dataflow, [self], fn).output

    def sum_by_key(self) -> "Stream":
        return self.reduce(lambda key, values: [sum(values)])

    def min_by_key(self) -> "Stream":
        return self.reduce(lambda key, values: [min(values)])

    def probe(self) -> "Probe":
        node = _ProbeNode(self.dataflow, [self])
        return Probe(node)


class InputSession:
    """Producer handle for an input collection."""

    def __init__(self, dataflow: Dataflow, node: "_InputNode") -> None:
        self.dataflow = dataflow
        self._node = node
        self.stream = node.output

    def send(self, diffs: Iterable[Diff],
             time: Optional[Timestamp] = None) -> None:
        batch = _consolidate(diffs)
        if not batch:
            return
        stamp = self.dataflow.current_time if time is None else time
        self._node.accept(0, stamp, batch)

    def send_records(self, records: Iterable[Record],
                     time: Optional[Timestamp] = None) -> None:
        self.send(((record, 1) for record in records), time)


class Probe:
    """Accumulated view of a stream (the dataflow's observable output)."""

    def __init__(self, node: "_ProbeNode") -> None:
        self._node = node

    def state(self) -> Dict[Record, int]:
        """Current consolidated multiset."""
        return {
            record: mult
            for record, mult in self._node.accumulated.items()
            if mult != 0
        }


# ----------------------------------------------------------------------
# Nodes
# ----------------------------------------------------------------------
class _Node:
    def __init__(self, dataflow: Dataflow, upstreams: List[Stream]) -> None:
        self.dataflow = dataflow
        self.pending: deque = deque()
        self.output: Optional[Stream] = None
        Stream(dataflow, self)
        for port, upstream in enumerate(upstreams):
            upstream._subscribe(self, port)
        dataflow._register(self)

    def accept(self, port: int, time: Timestamp, diffs: Batch) -> None:
        self.pending.append((port, time, diffs))

    def drain(self) -> None:
        # One ``process`` per (port, time), not per message: a diamond
        # upstream delivers the same change along both arms, and
        # answering each arrival separately doubles the message count
        # at every stage of an unrolled program.
        while self.pending:
            merged: Dict[Tuple[int, Timestamp], Batch] = {}
            while self.pending:
                port, time, diffs = self.pending.popleft()
                merged.setdefault((port, time), []).extend(diffs)
            for (port, time), diffs in merged.items():
                diffs = _consolidate(diffs)
                if diffs:
                    self.dataflow.records_processed += len(diffs)
                    self.process(port, time, diffs)

    def process(self, port: int, time: Timestamp, diffs: Batch) -> None:
        raise NotImplementedError

    def emit(self, time: Timestamp, diffs: Iterable[Diff]) -> None:
        self.output._publish(time, _consolidate(diffs))


class _InputNode(_Node):
    def __init__(self, dataflow: Dataflow) -> None:
        super().__init__(dataflow, [])

    def accept(self, port: int, time: Timestamp, diffs: Batch) -> None:
        # Inputs forward immediately; they are the DAG sources.
        self.dataflow.records_processed += len(diffs)
        self.emit(time, diffs)


class _MapNode(_Node):
    def __init__(self, dataflow, upstreams, fn):
        super().__init__(dataflow, upstreams)
        self._fn = fn

    def process(self, port, time, diffs):
        self.emit(time, [(self._fn(record), mult) for record, mult in diffs])


class _FilterNode(_Node):
    def __init__(self, dataflow, upstreams, predicate):
        super().__init__(dataflow, upstreams)
        self._predicate = predicate

    def process(self, port, time, diffs):
        self.emit(
            time,
            [(record, mult) for record, mult in diffs
             if self._predicate(record)],
        )


class _ConcatNode(_Node):
    def process(self, port, time, diffs):
        self.emit(time, diffs)


class _ProbeNode(_Node):
    def __init__(self, dataflow, upstreams):
        super().__init__(dataflow, upstreams)
        self.accumulated: Counter = Counter()

    def process(self, port, time, diffs):
        for record, mult in diffs:
            self.accumulated[record] += mult


class _JoinNode(_Node):
    """Differential binary join over (key, value) records.

    Each arriving batch joins against the *other* side's current trace
    and is then folded into its own trace; processing batches in arrival
    order realises dA⋈B + (A+dA)⋈dB = dA⋈B + A⋈dB + dA⋈dB.
    """

    def __init__(self, dataflow, upstreams):
        super().__init__(dataflow, upstreams)
        self._traces: List[Dict] = [{}, {}]

    def process(self, port, time, diffs):
        other = self._traces[1 - port]
        mine = self._traces[port]
        out: Batch = []
        for (key, value), mult in diffs:
            for other_value, other_mult in other.get(key, {}).items():
                if port == 0:
                    pair = (key, (value, other_value))
                else:
                    pair = (key, (other_value, value))
                out.append((pair, mult * other_mult))
            bucket = mine.setdefault(key, Counter())
            bucket[value] += mult
            if bucket[value] == 0:
                del bucket[value]
                if not bucket:
                    del mine[key]
        self.emit(time, out)


class _ReduceNode(_Node):
    """Differential group-by-key reduction.

    Maintains the per-key input multiset and the last emitted outputs;
    dirty keys are re-reduced and corrections (retract old, assert new)
    are emitted.
    """

    def __init__(self, dataflow, upstreams, fn):
        super().__init__(dataflow, upstreams)
        self._fn = fn
        self._inputs: Dict = {}
        self._outputs: Dict = {}

    def process(self, port, time, diffs):
        dirty = set()
        for (key, value), mult in diffs:
            bucket = self._inputs.setdefault(key, Counter())
            bucket[value] += mult
            if bucket[value] == 0:
                del bucket[value]
                if not bucket:
                    del self._inputs[key]
            dirty.add(key)
        out: Batch = []
        for key in dirty:
            bucket = self._inputs.get(key)
            if bucket is not None:
                if any(mult < 0 for mult in bucket.values()):
                    raise ValueError(
                        "reduce saw a negative multiplicity; feed it "
                        "positive collections"
                    )
                values: List = []
                for value, mult in bucket.items():
                    values.extend([value] * mult)
                new_out = Counter(
                    self._fn(key, sorted(values, key=repr))
                )
            else:
                new_out = Counter()
            old_out = self._outputs.get(key, Counter())
            if new_out != old_out:
                for value, mult in old_out.items():
                    out.append(((key, value), -mult))
                for value, mult in new_out.items():
                    out.append(((key, value), mult))
                if new_out:
                    self._outputs[key] = new_out
                else:
                    self._outputs.pop(key, None)
        self.emit(time, out)
