"""In-memory spans and counts for the traced benchmark run.

A span is recorded around each public call the benchmark makes into a layer:
its name, start, end, parent span and item id, plus the work it was given
(events, records, frames). Counts are per-input facts (records, windows,
chunks...) kept once per input, so their totals do not depend on how many
times a run cycles through its inputs. Untraced runs use ``NullTracer``,
which has the same interface and records nothing.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

_NULL = nullcontext()


class NullTracer:
    enabled = False
    item = None
    input = None

    def span(self, name: str):
        return _NULL

    def work(self, **amounts) -> None:
        pass

    def count(self, key: str, value: float) -> None:
        pass


class Tracer(NullTracer):
    enabled = True

    def __init__(self):
        # [name, start, end, parent index or -1, item id, work dict]
        self.spans: list[list] = []
        self.counts: dict[str, dict] = defaultdict(dict)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        record = [name, perf_counter(), None, parent, self.item, {}]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def work(self, **amounts) -> None:
        self.spans[self._open[-1]][5].update(amounts)

    def count(self, key: str, value: float) -> None:
        """Record a per-input fact; repeated values for one input keep the largest."""
        per_input = self.counts[key]
        per_input[self.input] = max(value, per_input.get(self.input, value))

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_seconds(self, name: str) -> float:
        """Median over the items that call it of the self time spent in spans called name."""
        per_item: dict = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            if span[0] == name:
                per_item[span[4]] += own
        return statistics.median(per_item.values()) if per_item else 0.0

    def rate(self, name: str, unit: str) -> float:
        """Total work unit per second of self time, over all spans called name."""
        amount = seconds = 0.0
        for span, own in zip(self.spans, self.self_times()):
            if span[0] == name:
                amount += span[5].get(unit, 0)
                seconds += own
        return amount / seconds if seconds else 0.0

    def total(self, key: str) -> float:
        """Sum of a count over the inputs that recorded it."""
        return sum(self.counts[key].values()) if key in self.counts else 0

    def peak(self, key: str) -> float:
        return max(self.counts[key].values()) if key in self.counts else 0

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "item": i, "work": w}
                for n, s, e, p, i, w in self.spans
            ],
            "counts": {key: {str(k): v for k, v in d.items()} for key, d in self.counts.items()},
        }
