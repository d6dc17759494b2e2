"""Trace the harness layers from outside the package.

``run_and_emit`` looks up ``run_experiment``, ``emit_convergence``,
``emit_summary`` and ``ALGORITHMS[a]`` in the harness module at call time, so
swapping them for timing wrappers traces a real call without changing the
package.  Each algorithm call gets a timing proxy for its benchmark spec: the
time spent in ``evaluate`` is summed into the run's span instead of being
stored as one span per evaluation.

Worker processes (``jobs > 1``) inherit the wrappers through ``fork`` and send
their run span back inside the returned record, so spans are kept in memory
and handed over with the results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

from beetleopt import harness
from beetleopt.stats import RunRecord

_HARNESS_CALLS = ("run_experiment", "emit_convergence", "emit_summary")


@dataclass(frozen=True)
class TracedRecord(RunRecord):
    """A ``RunRecord`` that carries its run span back to the main process."""

    span: dict = field(default=None, compare=False)


class TimedSpec:
    """Benchmark-spec proxy that counts evaluations and sums their time."""

    def __init__(self, spec):
        self._spec = spec
        self.seconds = 0.0
        self.calls = 0

    def space(self):
        return self._spec.space()

    def evaluate(self, position, rng=None):
        start = time.perf_counter()
        value = self._spec.evaluate(position, rng)
        self.seconds += time.perf_counter() - start
        self.calls += 1
        return value


def _traced_algorithm(algorithm, run):
    def traced(config, spec):
        proxy = TimedSpec(spec)
        start = time.perf_counter()
        record = run(config, proxy)
        end = time.perf_counter()
        span = {
            "name": f"{algorithm}.run",
            "parent": "harness.run_experiment",
            "start": start,
            "end": end,
            "algorithm": algorithm,
            "function": config.benchmark,
            "seed": config.seed,
            "objective_s": proxy.seconds,
            "evaluations": proxy.calls,
        }
        return TracedRecord(**{f.name: getattr(record, f.name) for f in fields(record)}, span=span)

    return traced


class Tracer:
    """Installs the wrappers, keeps the spans, and puts the originals back."""

    def __init__(self):
        self.spans = []
        self._saved_calls = {}
        self._saved_algorithms = {}

    def span(self, name, parent, start, end):
        self.spans.append({"name": name, "parent": parent, "start": start, "end": end})

    def install(self):
        for name in _HARNESS_CALLS:
            original = getattr(harness, name)
            self._saved_calls[name] = original
            setattr(harness, name, self._wrap(f"harness.{name}", original))
        self._saved_algorithms = dict(harness.ALGORITHMS)
        for algorithm, run in self._saved_algorithms.items():
            harness.ALGORITHMS[algorithm] = _traced_algorithm(algorithm, run)

    def restore(self):
        for name, original in self._saved_calls.items():
            setattr(harness, name, original)
        harness.ALGORITHMS.update(self._saved_algorithms)

    def _wrap(self, name, call):
        def wrapped(*args, **kwargs):
            start = time.perf_counter()
            out = call(*args, **kwargs)
            self.span(name, "harness.run_and_emit", start, time.perf_counter())
            if name == "harness.run_experiment":
                for record in out.records:
                    if not isinstance(record, TracedRecord):
                        raise RuntimeError("a run came back without its span (workers not forked?)")
                    self.spans.append(record.span)
            return out

        return wrapped
