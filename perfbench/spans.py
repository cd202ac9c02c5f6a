"""Spans recorded around the calls into spinsplit's layers, and the per-layer
figures derived from them.

The wrappers are installed from outside the package (nothing under ``src/``
knows about tracing).  Each span is ``(name, start, end, parent)`` with
``parent`` the index of the enclosing span or -1; spans stay in memory and are
written out once when the traced process ends.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

RUN = "propagation.run"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._stack: list = []

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, only_under: str | None = None):
        """fn inside a span called name; with only_under, only when the
        enclosing span is named only_under (other calls pass straight through)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if only_under is not None and self.current() != only_under:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def count(self, name: str, fn):
        """fn with its calls counted; its time stays with the caller's span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def install(tracer: Tracer, cli, spinsplit) -> None:
    """Wrap the public entry points of every layer the per-layer metrics name."""
    import numpy

    fields, propagation, states = spinsplit.fields, spinsplit.propagation, spinsplit.states
    observables = spinsplit.observables

    cli.run_scenario = tracer.wrap(RUN, cli.run_scenario)
    cli.load_scenario = tracer.wrap("scenario.load", cli.load_scenario)
    cli.analytic_prediction = tracer.wrap("analytic.predict", cli.analytic_prediction)
    for name in ("timeseries_csv", "snapshot_csv", "snapshot_binary"):
        setattr(cli, name, tracer.wrap("cli.write", getattr(cli, name)))
    cli._write = tracer.wrap("cli.write", cli._write)

    # An FFT directly under the runner is a kinetic step; the FFTs inside
    # momentum_amplitudes and harmonics stay with those layers.  eigvalsh
    # directly under the runner is the grid runner's inline entropy.
    numpy.fft.fft = tracer.wrap("propagation.kinetic_fft", numpy.fft.fft, only_under=RUN)
    numpy.fft.ifft = tracer.wrap("propagation.kinetic_fft", numpy.fft.ifft, only_under=RUN)
    numpy.linalg.eigvalsh = tracer.wrap("observables.entropy", numpy.linalg.eigvalsh,
                                        only_under=RUN)

    fields.Envelope.value = tracer.wrap("fields.envelope", fields.Envelope.value)
    fields.vector_potential = tracer.wrap("fields.eval", fields.vector_potential)
    fields.magnetic_field = tracer.wrap("fields.eval", fields.magnetic_field)

    engine = propagation.ModeLatticeEngine
    engine.gl2_step = tracer.wrap("propagation.gl2", engine.gl2_step)
    engine.harmonics = tracer.wrap("propagation.harmonics", engine.harmonics)
    propagation._apply_potential = tracer.count("potential_applies",
                                                propagation._apply_potential)

    wf = states.SpinorWavefunction
    wf.momentum_amplitudes = tracer.wrap("states.momentum_fft", wf.momentum_amplitudes)

    entropy = tracer.wrap("observables.entropy", observables.spin_momentum_entanglement)
    for module in (observables, propagation, cli):
        module.spin_momentum_entanglement = entropy
    observables.fit_rabi = tracer.wrap("observables.fit_rabi", observables.fit_rabi)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its child spans cover.  Spans of
    one thread nest, so the children of a span never overlap."""
    own = [end - start for _, start, end, _ in spans]
    out = list(own)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            out[parent] -= own[i]
    return out


def layer_totals(spans) -> dict:
    """name -> (calls, total self time, total inclusive time)."""
    totals: dict = defaultdict(lambda: [0, 0.0, 0.0])
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        entry = totals[name]
        entry[0] += 1
        entry[1] += own
        entry[2] += end - start
    return {name: tuple(v) for name, v in totals.items()}
