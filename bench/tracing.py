"""In-memory spans around calls into each tqsim module.

The benchmark traces tqsim from outside: :func:`patched` swaps the module
attributes through which tqsim's layers call each other for wrappers that
record a span per call, and puts the originals back afterwards.  No source
file of tqsim is touched.  Spans made inside forked pool workers stay in
those workers, so traced rounds run in-process.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import time
import types
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name, counter): every boundary the trace records.
# A counter maps the call's arguments to the work counts recorded on the span.
BOUNDARIES = (
    ("tqsim.cli", "load_spec", "experiments.load_spec", None),
    ("tqsim.cli", "validate_spec", "experiments.validate_spec", None),
    ("tqsim.cli", "run_experiment", "montecarlo.run_experiment", None),
    ("tqsim.cli", "run_payload", "montecarlo.run_payload", None),
    ("tqsim.experiments", "load_spec", "experiments.load_spec", None),
    ("tqsim.experiments", "validate_spec", "experiments.validate_spec", None),
    ("tqsim.program", "compile_program", "program.compile_program", None),
    (
        "tqsim.program",
        "check_bilking",
        "engine.check_bilking",
        lambda ledger, *_: {"events": len(ledger.events)},
    ),
    ("tqsim.montecarlo", "run_experiment", "montecarlo.run_experiment", None),
    ("tqsim.montecarlo", "run_payload", "montecarlo.run_payload", None),
    ("tqsim.montecarlo", "compile_program", "program.compile_program", None),
    (
        "tqsim.montecarlo",
        "classify_counts",
        "program.classify_counts",
        lambda program, uniforms: {
            "rows": uniforms.shape[0],
            "draws": uniforms.shape[0] * program.draws,
        },
    ),
    (
        "tqsim.montecarlo",
        "trial_uniforms",
        "montecarlo.trial_uniforms",
        lambda seed, start, stop, padded: {"values": (stop - start) * padded},
    ),
)


class Tracer:
    """Spans (name, start, end, parent index, counts) kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, dict]] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, counts: dict | None = None):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, counts or {}))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            name, start, _, parent, counts = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent, counts)

    def wrap(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            with self.span(name, counter(*args, **kwargs) if counter else None):
                return fn(*args, **kwargs)

        return traced

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return dict(out)

    def self_times(self) -> dict[str, float]:
        """Summed duration per span name, minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return dict(out)

    def counts(self) -> dict[str, int]:
        """Summed work counts per ``span name.counter``."""
        out: dict[str, int] = defaultdict(int)
        for name, _, _, _, counts in self.spans:
            for key, value in counts.items():
                out[f"{name}.{key}"] += value
        return dict(out)


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route every call across a layer boundary through ``tracer``."""
    saved = []
    try:
        for module_name, attr, name, counter in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, counter))
        # The CLI serializes its payload with json.dumps; trace that call alone.
        cli = importlib.import_module("tqsim.cli")
        saved.append((cli, "json", cli.json))
        cli.json = types.SimpleNamespace(dumps=tracer.wrap("json.dumps", json.dumps))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def write_spans(path: Path, sections: dict[str, Tracer], header: dict) -> None:
    """Write every section's spans, with the run's header, as one JSON file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    spans = [
        {"section": section, "name": n, "start": s, "end": e, "parent": p, "counts": c}
        for section, tracer in sections.items()
        for n, s, e, p, c in tracer.spans
    ]
    path.write_text(json.dumps({"header": header, "spans": spans}) + "\n")
