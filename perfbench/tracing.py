"""Spans around the calls into each layer of nystream, recorded from outside.

Each public function of interest is replaced by a timing wrapper wherever it
is bound: in the module that defines it and in every nystream module that
imported it by name (``pipeline`` imports ``pairwise``, ``estimate_rls_batch``
and the rest that way).  Methods are replaced on their class.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

import nystream

# Layer (module under src/nystream/) -> public names wrapped in that layer.
LAYERS = {
    "kernels": ("pairwise", "evaluate", "gram"),
    "linalg": (
        "symmetrize", "regularized_solve", "solve_shifted_indefinite",
        "eig_pairs", "spectral_norm", "psd_order_check", "min_eigenvalue", "validate_psd",
    ),
    "leverage": (
        "exact_rls", "estimate_rls_batch", "estimate_deff_increment",
        "update_deff", "clamp_probabilities",
    ),
    "nystrom": ("NystromFactor.materialize", "nystrom_approx", "build_selection"),
    "sampling": ("shrink_expand", "RngHandle.chain_stream", "selection_weights"),
    "pipeline": (
        "EstimateOracle.begin_step", "ExactOracle.begin_step", "ink_step",
        "ink_estimate_run", "ink_oracle_run",
    ),
    "evaluation": ("verify_checkpoints", "check_condition", "psi_gap", "fixed_design_risk"),
}

EIG_CALLS = tuple(
    f"linalg.{n}" for n in ("psd_order_check", "spectral_norm", "validate_psd", "eig_pairs", "min_eigenvalue")
)
RUN_CALLS = ("pipeline.ink_estimate_run", "pipeline.ink_oracle_run")


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int  # -1 at the top level
    group: object  # step index, "verify:<t>", or None between steps


class Tracer:
    """Collects spans; ``group`` is set from outside (step or checkpoint id)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.group: object = None
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn, after=None):
        """Timing wrapper around ``fn``; ``after(args, result)`` runs once
        the span is closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            group = self.group
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, group))
            if after is not None:
                after(args, result)
            return result

        return traced

    def write(self, path) -> None:
        """One JSON array per span, after a header naming the fields."""
        with open(path, "w") as fh:
            fh.write(json.dumps(list(Span._fields)) + "\n")
            for s in self.spans:
                fh.write(json.dumps(list(s)) + "\n")


def _nystream_modules():
    mods = [nystream]
    for info in pkgutil.iter_modules(nystream.__path__):
        mods.append(importlib.import_module(f"nystream.{info.name}"))
    return mods


@contextmanager
def installed(tracer: Tracer, after: dict | None = None):
    """Swap every name in ``LAYERS`` for its traced wrapper, and put the
    originals back on exit.  ``after`` maps a span name to a callback."""
    after = after or {}
    undo = []
    modules = _nystream_modules()
    try:
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"nystream.{layer}")
            for name in names:
                span_name = f"{layer}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    undo.append((cls, meth, orig))
                    setattr(cls, meth, tracer.wrap(span_name, orig, after.get(span_name)))
                    continue
                orig = getattr(home, name)
                wrapped = tracer.wrap(span_name, orig, after.get(span_name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            undo.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)
        yield tracer
    finally:
        for obj, attr, orig in reversed(undo):
            setattr(obj, attr, orig)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def totals(spans):
    """Per span name: call count, inclusive seconds and self seconds."""
    selfs = self_times(spans)
    calls, incl, excl = defaultdict(int), defaultdict(float), defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        incl[s.name] += s.end - s.start
        excl[s.name] += selfs[s.id]
    return calls, incl, excl


def stream_metrics(spans, n_steps: int) -> dict[str, float]:
    """Per-step layer metrics from the spans of one traced run call."""
    calls, incl, excl = totals(spans)
    ms = 1e3 / n_steps
    out = {
        "pipeline.run.self_ms_per_step": sum(excl[n] for n in RUN_CALLS) * ms,
        "linalg.factorizations_per_step":
            (calls["linalg.regularized_solve"] + calls["linalg.solve_shifted_indefinite"]) / n_steps,
        "linalg.symmetrize.calls_per_step": calls["linalg.symmetrize"] / n_steps,
        "nystrom.materialize.calls_per_step": calls["nystrom.NystromFactor.materialize"] / n_steps,
        "sampling.chain_streams_per_step": calls["sampling.RngHandle.chain_stream"] / n_steps,
    }
    for span in ("pipeline.EstimateOracle.begin_step", "pipeline.ExactOracle.begin_step", "pipeline.ink_step"):
        out[f"{span}.ms_per_step"] = incl[span] * ms
        out[f"{span}.self_ms_per_step"] = excl[span] * ms
    for span in (
        "linalg.symmetrize", "linalg.regularized_solve", "linalg.solve_shifted_indefinite",
        "leverage.estimate_rls_batch", "leverage.estimate_deff_increment",
        "leverage.update_deff", "leverage.clamp_probabilities",
        "nystrom.NystromFactor.materialize", "sampling.shrink_expand",
        "kernels.pairwise", "kernels.evaluate",
    ):
        out[f"{span.replace('NystromFactor.', '')}.ms_per_step"] = incl[span] * ms
    return out


def verify_metrics(spans, n_checkpoints: int) -> dict[str, float]:
    """Per-checkpoint layer metrics from the spans of the verify calls."""
    calls, incl, _ = totals(spans)
    per = 1.0 / n_checkpoints
    out = {
        "linalg.eig_calls_per_checkpoint": sum(calls[n] for n in EIG_CALLS) * per,
        "linalg.eig.s_per_checkpoint": sum(incl[n] for n in EIG_CALLS) * per,
    }
    for span in (
        "leverage.exact_rls", "nystrom.nystrom_approx", "kernels.gram",
        "evaluation.verify_checkpoints", "evaluation.check_condition",
        "evaluation.psi_gap", "evaluation.fixed_design_risk",
    ):
        out[f"{span}.s_per_checkpoint"] = incl[span] * per
    return out
