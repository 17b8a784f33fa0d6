"""Span tracer for the traced benchmark run.

Spans are recorded from outside the package: `installed()` replaces the
public names listed in PATCHES, at the place their callers look them
up, with wrappers that time each call, and puts the originals back on
exit.  Spans stay in memory, each with its op id and parent span, and
are written out once the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path

from ufbwiener import algebra, cli, harness, properties, wiener


def _count_roots(counts, args, ws) -> None:
    counts["wiener.roots_total"] += len(ws.poles) + len(ws.cancelled_roots)
    counts["wiener.roots_cancelled"] += len(ws.cancelled_roots)


def _count_iters(counts, args, trace) -> None:
    counts["adaptive.iters"] += trace.n_iters


def _count_bytes(counts, args, _) -> None:
    outdir = Path(args[1])  # ExperimentResult.write(self, outdir)
    counts["harness.bytes_written"] += sum(
        p.stat().st_size for p in outdir.iterdir() if p.is_file())


def _count_cases(counts, args, result) -> None:
    counts["properties.cases"] += result.cases


# (owner, attribute, span name, counter): one entry per lookup site.
PATCHES = [
    (cli, "main", "cli.main", None),
    (cli, "run_experiment", "harness.run_experiment", None),
    (cli, "wiener_solve", "wiener.wiener_solve", _count_roots),
    (harness, "wiener_solve", "wiener.wiener_solve", _count_roots),
    (properties, "wiener_solve", "wiener.wiener_solve", _count_roots),
    (cli, "reconstruction_check", "wiener.reconstruction_check", None),
    (wiener, "analysis_psd", "spectra.analysis_psd", None),
    (properties, "analysis_psd", "spectra.analysis_psd", None),
    (wiener, "cross_psd", "spectra.cross_psd", None),
    (wiener, "run_analysis", "spectra.run_analysis", None),
    (harness, "run_analysis", "spectra.run_analysis", None),
    (algebra.PolyMatrix, "det_adjugate", "algebra.PolyMatrix.det_adjugate", None),
    (algebra.PolyMatrix, "__matmul__", "algebra.PolyMatrix.matmul", None),
    (wiener, "poly_roots", "algebra.poly_roots", None),
    (algebra, "poly_roots", "algebra.poly_roots", None),
    (wiener.WienerSolution, "reduced", "wiener.WienerSolution.reduced", None),
    (wiener.WienerSolution, "impulse_responses",
     "wiener.WienerSolution.impulse_responses", None),
    (properties, "theorem1_det", "wiener.theorem1_det", None),
    (properties, "submatrix_det_bruteforce", "wiener.submatrix_det_bruteforce", None),
    (harness, "generate_wss", "harness.generate_wss", None),
    (harness, "run_adaptation", "adaptive.run_adaptation", _count_iters),
    (harness.ExperimentResult, "write", "harness.ExperimentResult.write", _count_bytes),
    (harness, "compare_to_wiener", "harness.compare_to_wiener", None),
] + [
    (properties, name, f"properties.{name}", _count_cases)
    for name in ("check_theorem1_agreement", "check_branch_independence",
                 "check_psd_invariance", "check_psd_dependence",
                 "check_closed_form_consistency", "check_wiener_identity")
]

SPAN_NAMES = list(dict.fromkeys(name for _, _, name, _ in PATCHES))
COUNT_NAMES = ["wiener.roots_total", "wiener.roots_cancelled", "adaptive.iters",
               "harness.bytes_written", "properties.cases"]


class Tracer:
    """In-memory spans and counts; records only inside `op()`."""

    def __init__(self):
        self.spans: list[tuple] = []  # (op_id, span_id, parent_id, name, start, end)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op: int | None = None
        self._next_id = 0

    @contextlib.contextmanager
    def op(self, op_id: int):
        self._op = op_id
        try:
            yield
        finally:
            self._op = None

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((self._op, span_id, parent, name, start, end))
            if count is not None:
                count(self.counts, args, out)
            return out
        return traced

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """`<span>.calls`, `.total_s` and `.self_s` per span, then the counts."""
        child_s = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        agg = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for _, span_id, _, name, start, end in self.spans:
            a = agg[name]
            a[0] += 1
            a[1] += end - start
            a[2] += end - start - child_s[span_id]
        out = {}
        for name, (calls, total, own) in agg.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.total_s"] = (total, "s")
            out[f"{name}.self_s"] = (own, "s")
        for name in COUNT_NAMES:
            out[name] = (self.counts[name], "count")
        total, cancelled = self.counts["wiener.roots_total"], self.counts["wiener.roots_cancelled"]
        out["wiener.cancel_ratio"] = (cancelled / total if total else 0.0, "ratio")
        iters = self.counts["adaptive.iters"]
        adapt_s = agg["adaptive.run_adaptation"][1]
        out["adaptive.us_per_iter"] = (adapt_s / iters * 1e6 if iters else 0.0, "us")
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for op_id, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op_id, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every PATCHES entry with `tracer` for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, count in PATCHES:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
