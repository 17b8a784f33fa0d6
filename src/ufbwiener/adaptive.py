"""Matrix LMS/NLMS adaptive synthesis filter.

An M x L bank of FIR filters sharing per-channel delay lines.  Each
constituent filter a_{p,q} is updated with the stochastic-gradient rule
a_{p,q} <- a_{p,q} + mu_{p,q} e_p conj(u_q), where u_q is channel q's
regressor (its delay-line contents); the normalized variant divides the
step by the regularized regressor energy.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np


class MatrixAdaptiveFilter:
    """Bank of M x L FIR taps with shared per-channel input history.

    Instances are single-writer: update calls mutate the delay lines and
    taps and must be serialized.  Distinct instances are independent.

    Parameters
    ----------
    M, L : output and input vector dimensions
    tap_len : common FIR length for every (p, q) pair
    step : scalar step size, or an (M, L) array of per-pair step sizes
    nlms : normalize the step by the regressor energy
    eps : NLMS regularizer added to each channel's regressor energy
    """

    def __init__(self, M: int, L: int, tap_len: int, step=0.5,
                 nlms: bool = False, eps: float = 1e-8):
        if tap_len < 1:
            raise ValueError("tap_len must be >= 1")
        step = np.broadcast_to(np.asarray(step, dtype=np.float64), (M, L)).copy()
        if np.any(step < 0):
            raise ValueError("step sizes must be non-negative")
        self.M = M
        self.L = L
        self.tap_len = tap_len
        self.step = step
        self.nlms = nlms
        self.eps = float(eps)
        self.taps = np.zeros((M, L, tap_len), dtype=np.complex128)
        self.history = np.zeros((L, tap_len), dtype=np.complex128)

    def set_taps(self, taps: np.ndarray) -> None:
        taps = np.asarray(taps, dtype=np.complex128)
        if taps.shape != self.taps.shape:
            raise ValueError(f"taps must have shape {self.taps.shape}")
        self.taps = taps.copy()

    def _push(self, v: np.ndarray) -> None:
        self.history[:, 1:] = self.history[:, :-1]
        self.history[:, 0] = v

    def filter_block(self, v) -> np.ndarray:
        """Shift the delay lines by one block and emit y_p = sum_{q,m} a v."""
        v = np.asarray(v, dtype=np.complex128).ravel()
        if v.size != self.L:
            raise ValueError(f"input vector must have length {self.L}")
        self._push(v)
        return np.einsum("pqm,qm->p", self.taps, self.history)

    def _apply_update(self, e: np.ndarray) -> None:
        if self.nlms:
            energy = np.sum(np.abs(self.history) ** 2, axis=1)  # per channel q
            mu = self.step / (self.eps + energy)[None, :]
        else:
            mu = self.step
        self.taps += mu[:, :, None] * e[:, None, None] * np.conj(self.history)[None, :, :]

    def update(self, v, d) -> np.ndarray:
        """One adaptation step; returns the error vector e = d - y."""
        d = np.asarray(d, dtype=np.complex128).ravel()
        if d.size != self.M:
            raise ValueError(f"desired vector must have length {self.M}")
        y = self.filter_block(v)
        e = d - y
        self._apply_update(e)
        return e


@dataclass
class AdaptationTrace:
    """Per-iteration squared error plus scheduled tap-table snapshots."""

    squared_error: np.ndarray                 # ||e(n)||^2, length n_iters
    per_component: np.ndarray                 # |e_p(n)|^2, shape (n_iters, M)
    snapshots: dict[int, np.ndarray] = field(default_factory=dict)
    final_taps: np.ndarray | None = None
    tail_mean_taps: np.ndarray | None = None  # taps averaged over the last 10%

    @property
    def n_iters(self) -> int:
        return self.squared_error.size

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iteration", "squared_error"]
                       + [f"e_{p}^2" for p in range(self.per_component.shape[1])])
            for n in range(self.n_iters):
                w.writerow([n + 1, repr(float(self.squared_error[n]))]
                           + [repr(float(v)) for v in self.per_component[n]])


def write_tap_table(path, taps: np.ndarray) -> None:
    """Tap-table CSV: one row per tap index, one column per (p, q) pair.

    Column labels use the 1-based a_{p},{q} convention.
    """
    M, L, tap_len = taps.shape
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"a_{p + 1},{q + 1}" for p in range(M) for q in range(L)])
        for m in range(tap_len):
            w.writerow([_fmt(taps[p, q, m]) for p in range(M) for q in range(L)])


def _fmt(v: complex) -> str:
    return repr(float(v.real)) if v.imag == 0 else repr(complex(v))


def run_adaptation(f: MatrixAdaptiveFilter, v_blocks: np.ndarray,
                   d_blocks: np.ndarray, n_iters: int,
                   snapshot_iters: tuple[int, ...] = (),
                   tail_frac: float = 0.1) -> AdaptationTrace:
    """Drive the filter for n_iters blocks, recording errors and snapshots.

    Snapshot iteration k captures the tap table after k update steps
    (1-based, matching "coefficients at iteration = k").
    """
    v_blocks = np.asarray(v_blocks)
    d_blocks = np.asarray(d_blocks)
    if len(v_blocks) < n_iters or len(d_blocks) < n_iters:
        raise ValueError(
            f"need {n_iters} blocks, have {min(len(v_blocks), len(d_blocks))}")
    snaps = set(int(k) for k in snapshot_iters)
    sq = np.zeros(n_iters)
    per = np.zeros((n_iters, f.M))
    trace = AdaptationTrace(squared_error=sq, per_component=per)
    tail_start = n_iters - max(int(round(tail_frac * n_iters)), 1)
    tail_sum = np.zeros_like(f.taps)
    tail_count = 0
    for n in range(n_iters):
        e = f.update(v_blocks[n], d_blocks[n])
        per[n] = np.abs(e) ** 2
        sq[n] = per[n].sum()
        if n + 1 in snaps:
            trace.snapshots[n + 1] = f.taps.copy()
        if n >= tail_start:
            tail_sum += f.taps
            tail_count += 1
    trace.final_taps = f.taps.copy()
    trace.tail_mean_taps = tail_sum / max(tail_count, 1)
    return trace
