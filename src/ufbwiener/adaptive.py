"""Matrix LMS/NLMS adaptive synthesis filter.

An M x L bank of FIR filters sharing per-channel delay lines.  Each
constituent filter a_{p,q} adapts with the stochastic-gradient rule
a_{p,q} <- a_{p,q} + mu_{p,q} e_p conj(u_q), where u_q is channel q's
regressor (its delay-line contents); the normalized variant divides the
step by the regularized regressor energy.  run_adaptation is the one
code path that moves the taps.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import islice

import numpy as np
from numpy._core.multiarray import c_einsum
from numpy.lib.stride_tricks import sliding_window_view

# Iterations per batch of tap-independent work in run_adaptation, and
# rows per write in AdaptationTrace.write_csv.  Bounded so that a long
# run never holds all its regressor windows or its CSV text at once.
_CHUNK = 256

# Share of the final iterations whose taps AdaptationTrace.tail_mean_taps
# averages.
_TAIL_SHARE = 0.1

# Sublist subscripts of "pqm,qm->p", the filter output y_p of run_adaptation.
_PQM, _QM, _P = [0, 1, 2], [1, 2], [0]


def check_parameters(tap_len: int, step, eps: float) -> None:
    """The one parameter rule; step is a scalar or an (M, L) array."""
    if tap_len < 1:
        raise ValueError("tap_len must be >= 1")
    step = np.asarray(step, dtype=np.float64)
    if not np.all((0 <= step) & (step < np.inf)):
        raise ValueError("step must be finite and >= 0")
    if not 0 < eps < np.inf:
        raise ValueError("eps must be finite and > 0")


class MatrixAdaptiveFilter:
    """Bank of M x L FIR taps with shared per-channel input history.

    Instances are single-writer: run_adaptation mutates the delay lines
    and taps, so runs on one instance must be serialized.  Distinct
    instances are independent.

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
        check_parameters(tap_len, step, eps)
        step = np.broadcast_to(np.asarray(step, dtype=np.float64), (M, L)).copy()
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

    def _steps(self, windows: np.ndarray) -> np.ndarray:
        """Per-pair step sizes, shape (..., M, L), for windows of shape (..., L, T)."""
        if not self.nlms:
            return np.broadcast_to(self.step, windows.shape[:-2] + self.step.shape)
        energy = np.sum(np.abs(windows) ** 2, axis=-1)  # per channel q
        return self.step / (self.eps + energy)[..., None, :]


@dataclass
class AdaptationTrace:
    """Per-iteration squared error plus scheduled tap-table snapshots."""

    squared_error: np.ndarray                 # ||e(n)||^2, length n_iters
    per_component: np.ndarray                 # |e_p(n)|^2, shape (n_iters, M)
    snapshots: dict[int, np.ndarray] = field(default_factory=dict)
    final_taps: np.ndarray | None = None
    tail_mean_taps: np.ndarray | None = None  # taps averaged over the last _TAIL_SHARE

    @property
    def n_iters(self) -> int:
        return self.squared_error.size

    def write_csv(self, path) -> None:
        """One row per iteration, streamed _CHUNK rows at a time.

        The bytes are those of csv.writer's default dialect: every field
        is an int or a float repr, and none of them needs quoting.
        """
        M = self.per_component.shape[1]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(["iteration", "squared_error"]
                              + [f"e_{p}^2" for p in range(M)]) + "\r\n")
            for start in range(0, self.n_iters, _CHUNK):
                stop = start + _CHUNK
                sq = np.asarray(self.squared_error[start:stop], dtype=np.float64)
                per = np.asarray(self.per_component[start:stop], dtype=np.float64)
                fh.write("".join(
                    ",".join(map(repr, (n, s, *row))) + "\r\n"
                    for n, s, row in zip(range(start + 1, stop + 1), sq.tolist(),
                                         per.tolist())))


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


def _windows(history: np.ndarray, v) -> np.ndarray:
    """Delay-line contents after pushing each row of v in turn, from history.

    Returns a contiguous (n, L, T) block whose k-th entry is what
    `history` holds after k + 1 pushes: window[k, q, m] = v[k - m, q],
    reaching back into `history` for k < m.
    """
    L, T = history.shape
    v = np.asarray(v, dtype=np.complex128).reshape(len(v), -1)
    if v.shape[1] != L:
        raise ValueError(f"input vector must have length {L}")
    line = np.concatenate([history[:, :T - 1][:, ::-1], v.T], axis=1)  # oldest first
    windows = sliding_window_view(line, T, axis=1)  # (L, n, T), oldest first
    return np.ascontiguousarray(windows[:, :, ::-1].transpose(1, 0, 2))


def run_adaptation(f: MatrixAdaptiveFilter, v_blocks: np.ndarray,
                   d_blocks: np.ndarray, n_iters: int,
                   snapshot_iters: tuple[int, ...] = ()) -> AdaptationTrace:
    """Drive the filter for n_iters blocks, recording errors and snapshots.

    Iteration n pushes v_blocks[n] into the delay lines, forms
    e = d_blocks[n] - y with y_p = sum_{q,m} taps[p, q, m] window[q, m],
    and adds (mu e) conj(window) to the taps, in that operation order.
    Snapshot iteration k captures the tap table after k steps (1-based,
    matching "coefficients at iteration = k").  The filter's taps and
    history carry over to the next call.  The work that does not depend
    on the taps (regressor windows, their conjugates, the steps cast to
    complex and the squared errors) is done once per chunk of _CHUNK
    iterations, and only the iterations that end in a snapshot or fall
    in the tail window do any bookkeeping.
    """
    v_blocks = np.asarray(v_blocks)
    d_blocks = np.asarray(d_blocks)
    if len(v_blocks) < n_iters or len(d_blocks) < n_iters:
        raise ValueError(
            f"need {n_iters} blocks, have {min(len(v_blocks), len(d_blocks))}")
    snaps = set(int(k) for k in snapshot_iters)
    snapshots = {}
    per = np.zeros((n_iters, f.M))
    tail_start = n_iters - max(int(round(_TAIL_SHARE * n_iters)), 1)
    tail_sum = np.zeros_like(f.taps)
    tail_count = 0
    taps = f.taps
    y = np.empty(f.M, dtype=np.complex128)
    mu_e = np.empty((f.M, f.L, 1), dtype=np.complex128)
    delta = np.empty(taps.shape, dtype=np.complex128)
    errors = np.empty((_CHUNK, f.M), dtype=np.complex128)
    error_cols = errors[:, :, None, None]
    for start in range(0, n_iters, _CHUNK):
        stop = min(start + _CHUNK, n_iters)
        d = np.asarray(d_blocks[start:stop], dtype=np.complex128).reshape(stop - start, -1)
        if d.shape[1] != f.M:
            raise ValueError(f"desired vector must have length {f.M}")
        windows = _windows(f.history, v_blocks[start:stop])
        steps = f._steps(windows).astype(np.complex128)[..., None]
        rows = zip(windows, np.conj(windows)[:, None], steps, d, errors, error_cols)
        # The iterations after which a snapshot or the tail sum is taken;
        # the runs of iterations between them do the five calls alone.
        marks = sorted({k for k in snaps if start < k <= stop}
                       | set(range(max(start, tail_start) + 1, stop + 1)) | {stop})
        done = start
        for n in marks:
            # c_einsum is the function np.einsum runs when optimize is off;
            # calling it directly skips the array-function dispatch, about a
            # fifth of an iteration.  Keep every operand's shape: which loop a
            # ufunc runs, and so the last bits of the taps, can depend on the
            # layout (conj(window) as (L, T) instead of (1, L, T) moves them).
            for window, window_conj, mu, d_n, e, e_col in islice(rows, n - done):
                c_einsum(taps, _PQM, window, _QM, _P, out=y)
                np.subtract(d_n, y, e)
                np.multiply(mu, e_col, mu_e)
                np.multiply(mu_e, window_conj, delta)
                np.add(taps, delta, taps)
            done = n
            if n in snaps:
                snapshots[n] = taps.copy()
            if n > tail_start:
                tail_sum += taps
                tail_count += 1
        f.history[...] = windows[-1]
        per[start:stop] = np.abs(errors[:stop - start]) ** 2
    return AdaptationTrace(squared_error=per.sum(axis=1), per_component=per,
                           snapshots=snapshots, final_taps=taps.copy(),
                           tail_mean_taps=tail_sum / max(tail_count, 1))
