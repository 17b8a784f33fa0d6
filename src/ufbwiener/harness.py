"""Experiment engine: signal generation, adaptation runs, Wiener comparison.

Wires the analysis bank to the adaptive synthesis filter, solves the
exact Wiener reference, and packages everything as a reproducible
result directory (trace.csv, taps_iter<k>.csv, wiener.json,
metrics.json).  Runs are deterministic given the configuration,
including the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .adaptive import AdaptationTrace, MatrixAdaptiveFilter, run_adaptation, write_tap_table
from .algebra import LaurentPoly
from .spectra import FilterBankSpec, InputPSD, generate_wss, make_desired, run_analysis
from .wiener import WienerSolution, wiener_solve

# Gaussian variates come from numpy's default PCG64 generator; this
# string is recorded in result metadata so runs remain identifiable.
GENERATOR_ID = "numpy.random.default_rng(PCG64).standard_normal"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to rerun one experiment byte-identically."""

    fb: FilterBankSpec
    input_model: InputPSD = field(default_factory=InputPSD)
    seed: int = 0
    algorithm: str = "nlms"  # "lms" | "nlms"
    step: float = 0.5
    tap_len: int = 8
    eps: float = 1e-8
    n_iters: int = 1000
    snapshots: tuple[int, ...] = ()
    name: str = "experiment"

    def __post_init__(self):
        if self.algorithm not in ("lms", "nlms"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.n_iters < 0:
            raise ValueError("n_iters must be >= 0")
        if self.tap_len < 1:
            raise ValueError("tap_len must be >= 1")
        if not self.step >= 0:
            raise ValueError("step must be >= 0")
        object.__setattr__(self, "snapshots", tuple(int(k) for k in self.snapshots))
        bad = [k for k in self.snapshots if not 1 <= k <= self.n_iters]
        if bad:
            raise ValueError(f"snapshots {bad} outside iterations 1..{self.n_iters}")

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "fb": self.fb.to_json_dict(),
            "input": self.input_model.to_json_dict(),
            "seed": self.seed,
            "algorithm": self.algorithm,
            "step": self.step,
            "tap_len": self.tap_len,
            "eps": self.eps,
            "n_iters": self.n_iters,
            "snapshots": list(self.snapshots),
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "ExperimentConfig":
        return cls(
            fb=FilterBankSpec.from_json_dict(d["fb"]),
            input_model=InputPSD.from_json_dict(d.get("input", {})),
            seed=int(d.get("seed", 0)),
            algorithm=d.get("algorithm", "nlms"),
            step=float(d.get("step", 0.5)),
            tap_len=int(d.get("tap_len", 8)),
            eps=float(d.get("eps", 1e-8)),
            n_iters=int(d.get("n_iters", 1000)),
            snapshots=tuple(d.get("snapshots", [])),
            name=d.get("name", "experiment"),
        )

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


@dataclass
class ExperimentResult:
    """Adaptation trace, tap tables, Wiener reference and derived metrics."""

    config: ExperimentConfig
    trace: AdaptationTrace
    wiener: WienerSolution
    wiener_taps: np.ndarray | None  # truncated impulse responses, or None if unstable
    metrics: dict

    def write(self, outdir) -> None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        self.trace.write_csv(outdir / "trace.csv")
        for k, taps in self.trace.snapshots.items():
            write_tap_table(outdir / f"taps_iter{k}.csv", taps)
        if self.trace.final_taps is not None:
            write_tap_table(outdir / "taps_final.csv", self.trace.final_taps)
        with open(outdir / "wiener.json", "w") as fh:
            json.dump(self.wiener.to_json_dict(), fh, indent=2)
        with open(outdir / "metrics.json", "w") as fh:
            json.dump(self.metrics, fh, indent=2)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """End-to-end run: analysis, adaptation, exact Wiener solve, metrics."""
    fb = cfg.fb
    ws = wiener_solve(fb, cfg.input_model)

    max_order = max((-h.lowest_power for h in fb.filters if not h.is_zero), default=0)
    n_samples = (cfg.n_iters + 1) * fb.M + max_order
    x = generate_wss(cfg.input_model, n_samples, cfg.seed)
    v = run_analysis(fb, x)
    d = make_desired(x, fb.M, fb.delay)

    filt = MatrixAdaptiveFilter(fb.M, fb.L, cfg.tap_len, step=cfg.step,
                                nlms=cfg.algorithm == "nlms", eps=cfg.eps)
    trace = run_adaptation(filt, v.samples, d.samples, cfg.n_iters,
                           snapshot_iters=cfg.snapshots)

    wiener_taps = ws.impulse_responses(cfg.tap_len) if ws.stable else None
    metrics = _metrics(cfg, trace, ws, wiener_taps, d.samples)
    return ExperimentResult(config=cfg, trace=trace, wiener=ws,
                            wiener_taps=wiener_taps, metrics=metrics)


def _metrics(cfg, trace, ws, wiener_taps, d_blocks) -> dict:
    metrics = {
        "generator": GENERATOR_ID,
        "seed": cfg.seed,
        "n_iters": cfg.n_iters,
        "wiener_stable": ws.stable,
    }
    n = trace.n_iters
    if n:
        tail = slice(int(0.8 * n), n)
        err_tail = float(trace.squared_error[tail].mean())
        desired_power = float(np.sum(np.abs(d_blocks[tail]) ** 2, axis=1).mean())
        head = float(trace.squared_error[:max(min(n, 10), 1)].mean())
        metrics["steady_state_mse"] = err_tail
        metrics["reconstruction_rel_mse"] = err_tail / max(desired_power, 1e-300)
        metrics["final_mse_db_rel_initial"] = float(
            10 * np.log10(max(err_tail, 1e-300) / max(head, 1e-300)))
    if wiener_taps is not None and trace.tail_mean_taps is not None:
        report = compare_to_wiener(trace.tail_mean_taps, ws, cfg.tap_len)
        metrics["tap_distance_abs"] = report["distance_abs"]
        metrics["tap_distance_rel"] = report["distance_rel"]
    return metrics


def wiener_truncation_length(ws: WienerSolution, tail_rel: float = 1e-10,
                             minimum: int = 8, maximum: int = 4000) -> int:
    """Tap count whose discarded geometric tail is below tail_rel.

    Uses the slowest pole radius as the decay rate, so comparison
    metrics are insensitive to the truncation point.
    """
    if not ws.stable:
        raise ValueError("truncation length is only defined for a stable solution")
    if ws.poles.size == 0:
        return minimum
    rho = float(np.abs(ws.poles).max())
    if rho <= 0:
        return minimum
    n = int(np.ceil(np.log(tail_rel) / np.log(rho))) + 1
    return min(max(n, minimum), maximum)


def compare_to_wiener(taps: np.ndarray, ws: WienerSolution,
                      n_terms: int | None = None) -> dict:
    """Per-pair tap differences against the Wiener impulse responses.

    Refuses the comparison for an unstable Wiener solution (its impulse
    response does not decay) and reports the poles instead.
    """
    taps = np.asarray(taps, dtype=np.complex128)
    if not ws.stable:
        return {
            "comparable": False,
            "reason": "Wiener solution is unstable; impulse response does not decay",
            "poles": [[float(p.real), float(p.imag)] for p in ws.poles],
        }
    if n_terms is None:
        n_terms = taps.shape[2]
    ref = ws.impulse_responses(n_terms)
    k = min(taps.shape[2], n_terms)
    diff = taps[:, :, :k] - ref[:, :, :k]
    abs_by_pair = np.sqrt(np.sum(np.abs(diff) ** 2, axis=2))
    ref_norm = np.sqrt(np.sum(np.abs(ref) ** 2))
    return {
        "comparable": True,
        "n_terms": int(n_terms),
        "abs_by_pair": abs_by_pair.tolist(),
        "max_abs_tap_diff": float(np.abs(diff).max()),
        "distance_abs": float(np.sqrt(np.sum(np.abs(diff) ** 2))),
        "distance_rel": float(np.sqrt(np.sum(np.abs(diff) ** 2)) / max(ref_norm, 1e-300)),
    }


def binned_mse(squared_error: np.ndarray, start: int = 50,
               factor: float = 2.0) -> np.ndarray:
    """Mean squared error over exponentially growing iteration bins."""
    means = []
    lo = start
    n = squared_error.size
    while lo < n:
        hi = min(int(np.ceil(lo * factor)), n)
        means.append(float(squared_error[lo:hi].mean()))
        lo = hi
    return np.array(means)


# -- reference experiment presets ---------------------------------------------

EXP1_SEED = 20130215
EXP2_SEED = 20130215


def experiment_1(seed: int = EXP1_SEED, n_iters: int = 2000) -> ExperimentConfig:
    """Two-band bank, NLMS step 0.6, 11 taps, snapshot at iteration 2000."""
    fb = FilterBankSpec(
        M=2,
        filters=(LaurentPoly.from_causal([4, 7, 2]),
                 LaurentPoly.from_causal([3, -1, -1.5])),
        delay=0,
    )
    return ExperimentConfig(fb=fb, seed=seed, algorithm="nlms", step=0.6,
                            tap_len=11, n_iters=n_iters,
                            snapshots=(min(2000, n_iters),) if n_iters else (),
                            name="exp1")


def experiment_2(seed: int = EXP2_SEED, n_iters: int = 12000) -> ExperimentConfig:
    """Three-band bank, NLMS step 0.45, 15 taps, snapshot at iteration 12000."""
    fb = FilterBankSpec(
        M=3,
        filters=(LaurentPoly.from_causal([13, -3, 2, -5, -2]),
                 LaurentPoly.from_causal([1, -24, -5, 7]),
                 LaurentPoly.from_causal([-19, 5, 14, 1, -8])),
        delay=0,
    )
    return ExperimentConfig(fb=fb, seed=seed, algorithm="nlms", step=0.45,
                            tap_len=15, n_iters=n_iters,
                            snapshots=(min(12000, n_iters),) if n_iters else (),
                            name="exp2")


PRESETS = {"exp1": experiment_1, "exp2": experiment_2}
