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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.n_iters < 0:
            raise ValueError("n_iters must be >= 0")
        if self.tap_len < 1:
            raise ValueError("tap_len must be >= 1")
        if not 0 <= self.step < np.inf:
            raise ValueError("step must be finite and >= 0")
        if not 0 < self.eps < np.inf:
            raise ValueError("eps must be finite and > 0")
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


@dataclass
class ExperimentResult:
    """Adaptation trace, tap tables, Wiener reference and derived metrics."""

    config: ExperimentConfig
    trace: AdaptationTrace
    wiener: WienerSolution
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


class DivergenceError(ArithmeticError):
    """An adaptation run produced a non-finite error or taps."""


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """End-to-end run: analysis, adaptation, exact Wiener solve, metrics.

    Raises DivergenceError, naming the first non-finite iteration, when
    the adaptation diverges, so no result carries NaN or inf.
    """
    fb = cfg.fb
    ws = wiener_solve(fb, cfg.input_model)

    max_order = max((-h.lowest_power for h in fb.filters if not h.is_zero), default=0)
    n_samples = (cfg.n_iters + 1) * fb.M + max_order
    x = generate_wss(cfg.input_model, n_samples, cfg.seed)
    v = run_analysis(fb, x)
    d = make_desired(x, fb.M, fb.delay)

    filt = MatrixAdaptiveFilter(fb.M, fb.L, cfg.tap_len, step=cfg.step,
                                nlms=cfg.algorithm == "nlms", eps=cfg.eps)
    with np.errstate(over="ignore", invalid="ignore"):
        trace = run_adaptation(filt, v, d, cfg.n_iters, snapshot_iters=cfg.snapshots)
    finite = np.isfinite(trace.squared_error)
    if not (finite.all() and np.isfinite(trace.final_taps).all()):
        n = int(np.argmin(finite)) + 1 if not finite.all() else cfg.n_iters
        raise DivergenceError(f"the adaptation diverged: iteration {n} of "
                              f"{cfg.n_iters} is not finite")
    return ExperimentResult(config=cfg, trace=trace, wiener=ws,
                            metrics=_metrics(cfg, trace, ws, d))


def _metrics(cfg, trace, ws, d_blocks) -> dict:
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
    report = compare_to_wiener(trace.tail_mean_taps, ws)
    if report["comparable"]:
        metrics["tap_distance_abs"] = report["distance_abs"]
        metrics["tap_distance_rel"] = report["distance_rel"]
    return metrics


def compare_to_wiener(taps: np.ndarray, ws: WienerSolution) -> dict:
    """Tap distance to the Wiener impulse responses of the same length.

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
    ref = ws.impulse_responses(taps.shape[2])
    distance = float(np.sqrt(np.sum(np.abs(taps - ref) ** 2)))
    ref_norm = float(np.sqrt(np.sum(np.abs(ref) ** 2)))
    return {
        "comparable": True,
        "distance_abs": distance,
        "distance_rel": distance / max(ref_norm, 1e-300),
    }


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
