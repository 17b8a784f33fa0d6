"""Experiment engine: signal generation, adaptation runs, Wiener comparison.

Wires the analysis bank to the adaptive synthesis filter, solves the
exact Wiener reference, and packages everything as a reproducible
result directory (see artifact_names).  Runs are deterministic given
the configuration, including the seed.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .adaptive import AdaptationTrace, MatrixAdaptiveFilter, check_parameters, run_adaptation
from .algebra import LaurentPoly
from .spectra import FilterBankSpec, InputPSD, generate_wss, make_desired, run_analysis
from .wiener import ReconstructionReport, WienerSolution, wiener_solve

# Gaussian variates come from numpy's default PCG64 generator; this
# string is recorded in result metadata so runs remain identifiable.
GENERATOR_ID = "numpy.random.default_rng(PCG64).standard_normal"

WIENER_JSON = "wiener.json"  # a WienerSolution, in result directories and `wiener` output
# The files of the `wiener` command; residuals.csv only for a stable, L = M bank.
WIENER_ARTIFACTS = [WIENER_JSON, "residuals.csv"]

# Rows per write in write_csv: a long trace never holds all its CSV text at once.
_CSV_BLOCK = 256

# A snapshot table, taps_iter<k>.csv, of any run's snapshots.
_SNAPSHOT_TABLE = re.compile(r"taps_iter[1-9][0-9]*\.csv")


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
        check_parameters(self.tap_len, self.step, self.eps)
        object.__setattr__(self, "snapshots", tuple(int(k) for k in self.snapshots))
        bad = [k for k in self.snapshots if not 1 <= k <= self.n_iters]
        if bad:
            raise ValueError(f"snapshots {bad} outside iterations 1..{self.n_iters}")

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "ExperimentConfig":
        """Keys absent from d keep the field defaults; `input` fills input_model."""
        fb = FilterBankSpec.from_json_dict(d["fb"])
        given = {key: convert(d[key]) for key, convert in _CONVERSIONS.items() if key in d}
        if "input" in given:
            given["input_model"] = given.pop("input")
        return cls(fb=fb, **given)


def _as_given(value):
    return value


# The optional config keys and their conversions, in parsing order.
_CONVERSIONS = {"input": InputPSD.from_json_dict, "seed": int, "algorithm": _as_given,
                "step": float, "tap_len": int, "eps": float, "n_iters": int,
                "snapshots": tuple, "name": _as_given}


def artifact_names(snapshots: Iterable[int]) -> list[str]:
    """Files of a result directory, in the order ExperimentResult.write fills them."""
    return (["trace.csv", "taps_final.csv", WIENER_JSON, "metrics.json"]
            + [f"taps_iter{k}.csv" for k in snapshots])


def owned_files(outdir: Path, names: list[str]) -> list[str]:
    """The files in outdir, sorted, of the artifact set that names belong to:
    names and, for a result directory's, every taps_iter<k>.csv of any run."""
    if not outdir.is_dir():
        return []
    tables = "taps_final.csv" in names
    return sorted(p.name for p in outdir.iterdir()
                  if p.name in names or tables and _SNAPSHOT_TABLE.fullmatch(p.name))


@dataclass
class ExperimentResult:
    """Adaptation trace, tap tables, Wiener reference and derived metrics."""

    trace: AdaptationTrace
    wiener: WienerSolution
    metrics: dict

    def write(self, outdir) -> None:
        """Write the artifact_names files into outdir; another run's snapshot tables go."""
        contents = ([trace_table(self.trace), tap_table(self.trace.final_taps),
                     self.wiener.to_json_dict(), self.metrics]
                    + [tap_table(taps) for taps in self.trace.snapshots.values()])
        _write_artifacts(outdir, artifact_names(self.trace.snapshots), contents)


def write_wiener(outdir, ws: WienerSolution, rep: ReconstructionReport | None) -> None:
    """The `wiener` command's artifacts; residuals.csv holds rep's identity residuals."""
    residuals = [] if rep is None else [(["grid_angle", "residual"], zip(
        rep.grid_angles.tolist(), rep.identity_residuals.tolist()))]
    _write_artifacts(outdir, WIENER_ARTIFACTS, [ws.to_json_dict()] + residuals)


def _write_artifacts(outdir, names: list[str], contents: list) -> None:
    """Write each content into outdir under its name, a .csv's (header, rows)
    as CSV and the rest as JSON, then remove the other files of the set
    (a directory by such a name stays)."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = names[:len(contents)]
    for name, content in zip(written, contents):
        if name.endswith(".csv"):
            write_csv(outdir / name, *content)
        else:
            with open(outdir / name, "w") as fh:
                json.dump(content, fh, indent=2)
    for name in set(owned_files(outdir, names)) - set(written):
        if (outdir / name).is_file():
            (outdir / name).unlink()


def write_csv(path, header: list[str], rows: Iterable[tuple]) -> None:
    """A CSV in csv.writer's default dialect: the header through
    csv.writer, then the rows joined _CSV_BLOCK at a time.  Every row
    field is an int, float or complex, whose repr never needs quoting."""
    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        while block := list(islice(rows, _CSV_BLOCK)):
            fh.write("".join(",".join(map(repr, row)) + "\r\n" for row in block))


def trace_table(trace: AdaptationTrace) -> tuple[list[str], Iterator[tuple]]:
    """trace.csv: one row per iteration, from 1, with the squared error
    and its per-component terms, converted _CSV_BLOCK rows at a time."""
    values = np.column_stack([trace.squared_error, trace.per_component]).astype(np.float64)
    rows = (row for start in range(0, len(values), _CSV_BLOCK)
            for row in zip(range(start + 1, start + _CSV_BLOCK + 1),
                           *values[start:start + _CSV_BLOCK].T.tolist()))
    return ["iteration", "squared_error"] + [f"e_{p}^2" for p in range(values.shape[1] - 1)], rows


def tap_table(taps: np.ndarray) -> tuple[list[str], Iterator[tuple]]:
    """A tap table: one row per tap index, one column per (p, q) pair labelled
    a_{p},{q} from 1; a tap with no imaginary part is written as its real part."""
    taps = np.asarray(taps, dtype=np.complex128)
    M, L, tap_len = taps.shape
    columns = [[v.real if v.imag == 0 else v for v in column]
               for column in taps.reshape(M * L, tap_len).tolist()]
    return [f"a_{p + 1},{q + 1}" for p in range(M) for q in range(L)], zip(*columns)


class DivergenceError(ArithmeticError):
    """An adaptation run produced a non-finite error or taps."""


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """End-to-end run: analysis, adaptation, exact Wiener solve, metrics.

    Raises DivergenceError, naming the first non-finite iteration, when
    the adaptation diverges, so no result carries NaN or inf.
    """
    fb = cfg.fb
    ws = wiener_solve(fb, cfg.input_model)

    max_order = max(len(h.causal_taps()) for h in fb.filters) - 1
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
    return ExperimentResult(trace=trace, wiener=ws, metrics=_metrics(cfg, trace, ws, d))


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
    if ws.stable:
        metrics["tap_distance_abs"], metrics["tap_distance_rel"] = compare_to_wiener(
            trace.tail_mean_taps, ws)
    return metrics


def compare_to_wiener(taps: np.ndarray, ws: WienerSolution) -> tuple[float, float]:
    """Absolute and relative tap distance to the Wiener impulse responses
    of the same length.  Refuses an unstable Wiener solution, whose impulse
    responses do not decay, with a ValueError naming its poles.
    """
    ws.require_stable("tap comparison")
    taps = np.asarray(taps, dtype=np.complex128)
    ref = ws.impulse_responses(taps.shape[2])
    distance = float(np.sqrt(np.sum(np.abs(taps - ref) ** 2)))
    ref_norm = float(np.sqrt(np.sum(np.abs(ref) ** 2)))
    return distance, distance / max(ref_norm, 1e-300)


# -- reference experiment presets ---------------------------------------------

def experiment_1() -> ExperimentConfig:
    """Two-band bank, NLMS step 0.6, 11 taps, snapshot at iteration 2000."""
    fb = FilterBankSpec(
        M=2,
        filters=(LaurentPoly.from_causal([4, 7, 2]),
                 LaurentPoly.from_causal([3, -1, -1.5])),
        delay=0,
    )
    return ExperimentConfig(fb=fb, seed=20130215, algorithm="nlms", step=0.6,
                            tap_len=11, n_iters=2000, snapshots=(2000,), name="exp1")


def experiment_2() -> ExperimentConfig:
    """Three-band bank, NLMS step 0.45, 15 taps, snapshot at iteration 12000."""
    fb = FilterBankSpec(
        M=3,
        filters=(LaurentPoly.from_causal([13, -3, 2, -5, -2]),
                 LaurentPoly.from_causal([1, -24, -5, 7]),
                 LaurentPoly.from_causal([-19, 5, 14, 1, -8])),
        delay=0,
    )
    return ExperimentConfig(fb=fb, seed=20130215, algorithm="nlms", step=0.45,
                            tap_len=15, n_iters=12000, snapshots=(12000,), name="exp2")


def apply_overrides(cfg: ExperimentConfig, seed: int | None = None,
                    n_iters: int | None = None, step: float | None = None) -> ExperimentConfig:
    """cfg with each given setting replaced.  A new n_iters keeps the
    snapshots it still reaches, or else snapshots its last iteration."""
    changes = {}
    if seed is not None:
        changes["seed"] = seed
    if n_iters is not None:
        changes["n_iters"] = n_iters
        changes["snapshots"] = tuple(k for k in cfg.snapshots if k <= n_iters) or (
            (n_iters,) if n_iters > 0 else ())
    if step is not None:
        changes["step"] = step
    return replace(cfg, **changes)


PRESETS = {"exp1": experiment_1, "exp2": experiment_2}
