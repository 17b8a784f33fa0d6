"""Seeded inputs, operations and correctness oracles of the three workloads.

Every operation goes through a public entry point of the package: the
`wiener`, `repro` and `adapt` subcommands via `cli.main`, and the
`properties.check_*` suites.  The package only ever receives generated
inputs: bank config files, preset seeds and check seeds.

An op has a `kind` label, a timed `run(k)` (k is the op's index in the
run, from which per-op seeds derive) and an untimed `check(result)`
that raises `OracleFailure` when the output is wrong.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import re
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ufbwiener import cli, properties, wiener
from ufbwiener.algebra import LaurentPoly, RationalTF
from ufbwiener.spectra import FilterBankSpec, InputPSD

# Smallest accepted ratio of the extreme singular values of the analysis
# polyphase matrix on the unit circle.  Exactly singular draws (a
# polyphase column left empty by short filters) read about 1e-17; the
# cofactor solver's identity residual passes 1e-9 once the ratio falls
# to about 5e-4, so draws below 1e-2 count as numerically singular.
MIN_CONDITIONING = 1e-2
IDENTITY_TOL = 1e-9          # identity residual |A S_vv - S_dv|, as in check_wiener_identity
CLOSED_FORM_TOL = 1e-8       # solved A(z) vs closed_form_eval, relative to max |A(z)|
CLOSED_FORM_POINTS = 3
RECONSTRUCTION_TOL = 1e-6    # residuals.csv grid residual, as in acceptance criterion 7
# Largest max/min ratio of a drawn input PSD on the unit circle (40 dB).
# Deeper spectral nulls, from shaping zeros within about 1e-3 of the
# circle, cost the cofactor solve its accuracy: at |z| = 0.9998 a 6-band
# A(z) is off by 3e-8 and at |z| = 0.996 the unreduced grid residual of
# reconstruction_check reaches 6e-6.
MAX_PSD_RANGE = 1e4
MSE_DB_MAX = -40.0           # final_mse_db_rel_initial, as in acceptance criterion 8
TAP_DISTANCE_MAX = 1e-3      # tap_distance_rel, as in tests/test_harness.py

SOLVE_MS = (2, 3, 4, 5, 6)
SOLVE_PER_M = 6              # L = M banks per M in one cycle of solve_sweep
STABLE_MAX_M = 4             # L = M banks are stable up to this M, unstable above
SOLVE_SHORT = ((3, 2), (4, 3))  # (M, L) of the L < M banks in one cycle
SCALING_MS = range(2, 8)

# The suites of `ufbwiener verify --quick` in its order, with its case
# counts (properties.run_all(quick=True)).  One verify_suite op runs all
# six: their costs range from 5 ms to 150 ms and vary with the seed, so
# the median of single-suite ops would sit on the edge between two of
# them and jump from run to run, while a whole pass is one latency class.
QUICK_CASES = {
    "check_theorem1_agreement": {"cases": 100},
    "check_branch_independence": {"cases": 8},
    "check_psd_invariance": {"cases": 10},
    "check_psd_dependence": {},
    "check_closed_form_consistency": {"cases": 5},
    "check_wiener_identity": {"cases": 8},
}
# Every suite draws fresh cases from the op's seed, which keeps a run's
# average cost independent of the workload seed; only the identity suite
# keeps one seed per run, because about one seed in 1000 misses its 1e-9
# threshold (e.g. seed 3716760667 reaches 1.07e-9) and fresh seeds would
# fail an op in one run out of twenty.
FIXED_SEED_CHECKS = ("check_wiener_identity",)


class OracleFailure(Exception):
    """An op's output failed its correctness check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleFailure(message)


def op_seed(seed: int, k: int) -> int:
    """Seed handed to the package for op k of a run with workload seed `seed`."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def call_cli(argv: list[str]) -> tuple[int, str]:
    """`cli.main(argv)` in-process, with its stdout and stderr captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# -- input generation ---------------------------------------------------------

def _polyphase(fb: FilterBankSpec, n_points: int = 64) -> np.ndarray:
    """E[n, j, k] = sum_m h_j(mM + k) x_n^m at the n_points roots of unity x_n.

    E is the L x M polyphase matrix of the analysis bank as a polynomial
    in x = 1/w, w the decimated-rate variable.  Plain numpy, independent
    of the solver.
    """
    x = np.exp(2j * np.pi * np.arange(n_points) / n_points)
    E = np.zeros((n_points, fb.L, fb.M), dtype=np.complex128)
    for j in range(fb.L):
        h = fb.taps(j)
        for k in range(fb.M):
            E[:, j, k] = np.polyval(h[k::fb.M][::-1], x)
    return E


def polyphase_conditioning(fb: FilterBankSpec) -> float:
    """min over the unit circle of sigma_min / sigma_max of the polyphase matrix.

    E is rank-deficient exactly where S_vv is singular for every input PSD.
    """
    s = np.linalg.svd(_polyphase(fb), compute_uv=False)
    return float((s[:, -1] / s[:, 0]).min())


def draw_bank(rng: np.random.Generator, M: int, L: int, order_max: int,
              delay: int = 0) -> FilterBankSpec:
    """properties.random_bank, redrawn until the polyphase matrix is well conditioned."""
    for _ in range(1000):
        fb = properties.random_bank(rng, M, L, order_max=order_max, delay=delay)
        if polyphase_conditioning(fb) >= MIN_CONDITIONING:
            return fb
    raise RuntimeError(f"no well-conditioned {M}x{L} bank in 1000 draws")


def pole_radii(fb: FilterBankSpec) -> np.ndarray:
    """|w| of each pole of the L = M Wiener filter, from the analysis bank alone.

    For L = M the filter is A(w) = D(w) E(w)^-1, so its poles are the
    zeros of det E, a polynomial in x = 1/w of degree below 64 here: its
    values at 64 roots of unity go back to coefficients by an FFT, then
    np.roots.  A constant determinant (an FIR-invertible bank) has none.
    """
    d = np.linalg.det(_polyphase(fb))
    c = np.fft.fft(d) / d.size  # det E = sum_n c[n] x^n
    c = np.trim_zeros(np.where(np.abs(c) < 1e-12 * np.abs(c).max(), 0, c), "b")
    with np.errstate(divide="ignore"):
        return 1 / np.abs(np.roots(c[::-1]))


def draw_shaping(rng: np.random.Generator, order_max: int = 3) -> list[float]:
    """Causal FIR shaping taps of random order <= order_max (as properties.random_psd),
    redrawn until the input PSD spans at most MAX_PSD_RANGE on the unit circle."""
    w = np.exp(2j * np.pi * np.arange(1024) / 1024)
    while True:
        g = rng.uniform(-1, 1, int(rng.integers(0, order_max + 1)) + 1)
        g[0] += np.sign(g[0] or 1.0) * 0.5
        psd = np.abs(np.polyval(g[::-1], w)) ** 2
        if psd.max() <= MAX_PSD_RANGE * psd.min():
            return g.tolist()


def _fixed_order_bank(rng: np.random.Generator, M: int, order: int) -> FilterBankSpec:
    for _ in range(1000):
        filters = []
        for _ in range(M):
            taps = rng.uniform(-1, 1, order + 1)
            taps[0] += np.sign(taps[0] or 1.0) * 0.5
            filters.append(LaurentPoly.from_causal(taps))
        fb = FilterBankSpec(M=M, filters=tuple(filters))
        if polyphase_conditioning(fb) >= MIN_CONDITIONING:
            return fb
    raise RuntimeError(f"no well-conditioned order-{order} bank at M={M}")


def solver_scaling(seed: int) -> dict[int, float]:
    """Seconds of one wiener_solve per M in SCALING_MS; all filters of order M+1, white input."""
    rng = np.random.default_rng([seed, 4])
    out = {}
    for M in SCALING_MS:
        fb = _fixed_order_bank(rng, M, order=M + 1)
        start = time.perf_counter()
        wiener.wiener_solve(fb, InputPSD.white())
        out[M] = time.perf_counter() - start
    return out


# -- operations ---------------------------------------------------------------

class WienerOp:
    """`ufbwiener wiener --force` on one generated bank config."""

    def __init__(self, fb: FilterBankSpec, shaping: list[float] | None, points: np.ndarray,
                 opdir: Path):
        self.fb = fb
        self.points = points
        self.kind = f"wiener M={fb.M} L={fb.L}"
        opdir.mkdir(parents=True, exist_ok=True)
        config = opdir / "bank.json"
        bank = fb.to_json_dict()
        if shaping is not None:
            bank["input"] = {"kind": "shaped", "shaping": shaping}
        config.write_text(json.dumps(bank))
        self.out = opdir / "out"
        self.argv = ["wiener", "--config", str(config), "--out", str(self.out), "--force"]

    @classmethod
    def draw(cls, rng: np.random.Generator, M: int, L: int, opdir: Path,
             stable: bool | None = None) -> "WienerOp":
        """A random bank with a delay of one to two blocks; for L = M, redrawn until
        A has at least one pole and all of them inside (`stable`) or one outside
        (not `stable`) the unit circle.

        L < M banks get a shaped input, the only case where the PSD changes
        A; L = M banks keep the default white input, because with a shaped
        one the 6-band cofactor solve loses accuracy: about one 6-band bank
        in 200 gets a false singular verdict (exit 3) or an identity
        residual above 1e-9 even with a PSD range of at most 40 dB.

        With a delay below one block (d < M) about 1 in 40 stable 6-band and
        1 in 300 stable 4-band banks make `wiener` stop with NonCausalError
        in reconstruction_check: an exact entry whose numerator degree equals
        its denominator's gets a roundoff term one power higher after root
        deflation.  A block of delay leaves that term below the denominator
        degree, where it does no harm.
        """
        delay = int(rng.integers(M, 2 * M))
        while True:
            fb = draw_bank(rng, M, L, order_max=M + 1, delay=delay)
            if stable is None:
                break
            radii = pole_radii(fb)
            if radii.size and (radii.max() < 1) == stable:
                break
        shaping = draw_shaping(rng) if L < M else None
        points = np.exp(2j * np.pi * rng.uniform(0, 1, CLOSED_FORM_POINTS))
        return cls(fb, shaping, points, opdir)

    @functools.cached_property
    def closed_form(self) -> list[np.ndarray]:
        """closed_form_eval of every entry of A at each of self.points (L = M only)."""
        M = self.fb.M
        return [np.array([[wiener.closed_form_eval(self.fb, i, j, z) for j in range(M)]
                          for i in range(M)]) for z in self.points]

    def run(self, k: int):
        return call_cli(self.argv)

    def check(self, result) -> None:
        rc, text = result
        _require(rc == 0, f"exit code {rc}: {text.strip()[-300:]}")
        data = json.loads((self.out / "wiener.json").read_text())
        entries = [[RationalTF.from_dict(e) for e in row] for row in data["entries"]]
        polys = [LaurentPoly.from_text(data["delta"])]
        polys += [p for row in entries for e in row for p in (e.num, e.den)]
        _require(all(np.isfinite(p.coeffs).all() for p in polys)
                 and np.isfinite(data["poles"]).all(), "non-finite value in wiener.json")
        m = re.search(r"identity residual [^:]*: (\S+)", text)
        _require(m is not None, "no identity residual printed")
        residual = float(m.group(1))
        _require(residual <= IDENTITY_TOL, f"identity residual {residual:.3e} > {IDENTITY_TOL}")

        square = self.fb.L == self.fb.M
        if square:
            for z, closed in zip(self.points, self.closed_form):
                solved = np.array([[e(z) for e in row] for row in entries])
                err = np.abs(solved - closed).max() / np.abs(closed).max()
                _require(err <= CLOSED_FORM_TOL,
                         f"A(z) differs from the closed form by {err:.3e} at z={z:.4f}")
        residuals = self.out / "residuals.csv"
        if square and data["stable"]:
            grid = np.loadtxt(residuals, delimiter=",", skiprows=1, ndmin=2)[:, 1]
            worst = float(grid.max())
            _require(np.isfinite(grid).all() and worst <= RECONSTRUCTION_TOL,
                     f"reconstruction residual {worst:.3e} > {RECONSTRUCTION_TOL}")
        else:
            _require(not residuals.exists(), "residuals.csv written for an unstable or L < M bank")


class ExperimentOp:
    """`ufbwiener repro <preset>` or `ufbwiener adapt --config` with a per-op seed."""

    def __init__(self, kind: str, argv: list[str], seed: int, opdir: Path):
        self.kind = kind
        self.argv = argv
        self.seed = seed
        self.out = opdir / kind
        self.rerun_out = opdir / f"{kind}_rerun"
        self.rerun_checked = False

    def _argv(self, k: int, out: Path) -> list[str]:
        return self.argv + ["--out", str(out), "--force", "--seed", str(op_seed(self.seed, k))]

    def run(self, k: int):
        return (k,) + call_cli(self._argv(k, self.out))

    def check(self, result) -> None:
        k, rc, text = result
        _require(rc == 0, f"exit code {rc}: {text.strip()[-300:]}")
        metrics = json.loads((self.out / "metrics.json").read_text())
        db = metrics.get("final_mse_db_rel_initial", math.nan)
        _require(db < MSE_DB_MAX, f"final MSE {db} dB is not below {MSE_DB_MAX} dB")
        dist = metrics.get("tap_distance_rel", math.nan)
        _require(dist <= TAP_DISTANCE_MAX, f"tap distance {dist} > {TAP_DISTANCE_MAX}")
        if not self.rerun_checked:
            # once per run and preset: the same seed must give the same bytes
            self.rerun_checked = True
            rc, text = call_cli(self._argv(k, self.rerun_out))
            _require(rc == 0, f"rerun exit code {rc}: {text.strip()[-300:]}")
            _require(_same_files(self.out, self.rerun_out),
                     "rerun with the same seed wrote different artifacts")


def _same_files(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    return (names == sorted(p.name for p in b.iterdir())
            and all((a / n).read_bytes() == (b / n).read_bytes() for n in names))


class PropertyOp:
    """One `properties.check_*` suite, seeded per op or, if `fixed_seed`, per run."""

    def __init__(self, name: str, seed: int, kwargs: dict, fixed_seed: bool = False):
        self.kind = name
        self.seed = seed
        self.kwargs = kwargs
        self.fixed_seed = fixed_seed

    def run(self, k: int):
        seed = self.seed if self.fixed_seed else op_seed(self.seed, k)
        # looked up on every call, so the traced run sees its wrapper
        return getattr(properties, self.kind)(seed=seed, **self.kwargs)

    def check(self, result) -> None:
        _require(result.passed, result.line())


class VerifyPassOp:
    """One pass over several property suites, all with the op's index k."""

    kind = "verify --quick pass"

    def __init__(self, suites: list[PropertyOp]):
        self.suites = suites

    def run(self, k: int):
        return [suite.run(k) for suite in self.suites]

    def check(self, results) -> None:
        for suite, result in zip(self.suites, results):
            suite.check(result)


# -- workloads ----------------------------------------------------------------

@dataclass
class Workload:
    ops: list        # one cycle of ops, in the order the closed loop runs them
    cycle_s: float   # nominal seconds per cycle on a 2-CPU Xeon; sizes the traced run

    def traced_ops(self, seconds: float) -> int:
        """Fixed op count for each half of a traced run: about seconds/2 of work."""
        return len(self.ops) * max(1, round(seconds / 2 / self.cycle_s))


def solve_sweep(seed: int, opdir: Path) -> Workload:
    """SOLVE_PER_M rounds of one L = M bank at each M in SOLVE_MS, plus the SOLVE_SHORT banks.

    L = M banks are stable up to M = STABLE_MAX_M, where `wiener` also
    runs reconstruction_check, which dominates there, and unstable
    above, where the cofactor solve dominates and runs alone.  Each M is
    then one tight latency class, so the op mix does not depend on the
    seed.  FIR-invertible banks, whose A has no pole, are left out: on
    them `wiener` stops with NonCausalError in reconstruction_check.
    The L < M banks take the path without reconstruction.
    """
    rng = np.random.default_rng([seed, 1])
    ops = []
    for r in range(SOLVE_PER_M):
        for M in SOLVE_MS:
            ops.append(WienerOp.draw(rng, M, M, opdir / f"bank{len(ops)}",
                                     stable=M <= STABLE_MAX_M))
        if r < len(SOLVE_SHORT):
            M, L = SOLVE_SHORT[r]
            ops.append(WienerOp.draw(rng, M, L, opdir / f"bank{len(ops)}"))
    return Workload(ops, cycle_s=3.9)


def adapt_repro(seed: int, opdir: Path) -> Workload:
    """exp1, exp2 and a shaped-input NLMS config, alternating."""
    rng = np.random.default_rng([seed, 2])
    opdir.mkdir(parents=True, exist_ok=True)
    config = opdir / "shaped.json"
    config.write_text(json.dumps({
        "name": "shaped",
        "fb": {"M": 2, "d": 1, "filters": [[4, 7, 2], [3, -1, -1.5]]},
        "input": {"kind": "shaped", "shaping": [1.0, float(rng.uniform(-0.5, 0.5))]},
        "algorithm": "nlms", "step": 0.5, "tap_len": 12,
        "n_iters": 5000, "snapshots": [1000, 5000],
    }))
    ops = [ExperimentOp("exp1", ["repro", "exp1"], seed, opdir),
           ExperimentOp("exp2", ["repro", "exp2"], seed, opdir),
           ExperimentOp("shaped", ["adapt", "--config", str(config)], seed, opdir)]
    return Workload(ops, cycle_s=0.77)


def verify_suite(seed: int, opdir: Path) -> Workload:
    """One op: the six property suites at their `verify --quick` case counts."""
    suites = [PropertyOp(name, seed, kwargs, name in FIXED_SEED_CHECKS)
              for name, kwargs in QUICK_CASES.items()]
    return Workload([VerifyPassOp(suites)], cycle_s=0.42)


WORKLOADS = {"solve_sweep": solve_sweep, "adapt_repro": adapt_repro,
             "verify_suite": verify_suite}
