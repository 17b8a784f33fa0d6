"""Randomized property suites behind the `verify` command.

Each check draws its own cases from a seeded generator and returns a
PropertyResult, so the same suites back both the CLI and the test
suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import LaurentPoly
from .spectra import FilterBankSpec, InputPSD, analysis_psd
from .wiener import (
    SingularBankError,
    closed_form_eval,
    submatrix_det_bruteforce,
    theorem1_det,
    wiener_solve,
)


@dataclass
class PropertyResult:
    name: str
    passed: bool
    cases: int
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = f"[{status}] {self.name} ({self.cases} cases)"
        return msg + (f": {self.detail}" if self.detail else "")


def random_bank(rng: np.random.Generator, M: int, L: int,
                order_max: int = 4, delay: int = 0) -> FilterBankSpec:
    filters = []
    for _ in range(L):
        order = int(rng.integers(1, order_max + 1))
        taps = rng.uniform(-1, 1, order + 1)
        taps[0] += np.sign(taps[0] or 1.0) * 0.5  # keep the leading tap away from 0
        filters.append(LaurentPoly.from_causal(taps))
    return FilterBankSpec(M=M, filters=tuple(filters), delay=delay)


def random_psd(rng: np.random.Generator, order_max: int = 3) -> InputPSD:
    order = int(rng.integers(0, order_max + 1))
    g = rng.uniform(-1, 1, order + 1)
    g[0] += np.sign(g[0] or 1.0) * 0.5
    return InputPSD(LaurentPoly.from_causal(g))


def random_unit_circle(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.exp(2j * np.pi * rng.uniform(0, 1, n))


def check_theorem1_agreement(seed: int = 0, cases: int = 500, points: int = 32,
                             flip_alias_sign: bool = False) -> PropertyResult:
    """Modulation-determinant expansion vs direct subdeterminant."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for case in range(cases):
        M = int(rng.integers(2, 5))
        L = int(rng.integers(1, 5))
        Q = int(rng.integers(1, min(L, M) + 1))
        fb = random_bank(rng, M, L)
        sx = random_psd(rng)
        rows = sorted(rng.choice(L, size=Q, replace=False).tolist())
        cols = sorted(rng.choice(L, size=Q, replace=False).tolist())
        z = random_unit_circle(rng, points)
        lhs = theorem1_det(fb, sx, rows, cols, z, flip_alias_sign=flip_alias_sign)
        rhs = submatrix_det_bruteforce(fb, sx, rows, cols)(z)
        err = np.abs(lhs - rhs) / (1.0 + np.abs(rhs))
        worst = max(worst, float(err.max()))
        if worst > 1e-8:
            return PropertyResult(
                "theorem1-agreement", False, case + 1,
                f"relative error {worst:.3e} > 1e-8 (M={M}, L={L}, Q={Q}, "
                f"rows={rows}, cols={cols})")
    return PropertyResult("theorem1-agreement", True, cases,
                          f"worst relative error {worst:.3e}")


def check_branch_independence(seed: int = 0, cases: int = 40,
                              points: int = 8) -> PropertyResult:
    """Every choice of the M-th root of z gives the same value."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for case in range(cases):
        M = int(rng.integers(2, 5))
        L = int(rng.integers(1, 5))
        Q = int(rng.integers(1, min(L, M) + 1))
        fb = random_bank(rng, M, L)
        sx = random_psd(rng)
        rows = sorted(rng.choice(L, size=Q, replace=False).tolist())
        cols = sorted(rng.choice(L, size=Q, replace=False).tolist())
        z = random_unit_circle(rng, points)
        base = theorem1_det(fb, sx, rows, cols, z, branch=0)
        scale = 1.0 + np.abs(base)
        for branch in range(1, M):
            alt = theorem1_det(fb, sx, rows, cols, z, branch=branch)
            worst = max(worst, float((np.abs(alt - base) / scale).max()))
        if worst > 1e-9:
            return PropertyResult("branch-independence", False, case + 1,
                                  f"relative branch spread {worst:.3e} > 1e-9")
    return PropertyResult("branch-independence", True, cases,
                          f"worst relative spread {worst:.3e}")


def _random_invertible_bank(rng, M, L, order_max=4):
    sx1 = InputPSD.white()
    for _ in range(50):
        fb = random_bank(rng, M, L, order_max)
        det = analysis_psd(fb, sx1).det()
        if det.max_abs_coeff() > 1e-6 * max(fb.filters[0].max_abs_coeff(), 1.0):
            return fb
    raise RuntimeError("could not draw an invertible bank")


def check_psd_invariance(seed: int = 0, cases: int = 50) -> PropertyResult:
    """Maximally decimated banks: the solution does not depend on S_xx."""
    rng = np.random.default_rng(seed)
    for case in range(cases):
        M = int(rng.integers(2, 4))
        fb = _random_invertible_bank(rng, M, M)
        a_white = wiener_solve(fb, InputPSD.white())
        a_shaped = wiener_solve(fb, random_psd(rng))
        if not a_white.A.equals(a_shaped.A, 1e-8):
            return PropertyResult("psd-invariance", False, case + 1,
                                  f"maximally decimated solution changed with the PSD (M={M})")
    return PropertyResult("psd-invariance", True, cases)


def check_psd_dependence(seed: int = 0) -> PropertyResult:
    """Non-maximally-decimated banks do depend on the PSD.

    With more channels than the decimation factor the subband PSD matrix
    is rank-deficient and no Wiener solution exists at all, so the
    dependence counterexample lives at L < M; an L > M draw is also made
    to confirm the singularity.
    """
    rng = np.random.default_rng(seed)
    fb = random_bank(rng, M=2, L=1)
    a_white = wiener_solve(fb, InputPSD.white())
    shaped = InputPSD(LaurentPoly.from_causal([1.0, 0.5]))
    a_shaped = wiener_solve(fb, shaped)
    if a_white.A.equals(a_shaped.A, 1e-8):
        return PropertyResult("psd-dependence", False, 1,
                              "undersampled solution unexpectedly PSD-independent")
    fb_over = random_bank(rng, M=2, L=3)
    try:
        wiener_solve(fb_over, InputPSD.white())
    except SingularBankError:
        pass
    else:
        return PropertyResult("psd-dependence", False, 2,
                              "oversampled bank (L > M) unexpectedly solvable")
    return PropertyResult("psd-dependence", True, 2,
                          "L < M depends on the PSD; L > M is singular as required")


def check_closed_form_consistency(seed: int = 0, cases: int = 20,
                                  points: int = 16) -> PropertyResult:
    """Closed-form entries equal the general solver on the unit circle."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for case in range(cases):
        M = int(rng.integers(2, 4))
        d = int(rng.integers(0, 3))
        fb = _random_invertible_bank(rng, M, M)
        fb = FilterBankSpec(M=M, filters=fb.filters, delay=d)
        ws = wiener_solve(fb, InputPSD.white())
        z = random_unit_circle(rng, points)
        for i in range(M):
            for j in range(M):
                ref = ws.A[i, j](z)
                cf = np.array([closed_form_eval(fb, i, j, zz) for zz in z])
                err = np.abs(cf - ref) / (1.0 + np.abs(ref))
                worst = max(worst, float(err.max()))
        if worst > 1e-8:
            return PropertyResult("closed-form-consistency", False, case + 1,
                                  f"relative error {worst:.3e} > 1e-8 (M={M}, d={d})")
    return PropertyResult("closed-form-consistency", True, cases,
                          f"worst relative error {worst:.3e}")


def check_wiener_identity(seed: int = 0, cases: int = 30) -> PropertyResult:
    """A * S_vv = S_dv holds for every solved instance."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for case in range(cases):
        M = int(rng.integers(2, 4))
        L = int(rng.integers(1, M + 1))
        try:
            fb = _random_invertible_bank(rng, M, L)
        except RuntimeError:
            continue
        ws = wiener_solve(fb, random_psd(rng))
        worst = max(worst, ws.identity_residual)
        if worst > 1e-9:
            return PropertyResult("wiener-identity", False, case + 1,
                                  f"identity residual {worst:.3e} > 1e-9")
    return PropertyResult("wiener-identity", True, cases,
                          f"worst identity residual {worst:.3e}")


def run_all(seed: int = 0, quick: bool = False,
            inject_fault: bool = False) -> list[PropertyResult]:
    n = 0.2 if quick else 1.0
    return [
        check_theorem1_agreement(seed, cases=max(int(500 * n), 20),
                                 flip_alias_sign=inject_fault),
        check_branch_independence(seed + 1, cases=max(int(40 * n), 8)),
        check_psd_invariance(seed + 2, cases=max(int(50 * n), 10)),
        check_psd_dependence(seed + 3),
        check_closed_form_consistency(seed + 4, cases=max(int(20 * n), 5)),
        check_wiener_identity(seed + 5, cases=max(int(30 * n), 8)),
    ]
