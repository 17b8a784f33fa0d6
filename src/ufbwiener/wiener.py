"""Exact matrix Wiener synthesis filter and its determinant identities.

The solver inverts the subband PSD matrix over the Laurent ring via
determinant and adjugate, so the synthesis filter A = S_dv adj S_vv /
det S_vv comes out as one numerator matrix over one shared denominator.
With the cancelled roots deflated out of both it is a RationalMatrix,
which its values, impulse responses and artifacts come from.  The
modulation-determinant expansion of that determinant is implemented as
a numeric evaluator, with a direct cofactor determinant as its
independent cross-check, and the closed-form maximally decimated entry
formula is evaluated the same way.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    LaurentPoly,
    PolyMatrix,
    RationalMatrix,
    _grid,
    _pair,
    poly_roots,
)
from .spectra import (
    FilterBankSpec,
    InputPSD,
    analysis_psd,
    cross_psd,
    generate_wss,
    run_analysis,
)


# Numerators whose largest coefficient is at most this fraction of the
# largest numerator coefficient are roundoff of an exactly zero entry:
# they take no part in pole classification and reduce to zero.
ROUNDOFF_NUMERATOR_REL = 1e-9

# A solution is stable when every genuine pole lies strictly inside
# |z| = 1 - STABILITY_MARGIN, a guard band against root-finder error.
STABILITY_MARGIN = 1e-9

# S_vv is singular when no coefficient of delta = det S_vv exceeds this
# fraction of max|S_vv|^L, the size of one L-fold product of entries:
# a dependent bank leaves delta at roundoff, near 1e-16 of that size.
SINGULAR_REL = 1e-10

# A delta root cancels when every live numerator is at most this fraction
# of the sum of its terms' magnitudes there: a shared root leaves roundoff
# near 1e-16, a genuine pole a value of order 1.
CANCEL_REL = 1e-7

# Dividing a cancelled root out of a polynomial may leave a remainder of
# at most this fraction of its largest coefficient; more means the root
# does not divide it.
DEFLATION_REMAINDER_REL = 1e-6

# A modulation determinant vanishes when it is at most this fraction of
# Hadamard's bound, the product of its rows' norms, so the singularity
# diagnosis does not depend on the scale of the taps.  det S_vv is
# quadratic in these determinants, so this is the square root of
# SINGULAR_REL: a bank found singular lists the sets that made it so.
VANISH_REL = 1e-5


class SingularBankError(ValueError):
    """The subband PSD matrix is singular; no Wiener synthesis filter exists."""


class ReductionError(ArithmeticError):
    """A cancelled delta root does not divide the delta or a numerator."""


@dataclass(frozen=True)
class WienerSolution:
    """Synthesis filter A(z) = numerators / delta, with delta = det S_vv.

    Keeps the input and the spectra it was solved from, so checks of the
    solution reuse them instead of rebuilding them.
    """

    M: int
    L: int
    delta: LaurentPoly
    numerators: PolyMatrix  # A = numerators / delta before cancellation
    poles: np.ndarray       # genuine poles (denominator roots not cancelled)
    stable: bool
    cancelled_roots: tuple[complex, ...]  # delta roots shared by all numerators
    sx: InputPSD = field(repr=False, compare=False)
    svv: PolyMatrix = field(repr=False, compare=False)
    sdv: PolyMatrix = field(repr=False, compare=False)

    @functools.cached_property
    def identity_residual(self) -> float:
        """Relative residual of A * S_vv = S_dv, computed on first read.

        The definitional identity, cross-multiplied by delta.
        """
        lhs = self.numerators @ self.svv
        rhs = self.sdv.scale(self.delta)
        res_scale = max(lhs.max_abs_coeff(), rhs.max_abs_coeff(), 1e-300)
        return (lhs - rhs).max_abs_coeff() / res_scale

    @functools.cached_property
    def _reduced(self) -> RationalMatrix:
        return _reduce_matrix(self.numerators, self.delta, self.cancelled_roots)

    def reduced(self) -> RationalMatrix:
        """A with the cancelled delta roots deflated out of num and den,
        computed on first call.

        The one form of A that values and artifacts come from: the raw
        shared denominator also carries the cancelled roots, which can lie
        on or outside the unit circle and would amplify roundoff.  Raises
        ReductionError when a cancelled root does not divide them.
        """
        return self._reduced

    def impulse_responses(self, n_terms: int) -> np.ndarray:
        """Causal impulse responses of all entries, shape (M, L, n_terms)."""
        return self.reduced().impulse_responses(n_terms)

    def to_json_dict(self) -> dict:
        return {
            "M": self.M,
            "L": self.L,
            "delta": self.delta.to_text(),
            "entries": self.reduced().entry_dicts(),
            "stable": self.stable,
            "poles": [[float(p.real), float(p.imag)] for p in self.poles],
        }


def wiener_solve(fb: FilterBankSpec, sx: InputPSD) -> WienerSolution:
    """A(z) = S_dv(z) S_vv(z)^-1 over the Laurent ring.

    Raises SingularBankError when det S_vv is the zero polynomial,
    including a diagnosis of which modulation determinants vanish.
    """
    svv = analysis_psd(fb, sx)
    sdv = cross_psd(fb, sx)
    delta, adj = svv.det_adjugate()

    scale = max(svv.max_abs_coeff(), 1e-300) ** fb.L
    if delta.max_abs_coeff() <= SINGULAR_REL * scale:
        raise SingularBankError(_singularity_diagnosis(fb, sx))

    nums = sdv @ adj
    poles, cancelled = _classify_delta_roots(nums, delta)
    stable = bool(np.all(np.abs(poles) < 1.0 - STABILITY_MARGIN))
    return WienerSolution(M=fb.M, L=fb.L, delta=delta, numerators=nums,
                          poles=poles, stable=stable, cancelled_roots=tuple(cancelled),
                          sx=sx, svv=svv, sdv=sdv)


def _classify_delta_roots(nums: PolyMatrix, delta: LaurentPoly
                          ) -> tuple[np.ndarray, list[complex]]:
    """Split delta's roots into genuine poles and cancelled roots.

    det S_vv is paraconjugate-symmetric, so its roots pair up as
    (r, 1/r*); the partners shared by every numerator entry cancel and
    must not be reported as poles.
    """
    roots = poly_roots(delta.coeffs)  # delta anchored at z^lowest_power; shift adds no roots
    scale = nums.max_abs_coeff()
    live = [num for row in nums.entries for num in row if not _is_roundoff(num, scale)]
    # every live numerator zero-padded onto one power grid from z**lo; with
    # no live numerator it has no rows and every root cancels
    coeffs, lo = _grid([_pair(num) for num in live])
    # |num(p)| against the sum of its terms' magnitudes, for every numerator
    # and root p at once.  delta's lowest coefficient is kept nonzero by the
    # trim, so no root is 0 and z**lo stays finite.
    values = np.zeros((len(live), roots.size), dtype=np.complex128)
    for column in coeffs[:, ::-1].T:  # Horner on descending powers
        values = values * roots + column[:, None]
    values *= roots ** lo
    powers = np.arange(lo, lo + coeffs.shape[1])
    bound = np.sum(np.abs(coeffs)[:, None, :] * np.abs(roots)[:, None] ** powers, axis=2)
    is_pole = np.any(np.abs(values) > CANCEL_REL * np.maximum(bound, 1e-300), axis=0)
    return roots[is_pole], [complex(p) for p in roots[~is_pole]]


def _is_roundoff(num: LaurentPoly, scale: float) -> bool:
    """True for exact zeros and pure-roundoff numerators (see ROUNDOFF_NUMERATOR_REL)."""
    return num.is_zero or num.max_abs_coeff() <= ROUNDOFF_NUMERATOR_REL * scale


def _deflate_one(c_desc: np.ndarray, r: complex) -> tuple[np.ndarray, float]:
    """Divide a descending-coefficient polynomial by (z - r).

    Forward synthetic division is stable for large roots and backward
    division for small ones; both are tried and the smaller residual
    wins, since the cancelled roots span both regimes.
    """
    n = c_desc.size - 1
    fwd = np.empty(n, dtype=np.complex128)
    acc = 0j
    for k in range(n):
        acc = c_desc[k] + r * acc
        fwd[k] = acc
    rem_f = abs(c_desc[n] + r * acc)
    if r != 0:
        bwd = np.empty(n, dtype=np.complex128)
        acc = 0j
        for k in range(n, 0, -1):
            acc = (acc - c_desc[k]) / r
            bwd[k - 1] = acc
        rem_b = abs(c_desc[0] - bwd[0])
        if rem_b < rem_f:
            return bwd, rem_b
    return fwd, rem_f


def _deflate(poly: LaurentPoly, roots: Sequence[complex]) -> LaurentPoly:
    """Divide out (z - r) for each given root; remainders must be noise."""
    if poly.is_zero or not roots:
        return poly
    c = poly.coeffs[::-1].copy()  # descending powers of the z-polynomial part
    if len(roots) >= c.size:
        raise ReductionError(f"{len(roots)} cancelled roots exceed the degree {c.size - 1} "
                             "of the Wiener filter's delta or a numerator")
    scale = float(np.abs(c).max())
    for r in sorted(roots, key=abs, reverse=True):
        c, rem = _deflate_one(c, r)
        if rem > DEFLATION_REMAINDER_REL * scale:
            raise ReductionError(f"cancelled root {r} does not divide the Wiener filter's "
                                 f"delta or numerators (remainder {rem:.2e})")
    return LaurentPoly(c[::-1], poly.lowest_power)


def _reduce_matrix(nums: PolyMatrix, delta: LaurentPoly,
                   cancelled: Sequence[complex]) -> RationalMatrix:
    den = _deflate(delta, cancelled)
    scale = nums.max_abs_coeff()
    return RationalMatrix(PolyMatrix([
        [LaurentPoly.zero() if _is_roundoff(num, scale)
         else _drop_roundoff_above(_deflate(num, cancelled), den.highest_power, scale)
         for num in row] for row in nums.entries]), den)


def _drop_roundoff_above(num: LaurentPoly, power: int, scale: float) -> LaurentPoly:
    """Drop the coefficients above z**power when all are roundoff.

    Deflation can leave roundoff one power above an exactly causal
    numerator; genuine coefficients there are kept, so a noncausal
    solution still fails its impulse-response expansion.
    """
    keep = max(num.coeffs.size - max(num.highest_power - power, 0), 0)
    if np.abs(num.coeffs[keep:]).max(initial=0.0) <= ROUNDOFF_NUMERATOR_REL * scale:
        return LaurentPoly(num.coeffs[:keep], num.lowest_power)
    return num


def _singularity_diagnosis(fb: FilterBankSpec, sx: InputPSD) -> str:
    if fb.L > fb.M:
        return (f"S_vv is singular: {fb.L} channels with decimation {fb.M} give "
                f"rank at most {fb.M} (oversampled bank, rank defect >= {fb.L - fb.M})")
    idx = tuple(range(fb.L))
    z = np.exp(0.7j)  # arbitrary probe on the unit circle
    combos = list(itertools.combinations(range(fb.M), fb.L))
    pts = _alias_points(z, fb.M, np.array(combos))
    rows = np.stack([h(pts) for h in fb.filters], axis=1)  # (combos, L filters, L points)
    hadamard = np.prod(np.linalg.norm(rows, axis=2), axis=1)
    vanished = [combo for combo, e, bound in zip(combos, np.linalg.det(rows), hadamard)
                if abs(e) <= VANISH_REL * bound]
    return ("S_vv is singular: all modulation determinants of the full bank vanish "
            f"at probe z={z:.3f} for alias index sets {vanished} "
            f"(rows/cols {idx}); the analysis filters are linearly dependent "
            "across alias components")


def submatrix_det_bruteforce(fb: FilterBankSpec, sx: InputPSD,
                             rows: Sequence[int], cols: Sequence[int]) -> LaurentPoly:
    """Direct determinant of the chosen Q x Q submatrix of S_vv.

    Built entry by entry with exact polynomial arithmetic and expanded
    by cofactors; serves as the independent oracle for the modulation
    determinant expansion below.
    """
    if len(rows) != len(cols):
        raise ValueError("row and column index lists must have equal length")
    tildes = [fb.filters[c].paraconjugate() for c in cols]
    grid = [[(fb.filters[r] * sx.psd * tildes[b]).downsample(fb.M)
             for b in range(len(cols))] for r in rows]
    return PolyMatrix(grid).det()


def theorem1_det(fb: FilterBankSpec, sx: InputPSD,
                 rows: Sequence[int], cols: Sequence[int],
                 z, branch: int = 0,
                 flip_alias_sign: bool = False):
    """Modulation-determinant expansion of a Q x Q subdeterminant of S_vv.

    Sums, over every strictly increasing choice of Q alias indices in
    [0, M), the product of the input PSD at the aliased points with the
    row and (paraconjugated) column modulation determinants, divided by
    M**Q.  Any choice of the M-th root of z gives the same value.

    `z` may be a scalar or a 1-d array of evaluation points.

    `flip_alias_sign` is a test-only fault injection that evaluates the
    PSD factors with the conjugate alias rotation; it must break the
    agreement with the brute-force determinant.
    """
    Q = len(rows)
    if Q != len(cols):
        raise ValueError("row and column index lists must have equal length")
    if not 1 <= Q <= fb.M:
        raise ValueError(f"need 1 <= Q <= M, got Q={Q}, M={fb.M}")
    M = fb.M
    z_arr = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    row_filters = [fb.filters[r] for r in rows]
    col_tildes = [fb.filters[c].paraconjugate() for c in cols]

    # every alias index set at once: points of shape (n_points, sets, Q)
    combos = np.array(list(itertools.combinations(range(M), Q)))
    pts = _alias_points(z_arr, M, combos, branch)
    psd_pts = _alias_points(z_arr, M, -combos, branch) if flip_alias_sign else pts
    s = np.prod(sx.psd(psd_pts), axis=-1)
    er = _batch_modulation_det(row_filters, pts)
    ec = _batch_modulation_det(col_tildes, pts)
    terms = s * er * ec  # (n_points, sets)

    total = np.zeros(z_arr.shape, dtype=np.complex128)
    for term in terms.T:  # summed in set order
        total += term
    total /= M ** Q
    return total if np.ndim(z) else complex(total[0])


def _alias_points(z, M: int, alias: np.ndarray, branch: int = 0) -> np.ndarray:
    """The aliased points u W**k, k in `alias`, of u = z**(1/M) W**branch.

    W = exp(-2j pi / M); the result has shape z.shape + alias.shape.
    """
    W = np.exp(-2j * np.pi / M)
    u = np.asarray(z, dtype=np.complex128) ** (1.0 / M) * W ** (branch % M)
    return u[(...,) + (None,) * np.ndim(alias)] * W ** alias


def _batch_modulation_det(filters: Sequence, pts: np.ndarray) -> np.ndarray:
    """det [ F_a(pts[..., b]) ] for every point row pts[...] at once."""
    stack = np.stack([f(pts) for f in filters], axis=-2)  # (..., Q rows, Q cols)
    return np.linalg.det(stack)


def closed_form_eval(fb: FilterBankSpec, i: int, j: int, z, branch: int = 0):
    """Closed-form Wiener entry A_{i,j}(z) for a maximally decimated bank.

    Ratio of two M x M modulation determinants: the denominator stacks
    the analysis filters at the M aliased points, the numerator replaces
    row j with the delay response w -> w**(-(d+i)).

    `z` may be a scalar, which gives a complex, or a 1-d array of
    evaluation points, which gives an array.
    """
    if not fb.is_maximally_decimated:
        raise ValueError("closed form requires a maximally decimated bank (L = M)")
    M = fb.M
    z_arr = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    pts = _alias_points(z_arr, M, np.arange(M), branch)  # (n_points, M)
    power = -(fb.delay + i)
    num_rows: list[Callable] = [
        (lambda w, p=power: w ** p) if r == j else fb.filters[r]
        for r in range(M)
    ]
    den = _batch_modulation_det(fb.filters, pts)
    vanished = np.abs(den) < 1e-300
    if vanished.any():
        raise ZeroDivisionError(f"modulation determinant vanishes at z={z_arr[vanished][0]}")
    out = _batch_modulation_det(num_rows, pts) / den
    return out if np.ndim(z) else complex(out[0])


def desired_psd(fb: FilterBankSpec, sx: InputPSD) -> PolyMatrix:
    """Blocked PSD of the delayed input: entry (i,j) = (S_xx z^(j-i)) down M."""
    return PolyMatrix([
        [(sx.psd.shift(j - i)).downsample(fb.M) for j in range(fb.M)]
        for i in range(fb.M)
    ])


@dataclass(frozen=True)
class ReconstructionReport:
    """Residuals certifying perfect reconstruction of the solved bank."""

    grid_angles: np.ndarray
    identity_residuals: np.ndarray   # |A S_vv A~ - S_dd| per grid point
    cross_residuals: np.ndarray      # |A S_vd - S_dd| per grid point
    max_identity_residual: float
    max_cross_residual: float
    time_domain_mse: float           # relative MSE of x_hat vs x(n-d), last 20%


def reconstruction_check(ws: WienerSolution, fb: FilterBankSpec,
                         n_taps: int = 60, n_samples: int = 100_000,
                         seed: int = 0) -> ReconstructionReport:
    """Verify that the Wiener synthesis stage reconstructs the input.

    Transform domain: A S_vv A~ = S_dd and A S_vd = S_dd on a unit-circle
    grid, with the S_vv and S_dv `ws` was solved from.  Time domain: noise
    drawn from the solution's input through analysis bank and truncated
    Wiener synthesis, relative MSE of the unblocked output against x(n-d)
    over the final 20% of the run.  Refuses an unstable solution, whose
    impulse responses do not decay, and names its poles; refuses n_taps < 1
    and an n_samples that leaves no sample to score.
    """
    if fb.L != fb.M:
        raise ValueError("reconstruction check requires a maximally decimated bank")
    if not ws.stable:
        poles = ", ".join(f"{p:.6g}" for p in ws.poles)
        raise ValueError("reconstruction check requires a stable Wiener solution; "
                         f"poles at {poles}")
    if n_taps < 1:
        raise ValueError(f"n_taps must be >= 1, got {n_taps}")
    if _xhat_length(fb.M, fb.delay, n_samples) < 1:
        shortest = fb.M * (1 + -(-fb.delay // fb.M))
        raise ValueError(f"n_samples={n_samples} leaves no sample to score; "
                         f"need n_samples >= {shortest} for M={fb.M}, d={fb.delay}")
    sx, svv, sdv = ws.sx, ws.svv, ws.sdv
    sdd = desired_psd(fb, sx)

    # 64 evenly spaced angles, then 16 drawn from the seed
    angles = np.concatenate([2 * np.pi * np.arange(64) / 64,
                             np.random.default_rng(seed).uniform(0, 2 * np.pi, 16)])
    z = np.exp(1j * angles)

    def at_angles(m) -> np.ndarray:
        """Entries evaluated on the whole grid, as (n_angles, rows, cols)."""
        return np.moveaxis(m(z), -1, 0)

    Az = at_angles(ws.reduced())
    Svv, Sdv, Sdd = at_angles(svv), at_angles(sdv), at_angles(sdd)
    AzH = Az.conj().transpose(0, 2, 1)
    scale = np.maximum(np.abs(Sdd).max(axis=(1, 2)), 1.0)
    id_res = np.abs(Az @ Svv @ AzH - Sdd).max(axis=(1, 2)) / scale
    cr_res = np.abs(Az @ Sdv.conj().transpose(0, 2, 1) - Sdd).max(axis=(1, 2)) / scale

    mse = _time_domain_mse(ws, fb, sx, n_taps=n_taps, n_samples=n_samples, seed=seed)
    return ReconstructionReport(
        grid_angles=angles,
        identity_residuals=id_res,
        cross_residuals=cr_res,
        max_identity_residual=float(id_res.max()),
        max_cross_residual=float(cr_res.max()),
        time_domain_mse=mse,
    )


def synthesize(taps: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply an (M, L, n_taps) FIR synthesis matrix to blocked input v (n, L)."""
    M, L, _ = taps.shape
    n = v.shape[0]
    y = np.zeros((n, M), dtype=np.complex128)
    for p in range(M):
        for q in range(L):
            y[:, p] += np.convolve(taps[p, q], v[:, q])[:n]
    return y


def unblock(y: np.ndarray, M: int, d: int) -> np.ndarray:
    """Invert the blocking d_i(n) = x(Mn - i - d): scatter y back to a scalar signal."""
    n = y.shape[0]
    # last filled sample index is M*(n-1) - d (block n-1, component i=0)
    out = np.zeros(max(M * (n - 1) - d + 1, 0), dtype=np.complex128)
    for i in range(M):
        idx = np.arange(n) * M - i - d
        valid = (idx >= 0) & (idx < out.size)
        out[idx[valid]] = y[valid, i]
    return out


def _xhat_length(M: int, d: int, n_samples: int) -> int:
    """Length of x_hat from n_samples of input: the last block writes
    sample M*(n_blocks - 1) - d."""
    return M * (n_samples // M - 1) - d + 1


def _time_domain_mse(ws: WienerSolution, fb: FilterBankSpec, sx: InputPSD,
                     n_taps: int, n_samples: int, seed: int) -> float:
    """Relative MSE of x_hat against x(n - d) over the last 20% of x_hat.

    Only the scored samples are simulated, with the synthesis and analysis
    history they read.  Each scored sample is the same full-overlap
    convolution dot product as in a run over all n_samples, so the result
    is bit for bit the same.
    """
    M, d = fb.M, fb.delay
    x = generate_wss(sx, n_samples, seed)  # all of it: the RNG stream stays the same
    n = _xhat_length(M, d, n_samples)
    t0 = int(0.8 * n)
    b0 = -(-(t0 + d) // M)  # first block that writes a sample t >= t0
    # One block and one sample more history than the filters need: each
    # windowed signal then stays longer than its filter, as the full-length
    # one is, so np.convolve keeps its operand order and summation order.
    bv = max(b0 - n_taps, 0)
    K = max(fb.taps(j).size for j in range(fb.L))  # run_analysis's longest filter
    s = max((M * bv - K) // M * M, 0)  # whole blocks: the decimation phase holds
    v = run_analysis(fb, x[s:])[bv - s // M:]
    y = synthesize(ws.impulse_responses(n_taps), v)
    xhat = unblock(y, M, d - M * bv)[t0:]  # row 0 of y is block bv
    ref = np.asarray(x[t0:n], dtype=np.complex128)
    err = np.abs(xhat - ref) ** 2
    return float(err.mean() / (np.abs(ref) ** 2).mean())
