"""Laurent polynomial and rational transfer-function arithmetic.

Everything here is exact coefficient arithmetic over finite two-sided
power series in z^-1 with complex double-precision coefficients.  These
carry the analysis filters, spectral densities and synthesis transfer
functions used by the rest of the package.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Iterable, Sequence

import numpy as np

# Relative trim threshold for canonical representations; coefficients
# smaller than TRIM_REL * max|c| (with an absolute floor) at either end
# of the series are dropped.
TRIM_REL = 1e-12
TRIM_ABS_FLOOR = 1e-300


class NonCausalError(ValueError):
    """Raised when a causal impulse-response expansion does not exist."""


class NonFiniteError(ValueError):
    """Raised when a polynomial would hold a NaN or infinite coefficient."""


class LaurentPoly:
    """Finite Laurent series sum_k c[k] * z**(lowest_power + k).

    Instances are immutable by convention: no method mutates `self`.
    Coefficients are always stored trimmed, so two equal polynomials
    have identical representations.  A NaN or infinite coefficient,
    given or produced by arithmetic, raises NonFiniteError.
    """

    __slots__ = ("lowest_power", "coeffs")

    def __init__(self, coeffs: Iterable[complex], lowest_power: int = 0):
        # np.array copies, so the caller's array is never shared.
        c = np.array(coeffs if isinstance(coeffs, np.ndarray) else list(coeffs),
                     dtype=np.complex128).ravel()
        lo = int(lowest_power)
        if c.size:
            a = np.abs(c)
            scale = float(a.max())
            if not math.isfinite(scale):
                # |c| can overflow for a finite complex c; only NaN or inf is an error
                bad = np.flatnonzero(~np.isfinite(c))
                if bad.size:
                    k = int(bad[0])
                    raise NonFiniteError(
                        f"non-finite coefficient {complex(c[k])} of z^{lo + k}")
            thresh = max(TRIM_REL * scale, TRIM_ABS_FLOOR)
            if not (a[0] >= thresh and a[-1] >= thresh):
                kept = np.flatnonzero(a >= thresh)
                if kept.size:
                    lo += int(kept[0])
                    c = c[kept[0]:kept[-1] + 1]
                else:
                    c = c[:0]
        if c.size == 0:
            lo = 0
        object.__setattr__(self, "lowest_power", lo)
        object.__setattr__(self, "coeffs", c)
        c.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls([])

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls([1.0])

    @classmethod
    def delay(cls, k: int) -> "LaurentPoly":
        """z**(-k)."""
        return cls([1.0], lowest_power=-k)

    @classmethod
    def from_causal(cls, taps: Sequence[complex]) -> "LaurentPoly":
        """Build h(z) = taps[0] + taps[1] z^-1 + ... from causal taps."""
        n = len(taps)
        return cls(list(taps)[::-1], lowest_power=-(n - 1) if n else 0)

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 0

    @property
    def highest_power(self) -> int:
        return self.lowest_power + self.coeffs.size - 1

    def coeff(self, power: int) -> complex:
        """Coefficient of z**power (0 outside the stored range)."""
        k = power - self.lowest_power
        if 0 <= k < self.coeffs.size:
            return complex(self.coeffs[k])
        return 0.0

    @property
    def is_causal(self) -> bool:
        """No positive power of z (no advance); the zero polynomial is causal."""
        return self.is_zero or self.highest_power <= 0

    def causal_taps(self, n: int | None = None) -> np.ndarray:
        """First n coefficients [z^0, z^-1, ...], by default all ([0] for
        the zero polynomial); raises if powers > 0 exist."""
        if not self.is_causal:
            raise NonCausalError("polynomial has positive powers of z")
        if n is None:
            n = 1 - self.lowest_power
        return np.array([self.coeff(-k) for k in range(n)], dtype=np.complex128)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self.lowest_power == other.lowest_power
                and self.coeffs.shape == other.coeffs.shape
                and bool(np.array_equal(self.coeffs, other.coeffs)))

    def __hash__(self):
        return hash((self.lowest_power, self.coeffs.tobytes()))

    def almost_equal(self, other: "LaurentPoly", tol: float = 1e-9) -> bool:
        d = self - other
        scale = max(self.max_abs_coeff(), other.max_abs_coeff(), 1e-300)
        return d.max_abs_coeff() <= tol * scale

    def max_abs_coeff(self) -> float:
        return float(np.abs(self.coeffs).max()) if self.coeffs.size else 0.0

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.lowest_power, other.lowest_power)
        hi = max(self.highest_power, other.highest_power)
        out = np.zeros(hi - lo + 1, dtype=np.complex128)
        out[self.lowest_power - lo:self.highest_power - lo + 1] += self.coeffs
        out[other.lowest_power - lo:other.highest_power - lo + 1] += other.coeffs
        return LaurentPoly(out, lo)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(-self.coeffs, self.lowest_power)

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return LaurentPoly(self.coeffs * other, self.lowest_power)
        other = _as_poly(other)
        if self.is_zero or other.is_zero:
            return LaurentPoly.zero()
        return LaurentPoly(np.convolve(self.coeffs, other.coeffs),
                           self.lowest_power + other.lowest_power)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by z**k."""
        if self.is_zero:
            return self
        return LaurentPoly(self.coeffs, self.lowest_power + k)

    def paraconjugate(self) -> "LaurentPoly":
        """Conjugate coefficients and substitute z -> z^-1."""
        if self.is_zero:
            return self
        return LaurentPoly(np.conj(self.coeffs[::-1]), -self.highest_power)

    def downsample(self, m: int) -> "LaurentPoly":
        """Keep only powers z**(m*k); the kept coefficient moves to z**k."""
        if m < 1:
            raise ValueError("downsampling factor must be >= 1")
        if m == 1 or self.is_zero:
            return self
        powers = self.lowest_power + np.arange(self.coeffs.size)
        sel = powers % m == 0
        if not sel.any():
            return LaurentPoly.zero()
        kept = powers[sel] // m
        out = np.zeros(kept[-1] - kept[0] + 1, dtype=np.complex128)
        out[kept - kept[0]] = self.coeffs[sel]
        return LaurentPoly(out, int(kept[0]))

    def __call__(self, z):
        """Evaluate at a complex point or ndarray of points."""
        if self.is_zero:
            return np.zeros_like(np.asarray(z, dtype=np.complex128)) if np.ndim(z) else 0j
        z = np.asarray(z, dtype=np.complex128)
        # Horner on descending powers, then the Laurent offset.
        val = np.polyval(self.coeffs[::-1], z)
        out = val * z ** self.lowest_power
        return out if out.ndim else complex(out)

    # -- text form --------------------------------------------------------

    def to_text(self) -> str:
        """`lowest_power;c0_re,c0_im;...` (used in logs and CSV)."""
        parts = [str(self.lowest_power)]
        parts += [f"{float(c.real)!r},{float(c.imag)!r}" for c in self.coeffs]
        return ";".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "LaurentPoly":
        fields = text.strip().split(";")
        lo = int(fields[0])
        coeffs = [complex(float(re), float(im))
                  for re, im in (f.split(",") for f in fields[1:] if f)]
        return cls(coeffs, lo)

    def __repr__(self):
        if self.is_zero:
            return "LaurentPoly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            p = self.lowest_power + k
            cs = f"{c.real:g}" if c.imag == 0 else f"({c.real:g}{c.imag:+g}j)"
            terms.append(cs if p == 0 else f"{cs}*z^{p}")
        return "LaurentPoly(" + " + ".join(terms) + ")"


def _as_poly(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, float, complex)):
        return LaurentPoly([x])
    raise TypeError(f"cannot interpret {type(x).__name__} as LaurentPoly")


class PolyMatrix:
    """Rectangular matrix of LaurentPoly entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[LaurentPoly]]):
        grid = [[_as_poly(e) for e in row] for row in entries]
        if not grid or not grid[0]:
            raise ValueError("PolyMatrix must be non-empty")
        ncols = len(grid[0])
        if any(len(row) != ncols for row in grid):
            raise ValueError("ragged rows in PolyMatrix")
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", grid)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        return cls([[LaurentPoly.one() if i == j else LaurentPoly.zero()
                     for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "PolyMatrix":
        return cls([[LaurentPoly.zero()] * cols for _ in range(rows)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __add__(self, other):
        self._check_shape(other)
        return PolyMatrix([[self.entries[i][j] + other.entries[i][j]
                            for j in range(self.cols)] for i in range(self.rows)])

    def __sub__(self, other):
        self._check_shape(other)
        return PolyMatrix([[self.entries[i][j] - other.entries[i][j]
                            for j in range(self.cols)] for i in range(self.rows)])

    def _check_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = LaurentPoly.zero()
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return PolyMatrix(out)

    def scale(self, p: LaurentPoly) -> "PolyMatrix":
        return PolyMatrix([[e * p for e in row] for row in self.entries])

    def paraconjugate(self) -> "PolyMatrix":
        """Tilde operator: conjugate coefficients, transpose, z -> z^-1."""
        return PolyMatrix([[self.entries[j][i].paraconjugate()
                            for j in range(self.rows)] for i in range(self.cols)])

    def __call__(self, z) -> np.ndarray:
        return np.array([[self.entries[i][j](z) for j in range(self.cols)]
                         for i in range(self.rows)], dtype=np.complex128)

    def max_abs_coeff(self) -> float:
        return max((e.max_abs_coeff() for row in self.entries for e in row), default=0.0)

    def almost_equal(self, other: "PolyMatrix", tol: float = 1e-9) -> bool:
        self._check_shape(other)
        scale = max(self.max_abs_coeff(), other.max_abs_coeff(), 1e-300)
        return (self - other).max_abs_coeff() <= tol * scale

    def det(self) -> LaurentPoly:
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        full = tuple(range(self.rows))
        return _minor_det(self.entries)(full, full)

    def det_adjugate(self) -> tuple[LaurentPoly, "PolyMatrix"]:
        """Determinant and adjugate by memoized cofactor expansion.

        Satisfies m @ adj == det * I as a polynomial identity.  Every
        minor is expanded once and shared, so an n x n matrix costs
        O(n^2 * 2^n) polynomial products instead of O(n!).
        """
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        n = self.rows
        minor_det = _minor_det(self.entries)
        full = tuple(range(n))
        det = minor_det(full, full)
        if n == 1:
            return det, PolyMatrix([[LaurentPoly.one()]])
        adj = []
        for i in range(n):
            row = []
            for j in range(n):
                # adj[i][j] = cofactor C_{j,i}
                cof = minor_det(full[:j] + full[j + 1:], full[:i] + full[i + 1:])
                if (i + j) % 2:
                    cof = -cof
                row.append(cof)
            adj.append(row)
        return det, PolyMatrix(adj)

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols})"


def _minor_det(grid: list[list[LaurentPoly]]):
    """Memoized `det(rows, cols)` of the minors of `grid`.

    Laplace expansion along the first listed row, skipping zero entries;
    each (rows, cols) pair is computed once per returned function.
    """
    @functools.cache
    def det(rows: tuple[int, ...], cols: tuple[int, ...]) -> LaurentPoly:
        r0 = grid[rows[0]]
        if len(rows) == 1:
            return r0[cols[0]]
        if len(rows) == 2:
            r1 = grid[rows[1]]
            return r0[cols[0]] * r1[cols[1]] - r0[cols[1]] * r1[cols[0]]
        acc = LaurentPoly.zero()
        for j, c in enumerate(cols):
            if r0[c].is_zero:
                continue
            term = r0[c] * det(rows[1:], cols[:j] + cols[j + 1:])
            acc = acc + (term if j % 2 == 0 else -term)
        return acc

    return det


def poly_roots(coeffs_ascending: np.ndarray) -> np.ndarray:
    """Roots of sum_k c[k] x**k via the companion matrix, Newton-polished."""
    c = np.asarray(coeffs_ascending, dtype=np.complex128)
    c = np.trim_zeros(c, "b")
    if c.size <= 1:
        return np.empty(0, dtype=np.complex128)
    c = c / c[-1]
    n = c.size - 1
    comp = np.zeros((n, n), dtype=np.complex128)
    comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = -c[:-1]
    roots = np.linalg.eigvals(comp)
    dc = c[1:] * np.arange(1, n + 1)
    # Newton polish
    for _ in range(3):
        p = np.polyval(c[::-1], roots)
        dp = np.polyval(dc[::-1], roots)
        ok = np.abs(dp) > 1e-14
        roots[ok] -= p[ok] / dp[ok]
    return roots


class RationalTF:
    """Ratio of two Laurent polynomials, num/den.

    The denominator is normalized to lowest power 0 with its leading
    (highest-power) coefficient equal to 1; the factor is absorbed into
    the numerator.  Equality is by cross-multiplication, so no GCD
    cancellation is ever required for correctness.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        shift = -den.lowest_power
        den = den.shift(shift)
        num = num.shift(shift)
        lead = den.coeffs[-1]
        den = den * (1.0 / lead)
        num = num * (1.0 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalTF is immutable")

    def __call__(self, z):
        return self.num(z) / self.den(z)

    def equals(self, other: "RationalTF", tol: float = 1e-9) -> bool:
        """a/b == c/d iff a*d - c*b is numerically zero (relative).

        The denominator product enters the scale so that numerators which
        are pure roundoff relative to their denominators compare equal to
        an exact zero.
        """
        lhs = self.num * other.den
        rhs = other.num * self.den
        scale = max(lhs.max_abs_coeff(), rhs.max_abs_coeff(),
                    self.den.max_abs_coeff() * other.den.max_abs_coeff(), 1e-300)
        return (lhs - rhs).max_abs_coeff() <= tol * scale

    def require_causal(self) -> None:
        """Raise NonCausalError if num's highest power exceeds den's (a z-advance)."""
        deg = self.den.highest_power
        if not self.num.is_zero and self.num.highest_power > deg:
            raise NonCausalError(
                f"numerator degree {self.num.highest_power} exceeds denominator degree {deg}")

    def impulse_response(self, n_terms: int) -> np.ndarray:
        """First n_terms coefficients of the causal power series in z^-1."""
        if n_terms < 1:
            raise ValueError("n_terms must be positive")
        self.require_causal()
        if self.num.is_zero:
            return np.zeros(n_terms, dtype=np.complex128)
        deg = self.den.highest_power
        # long division in powers of z^-1, anchored at z^deg
        d = np.array([self.den.coeff(deg - m) for m in range(deg + 1)], dtype=np.complex128)
        h = np.zeros(n_terms, dtype=np.complex128)
        for k in range(n_terms):
            acc = self.num.coeff(deg - k)
            for m in range(1, min(k, deg) + 1):
                acc -= d[m] * h[k - m]
            h[k] = acc / d[0]
        return h

    def to_dict(self) -> dict:
        return {"num": self.num.to_text(), "den": self.den.to_text()}

    @classmethod
    def from_dict(cls, d: dict) -> "RationalTF":
        return cls(LaurentPoly.from_text(d["num"]), LaurentPoly.from_text(d["den"]))

    def __repr__(self):
        return f"RationalTF({self.num!r} / {self.den!r})"


class RationalMatrix:
    """Matrix of RationalTF entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[RationalTF]]):
        grid = [list(row) for row in entries]
        ncols = len(grid[0])
        if any(len(row) != ncols for row in grid):
            raise ValueError("ragged rows in RationalMatrix")
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", grid)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __call__(self, z) -> np.ndarray:
        return np.array([[e(z) for e in row] for row in self.entries],
                        dtype=np.complex128)

    def equals(self, other: "RationalMatrix", tol: float = 1e-9) -> bool:
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(self.entries[i][j].equals(other.entries[i][j], tol)
                   for i in range(self.rows) for j in range(self.cols))

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"
