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

# poly_roots Newton-polishes a root only where |p'(r)| of the monic p exceeds
# this: at a multiple root p' vanishes, and p/p' would be 0/0 or blow up.
NEWTON_MIN_SLOPE = 1e-14


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
        _fill(self, *_trim(c, int(lowest_power)))

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

    def causal_taps(self) -> np.ndarray:
        """All coefficients [z^0, z^-1, ...] ([0] for the zero polynomial);
        raises if powers > 0 exist."""
        if not self.is_causal:
            raise NonCausalError("polynomial has positive powers of z")
        return np.array([self.coeff(-k) for k in range(1 - self.lowest_power)],
                        dtype=np.complex128)

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
        with np.errstate(over="ignore"):
            return _wrap(*_add(_pair(self), _pair(_as_poly(other))))

    __radd__ = __add__

    def __neg__(self):
        return _wrap(-self.coeffs, self.lowest_power)

    def __sub__(self, other):
        with np.errstate(over="ignore"):
            return _wrap(*_add(_pair(self), _pair(_as_poly(other)), subtract=True))

    def __rsub__(self, other):
        return _as_poly(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return _wrap(*_trim(self.coeffs * other, self.lowest_power))
        return _wrap(*_mul(_pair(self), _pair(_as_poly(other))))

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by z**k."""
        if self.is_zero:
            return self
        return _wrap(self.coeffs, self.lowest_power + k)

    def paraconjugate(self) -> "LaurentPoly":
        """Conjugate coefficients and substitute z -> z^-1."""
        if self.is_zero:
            return self
        return _wrap(np.conj(self.coeffs[::-1]), -self.highest_power)

    def downsample(self, m: int) -> "LaurentPoly":
        """Keep only powers z**(m*k); the kept coefficient moves to z**k."""
        if m < 1:
            raise ValueError("downsampling factor must be >= 1")
        if m == 1 or self.is_zero:
            return self
        start = -self.lowest_power % m  # index of the lowest power divisible by m
        return _wrap(*_trim(self.coeffs[start::m].copy(), (self.lowest_power + start) // m))

    def __call__(self, z):
        """Evaluate at a complex point or ndarray of points."""
        z = np.asarray(z, dtype=np.complex128)
        # Horner on descending powers (none for the zero polynomial, which
        # gives +0), then the Laurent offset.
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


# -- the coefficient-array kernel ---------------------------------------------
#
# The arithmetic runs on (coeffs, lowest_power) pairs: a trimmed 1-d
# complex128 array and the power of z of its first entry, with the zero
# polynomial as an empty array at power 0.  Matrix routines keep their
# intermediate results as pairs and build a LaurentPoly only for each
# output entry, so every result is trimmed exactly once, by `_trim`.
#
# `@` and every `det` and `det_adjugate` from 3 x 3 up run the dense kernel
# (below), which trims only its outputs, against the magnitudes of the
# terms each coefficient sums; a 2 x 2 determinant is its closed form,
# two _mul and one _add.  Each matrix routine runs under one np.errstate,
# so an overflow raises NonFiniteError from `_trim` with no RuntimeWarning
# first.

def _trim(c: np.ndarray, lo: int) -> tuple[np.ndarray, int]:
    """Canonical pair of the 1-d complex array c anchored at z**lo.

    Drops the end coefficients under TRIM_REL * max|c| (and under
    TRIM_ABS_FLOOR); raises NonFiniteError for a NaN or infinite entry.
    The returned array is c or a slice of it.
    """
    if not c.size:
        return c, 0
    a = np.abs(c)
    mags = a.tolist()  # builtin max/compare beat numpy's on a few entries
    # the sum is NaN or inf whenever any |c| is: max alone can skip a NaN
    if not math.isfinite(sum(mags)):
        # |c| can overflow for a finite complex c; only NaN or inf is an error
        bad = np.flatnonzero(~np.isfinite(c))
        if bad.size:
            k = int(bad[0])
            raise NonFiniteError(f"non-finite coefficient {complex(c[k])} of z^{lo + k}")
    thresh = max(TRIM_REL * max(mags), TRIM_ABS_FLOOR)
    if mags[0] >= thresh and mags[-1] >= thresh:
        return c, lo
    kept = np.flatnonzero(a >= thresh)
    if not kept.size:
        return c[:0], 0
    return c[kept[0]:kept[-1] + 1], lo + int(kept[0])


def _fill(p: LaurentPoly, c: np.ndarray, lo: int) -> LaurentPoly:
    """Give p the trimmed pair (c, lo); p now owns c, which becomes read-only.

    Every LaurentPoly gets its coefficients here.
    """
    object.__setattr__(p, "lowest_power", lo)
    object.__setattr__(p, "coeffs", c)
    c.setflags(write=False)
    return p


def _wrap(c: np.ndarray, lo: int) -> LaurentPoly:
    """A LaurentPoly around the trimmed pair (c, lo), without copying c."""
    return _fill(object.__new__(LaurentPoly), c, lo)


_Pair = tuple[np.ndarray, int]
_ZERO: _Pair = (np.empty(0, dtype=np.complex128), 0)
_ZERO[0].setflags(write=False)  # shared by every zero result


def _pair(p: LaurentPoly) -> _Pair:
    return p.coeffs, p.lowest_power


def _mul(x: _Pair, y: _Pair) -> _Pair:
    (xc, xlo), (yc, ylo) = x, y
    if not xc.size or not yc.size:
        return _ZERO
    return _trim(np.convolve(xc, yc), xlo + ylo)


def _add(x: _Pair, y: _Pair, subtract: bool = False) -> _Pair:
    """x + y, or x - y, which IEEE makes bit-identical to x + (-y), signed
    zeros included.  A zero operand gives the other one (negated for -y)."""
    (xc, xlo), (yc, ylo) = x, y
    if not yc.size:
        return x
    if not xc.size:
        return (-yc if subtract else yc), ylo
    lo = min(xlo, ylo)
    out = np.zeros(max(xlo + xc.size, ylo + yc.size) - lo, dtype=np.complex128)
    out[xlo - lo:xlo - lo + xc.size] += xc
    if subtract:
        out[ylo - lo:ylo - lo + yc.size] -= yc
    else:
        out[ylo - lo:ylo - lo + yc.size] += yc
    return _trim(out, lo)


def _pairs(m: "PolyMatrix") -> list[list[_Pair]]:
    return [[_pair(e) for e in row] for row in m.entries]


def _wrap_grid(grid: list[list[_Pair]]) -> "PolyMatrix":
    return PolyMatrix([[_wrap(c, lo) for c, lo in row] for row in grid])


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
        return self._entrywise(other, subtract=False)

    def __sub__(self, other):
        return self._entrywise(other, subtract=True)

    def _entrywise(self, other, subtract: bool) -> "PolyMatrix":
        self._check_shape(other)
        with np.errstate(over="ignore"):
            return _wrap_grid([[_add(x, y, subtract) for x, y in zip(xs, ys)]
                               for xs, ys in zip(_pairs(self), _pairs(other))])

    def _check_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        with np.errstate(over="ignore", invalid="ignore"):
            return _wrap_grid(_dense_matmul(_flat(self), _flat(other),
                                            self.rows, self.cols, other.cols))

    def scale(self, p: LaurentPoly) -> "PolyMatrix":
        y = _pair(p)
        return _wrap_grid([[_mul(x, y) for x in row] for row in _pairs(self)])

    def paraconjugate(self) -> "PolyMatrix":
        """Tilde operator: conjugate coefficients, transpose, z -> z^-1."""
        return PolyMatrix([[self.entries[j][i].paraconjugate()
                            for j in range(self.rows)] for i in range(self.cols)])

    def __call__(self, z) -> np.ndarray:
        """Every entry at z, shape (rows, cols) + z.shape, in one Horner pass;
        at an ndarray z of two or more points, bit for bit each entry's own
        call (at one point, the two round differently).  Zero padding
        keeps a Horner sum at +0 up to its entry's first coefficient, and
        z ** lowest_power takes a Python int, as that call does (numpy
        rounds z ** -1 and z ** 2 differently for an integer-array exponent).
        """
        z = np.asarray(z, dtype=np.complex128)
        pairs = _flat(self)
        # row k: coefficient k of every entry, zero past an entry's last
        ascending = _grid([(c, 0) for c, _ in pairs])[0].T
        out = np.zeros((len(pairs),) + z.shape, dtype=np.complex128)
        for column in ascending[::-1].reshape(ascending.shape + (1,) * z.ndim):
            out = out * z + column
        lows = np.array([lo for _, lo in pairs])
        for lo in set(lows.tolist()):
            out[lows == lo] *= z ** lo
        return out.reshape((self.rows, self.cols) + z.shape)

    def max_abs_coeff(self) -> float:
        return max((e.max_abs_coeff() for row in self.entries for e in row), default=0.0)

    def almost_equal(self, other: "PolyMatrix", tol: float = 1e-9) -> bool:
        self._check_shape(other)
        scale = max(self.max_abs_coeff(), other.max_abs_coeff(), 1e-300)
        return (self - other).max_abs_coeff() <= tol * scale

    def det(self) -> LaurentPoly:
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        with np.errstate(over="ignore", invalid="ignore"):
            return _wrap(*_expand(_flat(self), self.rows, cofactors=False)[1])

    def det_adjugate(self) -> tuple[LaurentPoly, "PolyMatrix"]:
        """Determinant and adjugate by memoized cofactor expansion.

        Satisfies m @ adj == det * I as a polynomial identity.  Every
        minor is expanded once and shared, so an n x n matrix costs
        O(n^2 * 2^n) polynomial products instead of O(n!).  From 3 x 3
        on, the dense kernel evaluates the minors level by level,
        smallest first, from the schedule `_minor_schedule(n, True)`; a
        2 x 2 matrix's cofactors are its entries.
        """
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        n = self.rows
        with np.errstate(over="ignore", invalid="ignore"):
            cofactors, det = _expand(_flat(self), n, cofactors=True)
        if n == 1:
            return _wrap(*det), PolyMatrix([[LaurentPoly.one()]])
        # adj[i][j] = cofactor C_{j,i}
        where = _minor_schedule(n, cofactors=True)[1]
        adj = [[(-c if (i + j) % 2 else c, lo)
                for j, (c, lo) in enumerate(cofactors[k] for k in row)]
               for i, row in enumerate(where.tolist())]
        return _wrap(*det), _wrap_grid(adj)

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols})"


def _flat(m: PolyMatrix) -> list[_Pair]:
    """The entries of m as pairs, row by row: entry (r, c) at r * m.cols + c."""
    return [_pair(e) for row in m.entries for e in row]


# -- the cofactor schedule ------------------------------------------------------

@functools.cache
def _minor_schedule(n: int, cofactors: bool):
    """The minors the memoized Laplace expansion of an n x n determinant
    computes, grouped by size, with the full determinant and, for
    `cofactors`, the n^2 minors of size n - 1 as the roots.

    A minor is expanded along its first row.  Level s = 2..n is a pair of
    (count, s) int arrays (entry, sub): term j of minor i is the matrix
    entry with flat index entry[i, j] (r * n + c) times minor sub[i, j] of
    size s - 1, subtracted for odd j.  The minors of size 1 are the
    entries, by flat index.  The full determinant is minor 0 of size n.
    Returns (levels, where): levels[s - 2] is level s, and where[i, j]
    indexes, among the minors of size n - 1, the cofactor adj[i][j] is
    signed from (None without `cofactors`).
    """
    full = tuple(range(n))
    index = [{} for _ in range(n + 1)]  # index[s][(rows, cols)]: place in size s
    index[1] = {((r,), (c,)): r * n + c for r in full for c in full}

    def add(rows, cols):
        return index[len(rows)].setdefault((rows, cols), len(index[len(rows)]))

    def drop(k):
        return full[:k] + full[k + 1:]

    add(full, full)
    where = None
    if cofactors and n > 1:
        where = np.array([[add(drop(j), drop(i)) for j in full] for i in full])
        where.setflags(write=False)
    levels = []
    for s in range(n, 1, -1):
        minors = list(index[s])
        entry = np.array([[rows[0] * n + c for c in cols] for rows, cols in minors])
        sub = np.array([[add(rows[1:], cols[:j] + cols[j + 1:]) for j in range(s)]
                        for rows, cols in minors])
        entry.setflags(write=False)
        sub.setflags(write=False)
        levels.append((entry, sub))
    return tuple(levels[::-1]), where


def _expand(entries: list[_Pair], n: int, cofactors: bool) -> tuple[list[_Pair], _Pair]:
    """Evaluate `_minor_schedule(n, cofactors)` on the flat entries of an
    n x n matrix of pairs; returns the minors of size n - 1 and the
    determinant.

    Up to 2 x 2 the minors are the entries and the determinant is its
    closed form; from 3 x 3 on the dense kernel computes every minor of
    the schedule, so an overflowing minor raises NonFiniteError even where
    only zero entries multiply it.  `det` and `det_adjugate` return the
    same determinant.
    """
    if n == 1:
        return [], entries[0]
    if n == 2:
        e00, e01, e10, e11 = entries
        return entries, _add(_mul(e00, e11), _mul(e01, e10), subtract=True)
    return _dense_expand(entries, _minor_schedule(n, cofactors)[0])


# -- the dense kernel -----------------------------------------------------------

def _grid(pairs: list[_Pair]) -> tuple[np.ndarray, int]:
    """The pairs zero-padded onto one (len(pairs), W) array whose column k
    is the power z**(lo + k); returns it and lo."""
    live = [(c, at) for c, at in pairs if c.size]
    lo = min((at for _, at in live), default=0)
    width = max((at + c.size for c, at in live), default=lo + 1) - lo
    grid = np.zeros((len(pairs), width), dtype=np.complex128)
    for row, (c, at) in zip(grid, pairs):
        row[at - lo:at - lo + c.size] = c
    return grid, lo


def _dense_expand(entries: list[_Pair], levels) -> tuple[list[_Pair], _Pair]:
    """`_expand` on zero-padded grids: the entries on an (n^2, W0) one from
    z**lo, the minors of size s on a (count, s * (W0 - 1) + 1) one from
    z**(s * lo).  A level gathers its terms with the Laplace signs folded
    into their entries, and W0 batched matmuls, one per entry coefficient,
    add every product into place.  Alongside runs the unsigned expansion
    of the magnitudes, which bounds what the terms of each coefficient sum
    to; each output is trimmed against it, the minors of size n - 1 first,
    so an overflowing minor raises NonFiniteError naming its inf before a
    zero entry times it makes NaN of the determinant.
    """
    grid, lo = _grid(entries)
    width = grid.shape[1]
    grids = np.stack([grid, np.abs(grid)])  # [0] the expansion, [1] its bound
    prev = below = grids
    for entry, sub in levels:
        gathered = grids[:, entry]  # (2, count, s, W0)
        gathered[0, :, 1::2] = -gathered[0, :, 1::2]
        terms = below[:, sub]  # (2, count, s, width of the minors below)
        span = below.shape[2]
        level = np.zeros((2, len(entry), width + span - 1), dtype=np.complex128)
        for t in range(width):
            level[..., t:t + span] += np.matmul(gathered[:, :, None, :, t], terms)[:, :, 0]
        prev, below = below, level
    n = len(levels) + 1
    minors = _trim_bounded(prev[0], prev[1].real, (n - 1) * lo)
    return minors, _trim_bounded(below[0], below[1].real, n * lo)[0]


def _trim_bounded(c: np.ndarray, bound: np.ndarray, lo: int) -> list[_Pair]:
    """`_trim` of each row of c, after dropping the end coefficients under
    TRIM_REL times their bound: what is left there is roundoff of terms
    that cancelled.  NaN, inf and the coefficients whose bound overflowed
    are kept."""
    kept = ~(np.abs(c) <= TRIM_REL * bound) | np.isinf(bound)
    first = kept.argmax(axis=1).tolist()
    stop = (kept.shape[1] - kept[:, ::-1].argmax(axis=1)).tolist()
    return [_trim(row[f:e], lo + f) if live else _ZERO
            for row, f, e, live in zip(c, first, stop, kept.any(axis=1).tolist())]


def _dense_matmul(x: list[_Pair], y: list[_Pair], m: int, k: int, n: int) -> list[list[_Pair]]:
    """The m x n product of the flat m x k and k x n matrices of pairs,
    from one matrix product of their zero-padded grids, run alongside the
    product of their magnitudes, which each output is trimmed against."""
    (a, alo), (b, blo) = _grid(x), _grid(y)
    wa, wb = a.shape[1], b.shape[1]
    a, b = np.stack([a, np.abs(a)]), np.stack([b, np.abs(b)])
    # table[:, i, t, j, u] = sum over l of a[:, i, l] coefficient t times b[:, l, j] coefficient u
    table = (a.reshape(2, m, k, wa).transpose(0, 1, 3, 2).reshape(2, m * wa, k)
             @ b.reshape(2, k, n * wb)).reshape(2, m, wa, n, wb)
    out = np.zeros((2, m, n, wa + wb - 1), dtype=np.complex128)
    for t in range(wa):
        out[..., t:t + wb] += table[:, :, t]
    pairs = _trim_bounded(out[0].reshape(m * n, -1), out[1].real.reshape(m * n, -1), alo + blo)
    return [pairs[i * n:(i + 1) * n] for i in range(m)]


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
    for _ in range(3):
        p = np.polyval(c[::-1], roots)
        dp = np.polyval(dc[::-1], roots)
        ok = np.abs(dp) > NEWTON_MIN_SLOPE
        roots[ok] -= p[ok] / dp[ok]
    return roots


class RationalTF:
    """Ratio of two Laurent polynomials, num/den, kept as given: one entry
    of a RationalMatrix, or one read back from its text form, both
    already normalized by the matrix."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalTF is immutable")

    def __call__(self, z):
        return self.num(z) / self.den(z)

    def equals(self, other: "RationalTF", tol: float = 1e-9) -> bool:
        """As RationalMatrix.equals, of the 1 x 1 matrices."""
        return RationalMatrix(PolyMatrix([[self.num]]), self.den).equals(
            RationalMatrix(PolyMatrix([[other.num]]), other.den), tol)

    @classmethod
    def from_dict(cls, d: dict) -> "RationalTF":
        return cls(LaurentPoly.from_text(d["num"]), LaurentPoly.from_text(d["den"]))

    def __repr__(self):
        return f"RationalTF({self.num!r} / {self.den!r})"


class RationalMatrix:
    """A matrix of Laurent polynomials over one shared denominator, num / den.

    den is normalized to lowest power 0 and leading (highest-power)
    coefficient 1, by a shift and a factor applied to num as well.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: PolyMatrix, den: LaurentPoly):
        den = _as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        shift, factor = -den.lowest_power, 1.0 / den.coeffs[-1]
        object.__setattr__(self, "num", PolyMatrix(
            [[e.shift(shift) * factor for e in row] for row in num.entries]))
        object.__setattr__(self, "den", den.shift(shift) * factor)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    def __getitem__(self, ij) -> RationalTF:
        return RationalTF(self.num[ij], self.den)

    def _numerators(self) -> list[LaurentPoly]:
        return [e for row in self.num.entries for e in row]

    def __call__(self, z) -> np.ndarray:
        return self.num(z) / self.den(z)

    def equals(self, other: "RationalMatrix", tol: float = 1e-9) -> bool:
        """Entry by entry, a/b == c/d iff a*d - c*b is numerically zero
        (relative), so no GCD cancellation is ever required.

        The denominator product enters the scale so that numerators which
        are pure roundoff relative to their denominators compare equal to
        an exact zero.
        """
        if (self.num.rows, self.num.cols) != (other.num.rows, other.num.cols):
            return False
        dens = self.den.max_abs_coeff() * other.den.max_abs_coeff()
        for a, c in zip(self._numerators(), other._numerators()):
            lhs, rhs = a * other.den, c * self.den
            scale = max(lhs.max_abs_coeff(), rhs.max_abs_coeff(), dens, 1e-300)
            if (lhs - rhs).max_abs_coeff() > tol * scale:
                return False
        return True

    def require_causal(self) -> None:
        """Raise NonCausalError for the first entry, row by row, whose
        numerator has a higher power than den (a z-advance)."""
        deg = self.den.highest_power
        for num in self._numerators():
            if not num.is_zero and num.highest_power > deg:
                raise NonCausalError(
                    f"numerator degree {num.highest_power} exceeds denominator degree {deg}")

    def impulse_responses(self, n_terms: int) -> np.ndarray:
        """First n_terms coefficients of each entry's causal power series
        in z^-1, shape (rows, cols, n_terms)."""
        if n_terms < 1:
            raise ValueError("n_terms must be positive")
        self.require_causal()
        deg = self.den.highest_power
        d = self.den.coeffs[::-1]  # den's coefficients of z^deg, z^(deg-1), ...
        out = np.zeros((self.num.rows, self.num.cols, n_terms), dtype=np.complex128)
        for num, h in zip(self._numerators(), out.reshape(-1, n_terms)):
            if num.is_zero:
                continue
            # long division in powers of z^-1, anchored at z^deg
            for k in range(n_terms):
                acc = num.coeff(deg - k)
                for m in range(1, min(k, deg) + 1):
                    acc -= d[m] * h[k - m]
                h[k] = acc / d[0]
        return out

    def entry_dicts(self) -> list[list[dict]]:
        """The text form of every entry, {"num": ..., "den": ...}."""
        den = self.den.to_text()
        return [[{"num": e.to_text(), "den": den} for e in row] for row in self.num.entries]

    def __repr__(self):
        return f"RationalMatrix({self.num.rows}x{self.num.cols})"
