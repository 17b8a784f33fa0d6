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
        return _wrap(*_add(_pair(self), _pair(_as_poly(other))))

    __radd__ = __add__

    def __neg__(self):
        return _wrap(-self.coeffs, self.lowest_power)

    def __sub__(self, other):
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


# -- the coefficient-array kernel ---------------------------------------------
#
# The arithmetic runs on (coeffs, lowest_power) pairs: a trimmed 1-d
# complex128 array and the power of z of its first entry, with the zero
# polynomial as an empty array at power 0.  Matrix routines keep their
# intermediate results as pairs and build a LaurentPoly only for each
# output entry, so every result is trimmed exactly once, by `_trim`.
#
# `det`, `det_adjugate` and `@` with many polynomial products run them
# stacked instead (see "the stacked evaluator" below): a level of the
# cofactor expansion, or a matrix product, with at least
# _STACK_MIN_PRODUCTS products evaluates all of them in a few numpy calls
# that repeat the loop's floating-point operations exactly, so every
# stored coefficient keeps its bits; smaller ones loop over _mul/_add,
# which is faster there.

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
        return _wrap_grid([[_add(x, y, subtract) for x, y in zip(xs, ys)]
                           for xs, ys in zip(_pairs(self), _pairs(other))])

    def _check_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        m, k, n = self.rows, self.cols, other.cols
        if m * k * n >= _STACK_MIN_PRODUCTS:
            # product p = (i * n + j) * k + t is self[i, t] * other[t, j]
            i, j, t = np.indices((m, n, k)).reshape(3, -1)
            products = _stacked_mul(_ragged(_flat(self)), _ragged(_flat(other)),
                                    i * k + t, t * n + j)
            terms = np.arange(i.size).reshape(m * n, k)
            flat = _unstack(_stacked_sum(products, terms, alternate=False))
            return _wrap_grid([flat[r * n:(r + 1) * n] for r in range(m)])
        cols = list(zip(*_pairs(other)))
        out = []
        for xs in _pairs(self):
            row = []
            for ys in cols:
                acc = _ZERO
                for x, y in zip(xs, ys):
                    acc = _add(acc, _mul(x, y))
                row.append(acc)
            out.append(row)
        return _wrap_grid(out)

    def scale(self, p: LaurentPoly) -> "PolyMatrix":
        y = _pair(p)
        return _wrap_grid([[_mul(x, y) for x in row] for row in _pairs(self)])

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
        return _wrap(*_expand(_flat(self), self.rows, cofactors=False)[1])

    def det_adjugate(self) -> tuple[LaurentPoly, "PolyMatrix"]:
        """Determinant and adjugate by memoized cofactor expansion.

        Satisfies m @ adj == det * I as a polynomial identity.  Every
        minor is expanded once and shared, so an n x n matrix costs
        O(n^2 * 2^n) polynomial products instead of O(n!).  The minors
        are evaluated level by level, smallest first, from the schedule
        `_minor_schedule(n, cofactors=True)`; a level with at least
        _STACK_MIN_PRODUCTS products runs stacked, with the same bits.
        """
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        n = self.rows
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

    A term whose entry is zero is skipped, and a minor that only such
    terms read is not computed (it reads as zero), so it cannot raise
    NonFiniteError either.  Each level with at least _STACK_MIN_PRODUCTS
    products runs stacked, and the others loop over _mul/_add; a stacked
    level hands the next one its stack, not pairs.
    """
    levels = _minor_schedule(n, cofactors)[0]
    if not levels:
        return [], entries[0]
    nonzero = np.array([c.size > 0 for c, _ in entries])
    needed = [None] * len(levels)  # None: every minor of the level
    if not nonzero.all():
        need = np.ones(1, dtype=bool)
        for s in range(n, 2, -1):
            entry, sub = levels[s - 2]
            needed[s - 2] = need
            need = np.full(len(levels[s - 3][0]), cofactors and s == n)
            need[sub[needed[s - 2][:, None] & nonzero[entry]]] = True
        needed[0] = need
    done = [entries]  # the levels computed so far, smallest first
    for (entry, sub), need in zip(levels, needed):
        live = None if need is None else need[:, None] & nonzero[entry]
        count = entry.size if live is None else int(live.sum())
        if count >= _STACK_MIN_PRODUCTS:
            live = nonzero[entry] if live is None else live
            terms = np.full(live.shape, -1)
            terms[live] = np.arange(count)
            products = _stacked_mul(_ragged(entries), _ragged(done[-1]), entry[live], sub[live])
            done.append(_stacked_sum(products, terms, alternate=True))
            continue
        below = _unstack(done[-1])
        level = []
        for i, (es, subs) in enumerate(zip(entry.tolist(), sub.tolist())):
            acc = _ZERO
            if need is None or need[i]:
                for j, (e, m) in enumerate(zip(es, subs)):
                    if entries[e][0].size:
                        acc = _add(acc, _mul(entries[e], below[m]), subtract=j % 2 == 1)
            level.append(acc)
        done.append(level)
    return _unstack(done[-2]), _unstack(done[-1])[0]


# -- the stacked evaluator ------------------------------------------------------
#
# A stack holds N polynomials on one shared power grid: (g, lo, first,
# size), where g is an (N, W) complex128 array whose column k is the power
# z**(lo + k), and row i holds its pair (g[i, first:first + size],
# lo + first) with zeros around it (size 0 for the zero polynomial).
# A ragged set (buf, off, size, lo) holds N pairs as slices of one flat
# array instead.
#
# Levels and products below this many polynomial products loop instead:
# the measured crossover.  With every level stacked, det_adjugate of a
# 4 x 4 S_vv was slower than the loop (1.6 against 1.3 ms) and of a 5 x 5
# faster (3.1 against 3.9 ms); a 4 x 4 @ 4 x 4 (64 products) took 0.87
# ms stacked against 0.97 ms looped, and a 3 x 3 one 0.61 against 0.40.
_STACK_MIN_PRODUCTS = 64


def _ragged(polys) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ragged set of a list of pairs or of a stack."""
    if isinstance(polys, tuple):
        g, lo, first, size = polys
        return g.ravel(), np.arange(g.shape[0]) * g.shape[1] + first, size, lo + first
    size = np.array([c.size for c, _ in polys])
    buf = np.concatenate([c for c, _ in polys]) if polys else _ZERO[0]
    return buf, np.cumsum(size) - size, size, np.array([lo for _, lo in polys])


def _unstack(polys) -> list[_Pair]:
    """The pairs of a stack (a list of pairs is returned as it is)."""
    if not isinstance(polys, tuple):
        return polys
    g, lo, first, size = polys
    return [(g[i, f:f + k], lo + f) if k else _ZERO
            for i, (f, k) in enumerate(zip(first.tolist(), size.tolist()))]


def _trim_rows(g: np.ndarray, lo: int):
    """The stack of the rows of g, each trimmed as `_trim(g[i], lo)` trims
    it, with the trimmed ends set to zero; raises NonFiniteError, naming
    the first one, if g holds a NaN or infinite coefficient."""
    rows, width = g.shape
    if not width:
        return g, lo, np.zeros(rows, dtype=np.intp), np.zeros(rows, dtype=np.intp)
    a = np.abs(g)
    peak = a.max(axis=1)
    if not np.isfinite(peak).all():
        # |c| can overflow for a finite complex c; only NaN or inf is an error
        bad = np.flatnonzero(~np.isfinite(g))
        if bad.size:
            i, k = divmod(int(bad[0]), width)
            raise NonFiniteError(f"non-finite coefficient {complex(g[i, k])} of z^{lo + k}")
    keep = a >= np.maximum(TRIM_REL * peak, TRIM_ABS_FLOOR)[:, None]
    first = keep.argmax(axis=1)  # 0 for a row with nothing kept
    stop = np.where(keep.any(axis=1), width - keep[:, ::-1].argmax(axis=1), 0)
    cols = np.arange(width)
    g = np.where((cols >= first[:, None]) & (cols < stop[:, None]), g, 0)
    return g, lo, first, stop - first


def _stacked_mul(xs, ys, xi: np.ndarray, yi: np.ndarray):
    """The stack of `_mul(x[xi[p]], y[yi[p]])` for every p, from two ragged sets.

    np.convolve(x, y) computes output k as one BLAS dot of a slice of the
    longer operand a (x on a tie) with the reversed shorter one v.  Here
    every dot of every product is gathered into place, the dots are
    grouped by length L, and each group is one np.matmul of (G, 1, L) by
    (G, L, 1) stacks, which calls the same dot.  For L = 1 numpy may
    multiply without the dot's `0.0 + sum`, which turns -0.0 into +0.0,
    so 0.0 is added there; adding it again to `0.0 + sum` changes no bit.
    No dot is zero-padded: that would change the length on which BLAS
    splits its loop.
    """
    (xbuf, xoff, xn, xlo), (ybuf, yoff, yn, ylo) = xs, ys
    buf = np.concatenate([xbuf, ybuf])
    xoff, xn, lo = xoff[xi], xn[xi], xlo[xi] + ylo[yi]
    yoff, yn = yoff[yi] + xbuf.size, yn[yi]
    swap = yn > xn
    n1, n2 = np.where(swap, yn, xn), np.where(swap, xn, yn)
    aoff, voff = np.where(swap, yoff, xoff), np.where(swap, xoff, yoff)
    dots = np.where(n2 > 0, n1 + n2 - 1, 0)  # a zero operand gives no dots
    if not dots.any():
        return _trim_rows(np.zeros((len(xi), 0), dtype=np.complex128), 0)
    live = dots > 0
    base = int(lo[live].min())
    width = int((lo + dots)[live].max()) - base
    # dot d is output k of product p: a[t] * v[k - t] for t = t0 .. t0 + L - 1
    p = np.repeat(np.arange(len(xi)), dots)
    k = np.arange(p.size) - np.repeat(np.cumsum(dots) - dots, dots)
    n2p = n2[p]
    t0 = np.maximum(k - n2p + 1, 0)
    length = np.minimum(k, n1[p] - 1) - t0 + 1
    a0 = aoff[p] + t0
    v0 = voff[p] + k - t0
    dest = p * width + lo[p] - base + k
    out = np.zeros(len(xi) * width, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, int(n2.max()) + 1):
            sel = np.flatnonzero(length == n)
            if not sel.size:
                continue
            r = np.arange(n)
            dot = np.matmul(buf[a0[sel, None] + r][:, None, :],
                            buf[v0[sel, None] - r][:, :, None]).ravel()
            out[dest[sel]] = dot + 0.0 if n == 1 else dot
    return _trim_rows(out.reshape(len(xi), width), base)


def _stacked_sum(products, terms: np.ndarray, alternate: bool):
    """The stack of the sums `acc = _add(acc, product[terms[i, j]], subtract)`
    over j, from acc = 0, for every row i of terms; -1 is a zero term, and
    `alternate` subtracts the odd terms.

    Each step is `(0 + acc) +- term`, trimmed row by row, as `_add`
    computes it, with `_add`'s two shortcuts kept row by row: a zero term
    leaves acc as it is, and a zero acc takes +-term verbatim.
    """
    g, lo, first, size = products
    g = np.concatenate([g, np.zeros((1, g.shape[1]), dtype=np.complex128)])
    first, size = np.append(first, 0), np.append(size, 0)
    t = terms[:, 0]  # a zero acc takes the first term verbatim
    acc, acc_first, acc_size = g[t], first[t], size[t]
    for j in range(1, terms.shape[1]):
        t = terms[:, j]
        term, term_first, term_size = g[t], first[t], size[t]
        subtract = alternate and j % 2 == 1
        with np.errstate(over="ignore", invalid="ignore"):
            total = 0.0 + acc
            total = total - term if subtract else total + term
        total, _, total_first, total_size = _trim_rows(total, lo)
        keep = (term_size == 0)
        verbatim = (acc_size == 0) & ~keep
        acc = np.where(keep[:, None], acc,
                       np.where(verbatim[:, None], -term if subtract else term, total))
        acc_first = np.where(keep, acc_first, np.where(verbatim, term_first, total_first))
        acc_size = np.where(keep, acc_size, np.where(verbatim, term_size, total_size))
    return acc, lo, acc_first, acc_size


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
