import re
from fractions import Fraction
import time
import warnings

import numpy as np
import pytest

from ufbwiener import algebra
from ufbwiener.algebra import (
    LaurentPoly,
    NonCausalError,
    NonFiniteError,
    PolyMatrix,
    RationalMatrix,
    RationalTF,
    poly_roots,
)
from ufbwiener.harness import experiment_1, experiment_2
from ufbwiener.properties import random_bank
from ufbwiener.spectra import InputPSD
from ufbwiener.wiener import wiener_solve

H0 = LaurentPoly.from_causal([4, 7, 2])     # 4 + 7z^-1 + 2z^-2
H1 = LaurentPoly.from_causal([3, -1, -1.5])


def random_poly(rng, order_max=5, lo_range=(-4, 2), complex_coeffs=False):
    n = int(rng.integers(1, order_max + 2))
    c = rng.uniform(-1, 1, n)
    if complex_coeffs:
        c = c + 1j * rng.uniform(-1, 1, n)
    return LaurentPoly(c, int(rng.integers(*lo_range)))


class TestLaurentPoly:
    def test_mul_identity(self):
        assert LaurentPoly.one() * H0 == H0

    def test_mul_exponent_cancellation(self):
        assert LaurentPoly.delay(1) * LaurentPoly([1], 1) == LaurentPoly.one()

    def test_mul_hand_convolution(self):
        # (4 + 7z^-1 + 2z^-2)(2z^2 + 7z + 4); coefficient convolution by hand:
        # [2,7,4] * [4,7,2] = [8, 42, 69, 42, 8] on powers z^-2 .. z^2
        prod = H0 * H0.paraconjugate()
        assert prod == LaurentPoly([8, 42, 69, 42, 8], -2)

    def test_paraconjugate_reverses_real_coeffs(self):
        assert H0.paraconjugate() == LaurentPoly([4, 7, 2], 0)

    def test_paraconjugate_constant_fixed_point(self):
        assert LaurentPoly.one().paraconjugate() == LaurentPoly.one()

    def test_paraconjugate_conjugates(self):
        p = LaurentPoly([1j], -1)  # j*z^-1
        assert p.paraconjugate() == LaurentPoly([-1j], 1)

    def test_paraconjugate_involution_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = random_poly(rng, complex_coeffs=True)
            assert p.paraconjugate().paraconjugate() == p

    def test_downsample_even_selection(self):
        p = LaurentPoly.from_causal([1, 2, 3])
        assert p.downsample(2) == LaurentPoly.from_causal([1, 3])

    def test_downsample_identity(self):
        rng = np.random.default_rng(2)
        p = random_poly(rng)
        assert p.downsample(1) == p

    def test_downsample_two_sided(self):
        p = LaurentPoly([8, 42, 69, 42, 8], -2)
        assert p.downsample(2) == LaurentPoly([8, 69, 8], -1)

    def test_eval_multiplicative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = random_poly(rng, complex_coeffs=True)
            b = random_poly(rng, complex_coeffs=True)
            z0 = np.exp(2j * np.pi * rng.uniform())
            lhs = (a * b)(z0)
            rhs = a(z0) * b(z0)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))

    def test_downsample_aliasing_identity(self):
        # eval(a down M, z0^M) = (1/M) sum_q eval(a, z0 W^q), W = e^{-2pi j/M}
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = random_poly(rng, complex_coeffs=True)
            M = int(rng.integers(1, 5))
            z0 = np.exp(2j * np.pi * rng.uniform())
            W = np.exp(-2j * np.pi / M)
            lhs = a.downsample(M)(z0 ** M)
            rhs = sum(a(z0 * W ** q) for q in range(M)) / M
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))

    def test_zero_is_canonical(self):
        assert (H0 - H0).is_zero
        assert (H0 - H0) == LaurentPoly.zero()
        assert LaurentPoly.zero().coeffs.size == 0

    def test_trim_relative_threshold(self):
        p = LaurentPoly([1e-15, 1.0, 1e-15], -1)
        assert p == LaurentPoly([1.0])

    def test_causality_and_causal_taps(self):
        zero, z2, advance = LaurentPoly.zero(), LaurentPoly.delay(2), LaurentPoly([1.0, 1.0], 0)
        assert zero.is_causal and z2.is_causal and H0.is_causal
        assert np.array_equal(zero.causal_taps(), [0])
        assert np.array_equal(z2.causal_taps(), [0, 0, 1])
        assert np.array_equal(H0.causal_taps(), [4, 7, 2])
        assert not advance.is_causal  # 1 + z
        with pytest.raises(NonCausalError):
            advance.causal_taps()

    def test_text_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_poly(rng, complex_coeffs=True)
            assert LaurentPoly.from_text(p.to_text()) == p
        assert LaurentPoly.from_text(LaurentPoly.zero().to_text()).is_zero

    def test_immutable(self):
        with pytest.raises(AttributeError):
            H0.lowest_power = 3


def reference_trim(coeffs, lowest_power=0):
    """The trimming body LaurentPoly.__init__ had before it took one pass
    over the coefficients: (lowest_power, coeffs) of the canonical form."""
    c = np.asarray(list(coeffs) if not isinstance(coeffs, np.ndarray) else coeffs,
                   dtype=np.complex128).ravel()
    lo = int(lowest_power)
    if c.size:
        scale = np.abs(c).max()
        thresh = max(algebra.TRIM_REL * scale, algebra.TRIM_ABS_FLOOR)
        keep = np.abs(c) >= thresh
        if keep.any():
            first = int(np.argmax(keep))
            last = c.size - int(np.argmax(keep[::-1]))
            lo += first
            c = c[first:last].copy()
        else:
            c = np.empty(0, dtype=np.complex128)
    if c.size == 0:
        lo = 0
    return lo, c


def assert_canonical(p, raw, lowest_power):
    lo, c = reference_trim(raw, lowest_power)
    assert p.lowest_power == lo
    assert p.coeffs.shape == c.shape
    assert p.coeffs.tobytes() == c.tobytes()


def edge_value(rng, thresh):
    """A value whose magnitude sits at, just past or far from `thresh`."""
    kind = int(rng.integers(6))
    if kind == 0:
        return 0.0
    if kind == 1:
        return -0.0
    mag = (np.nextafter(thresh, 0.0), thresh, np.nextafter(thresh, np.inf),
           thresh * 10.0 ** rng.uniform(-6, 6))[kind - 2]
    return mag * rng.choice([1, -1, 1j, -1j])


def trim_input(rng):
    """Finite coefficients as a list, a 1-d or a 2-d array, with ends at the
    trim threshold, signed zeros, or everything under the 1e-300 floor."""
    n = int(rng.integers(0, 9))
    mag = 10.0 ** rng.uniform(-300, 300)
    c = rng.standard_normal(n) * mag
    if rng.uniform() < 0.5:
        c = c + 1j * rng.standard_normal(n) * mag
    if n and rng.uniform() < 0.15:
        # all under the floor, or straddling it
        c = (rng.choice([0.0, -0.0, 1e-300, np.nextafter(1e-300, 0.0), 1e-310], n)
             * rng.choice([1, -1, 1j], n))
    elif n:
        thresh = algebra.TRIM_REL * np.abs(c).max()
        c = c.astype(np.complex128)
        for k in range(min(int(rng.integers(0, 3)), n)):
            c[k] = edge_value(rng, thresh)
            c[-1 - k] = edge_value(rng, thresh)
    form = int(rng.integers(3))
    if form == 0:
        return list(c)
    if form == 1 or n % 2:
        return np.array(c)
    return np.array(c).reshape(2, n // 2)


def arithmetic_case(rng):
    """A polynomial whose end coefficients are 1e-12 to 1 of its largest."""
    n = int(rng.integers(1, 7))
    c = rng.standard_normal(n) * 10.0 ** rng.uniform(-20, 20)
    if rng.uniform() < 0.5:
        c = c + 1j * rng.standard_normal(n) * np.abs(c).max()
    c[0] *= 10.0 ** rng.uniform(-12, 0)
    c[-1] *= 10.0 ** rng.uniform(-12, 0)
    return LaurentPoly(c, int(rng.integers(-4, 4)))


def near_copy(rng, p):
    """p with some coefficients moved by 1e-16 to 1 of themselves, so that
    p - near_copy(p) cancels at its ends."""
    c = p.coeffs.copy()
    moved = rng.uniform(size=c.size) < 0.5
    c[moved] *= 1 + 10.0 ** rng.uniform(-16, 0, moved.sum())
    return LaurentPoly(c, p.lowest_power)


def ref_pair(p):
    """(lowest_power, coeffs) of p, the form reference_trim returns."""
    return p.lowest_power, p.coeffs


def padded_sum(a, b):
    """The coefficients the sum of pairs a and b holds before it trims, and
    their lowest power: both added into one zero buffer."""
    (alo, ac), (blo, bc) = a, b
    lo = min(alo, blo)
    out = np.zeros(max(alo + ac.size, blo + bc.size) - lo, dtype=np.complex128)
    out[alo - lo:alo - lo + ac.size] += ac
    out[blo - lo:blo - lo + bc.size] += bc
    return out, lo


class TestTrimOracle:
    """The one-pass trim stores what the trimming it replaced stored."""

    def test_constructor_matches_reference(self):
        rng = np.random.default_rng(20)
        for _ in range(12000):
            raw, lo = trim_input(rng), int(rng.integers(-10, 10))
            assert_canonical(LaurentPoly(raw, lo), raw, lo)

    def test_fixed_edge_cases(self):
        cases = [[], np.empty(0), np.zeros((0, 3)), [-0.0, -0.0], [0.0],
                 [1e-300, 1e-310], [np.nextafter(1e-300, 0.0)], [-0.0, 1.0, -0.0],
                 [1e-12, 1.0, np.nextafter(1e-12, 0.0)], [[1e-13, 2.0], [3.0, 1e-12]],
                 [1e308 + 1e308j, 1.0]]  # |c| overflows, but every c is finite
        with np.errstate(over="ignore"):
            for raw in cases:
                assert_canonical(LaurentPoly(raw, 3), raw, 3)

    def test_arithmetic_results_match_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(2000):
            a = arithmetic_case(rng)
            b = near_copy(rng, a) if rng.uniform() < 0.5 else arithmetic_case(rng)
            assert_canonical(a * b, np.convolve(a.coeffs, b.coeffs),
                             a.lowest_power + b.lowest_power)
            s = complex(rng.standard_normal(), rng.standard_normal())
            assert_canonical(a * s, a.coeffs * s, a.lowest_power)
            assert_canonical(a + b, *padded_sum(ref_pair(a), ref_pair(b)))
            assert_canonical(a - b, *padded_sum(ref_pair(a), ref_neg(ref_pair(b))))
            assert_canonical(-a, -a.coeffs, a.lowest_power)
            k = int(rng.integers(-5, 5))
            assert_canonical(a.shift(k), a.coeffs, a.lowest_power + k)
            assert_canonical(a.paraconjugate(), np.conj(a.coeffs[::-1]), -a.highest_power)
            m = int(rng.integers(2, 4))
            powers = a.lowest_power + np.arange(a.coeffs.size)
            sel = powers % m == 0
            if sel.any():
                kept = powers[sel] // m
                raw = np.zeros(kept[-1] - kept[0] + 1, dtype=np.complex128)
                raw[kept - kept[0]] = a.coeffs[sel]
                assert_canonical(a.downsample(m), raw, int(kept[0]))
            else:
                assert a.downsample(m).is_zero

    @pytest.mark.parametrize("raw", [np.array([1.0, 2.0, 3.0]),
                                     np.array([1.0, 2.0, 3.0], dtype=np.complex128),
                                     np.array([[0.0, 2.0], [3.0, 0.0]], dtype=np.complex128)])
    def test_caller_array_is_copied(self, raw):
        p = LaurentPoly(raw, -1)
        want = LaurentPoly(raw.ravel().tolist(), -1)
        raw[...] = 7.0
        assert p == want and p.coeffs.tobytes() == want.coeffs.tobytes()

    @pytest.mark.parametrize("raw, lo, shown", [
        ([1.0, np.nan], -1, "(nan+0j) of z^0"),
        ([np.inf, 1.0], -1, "(inf+0j) of z^-1"),
        ([1.0, 2.0, complex(1.0, -np.inf)], 2, "(1-infj) of z^4"),
        (np.array([np.nan, np.inf]), 0, "(nan+0j) of z^0"),
    ])
    def test_non_finite_rejected(self, raw, lo, shown):
        with pytest.raises(NonFiniteError, match=re.escape(f"non-finite coefficient {shown}")):
            LaurentPoly(raw, lo)

    def test_overflowing_product_rejected(self):
        with pytest.raises(NonFiniteError, match="inf"):
            LaurentPoly([1e200, 1.0]) * LaurentPoly([1e200])


# The matrix oracle: pairs (lowest_power, coeffs) combined with np.convolve,
# zero-padded sums and reference_trim only, never LaurentPoly arithmetic.
# A zero operand of a sum gives the other operand, and a difference adds
# the negation, as LaurentPoly arithmetic always has.

REF_ZERO = (0, np.empty(0, dtype=np.complex128))
REF_ONE = (0, np.ones(1, dtype=np.complex128))


def ref_mul(a, b):
    if not a[1].size or not b[1].size:
        return REF_ZERO
    return reference_trim(np.convolve(a[1], b[1]), a[0] + b[0])


def ref_neg(a):
    return a[0], -a[1]


def ref_add(a, b):
    if not a[1].size:
        return b
    if not b[1].size:
        return a
    return reference_trim(*padded_sum(a, b))


def ref_det(grid):
    """Plain recursive Laplace expansion along the first row, skipping zeros."""
    n = len(grid)
    if n == 1:
        return grid[0][0]
    acc = REF_ZERO
    for j in range(n):
        if not grid[0][j][1].size:
            continue
        term = ref_mul(grid[0][j], ref_det([row[:j] + row[j + 1:] for row in grid[1:]]))
        acc = ref_add(acc, term if j % 2 == 0 else ref_neg(term))
    return acc


def ref_adjugate(grid):
    """adj[i][j] = (-1)**(i + j) times the minor without row j and column i."""
    n = len(grid)
    if n == 1:
        return [[REF_ONE]]
    adj = [[ref_det([row[:i] + row[i + 1:] for r, row in enumerate(grid) if r != j])
            for j in range(n)] for i in range(n)]
    return [[ref_neg(c) if (i + j) % 2 else c for j, c in enumerate(row)]
            for i, row in enumerate(adj)]


def exact_det(grid):
    """Laplace expansion in exact rationals of a grid of coefficient lists
    (Fractions, one common lowest power); returns the coefficient list."""
    if len(grid) == 1:
        return grid[0][0]
    acc = [Fraction(0)] * (len(grid) * (len(grid[0][0]) - 1) + 1)
    for j, e in enumerate(grid[0]):
        minor = exact_det([row[:j] + row[j + 1:] for row in grid[1:]])
        for a, x in enumerate(e):
            for b, y in enumerate(minor):
                acc[a + b] += x * y if j % 2 == 0 else -x * y
    return acc


def ref_matmul(a, b):
    out = []
    for row in a:
        out.append([])
        for j in range(len(b[0])):
            acc = REF_ZERO
            for k, x in enumerate(row):
                acc = ref_add(acc, ref_mul(x, b[k][j]))
            out[-1].append(acc)
    return out


def ref_grid(m):
    return [[ref_pair(e) for e in row] for row in m.entries]


def assert_bytes(p, ref):
    """p holds exactly the pair ref; unlike ==, this tells -0.0 from 0.0."""
    lo, c = ref
    assert p.lowest_power == lo
    assert p.coeffs.shape == c.shape and p.coeffs.tobytes() == c.tobytes()


def assert_grid_bytes(m, ref):
    assert (m.rows, m.cols) == (len(ref), len(ref[0]))
    for row, ref_row in zip(m.entries, ref):
        for e, r in zip(row, ref_row):
            assert_bytes(e, r)


def kernel_entry(rng, integer=False):
    """Zero, or a real, complex, small-integer or signed-zero polynomial.

    Small-integer coefficients multiply and add exactly, so dependent
    rows of them cancel exactly to the zero polynomial.
    """
    kind = 2 if integer else int(rng.integers(5))
    n = int(rng.integers(1, 5))
    lo = int(rng.integers(-3, 3))
    if kind == 0:
        return LaurentPoly.zero()
    if kind == 1:
        c = rng.uniform(-1, 1, n)
    elif kind == 2:
        c = rng.integers(-3, 4, n) + 1j * rng.integers(-3, 4, n) * rng.integers(2)
        if not c.any():
            c[0] = 1.0
    elif kind == 3:
        c = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    else:
        # interior -0.0 and complex signed zeros between nonzero ends
        mid = rng.choice([0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0),
                          complex(1.0, -0.0), complex(-1.0, 0.0)], n)
        c = np.concatenate([[rng.uniform(0.5, 1)], mid, [-rng.uniform(0.5, 1)]])
    return LaurentPoly(c, lo)


def kernel_matrix(rng, rows, cols, integer=False, dependent=False):
    """A rows x cols PolyMatrix of kernel_entry polynomials; `dependent`
    makes the last row a copy or the negation of the first."""
    grid = [[kernel_entry(rng, integer) for _ in range(cols)] for _ in range(rows)]
    if dependent and rows > 1:
        grid[-1] = [-e for e in grid[0]] if rng.uniform() < 0.5 else list(grid[0])
    return PolyMatrix(grid)


def random_poly_matrix(rng, n, zero_prob=0.2):
    return PolyMatrix([[LaurentPoly.zero() if rng.uniform() < zero_prob
                        else random_poly(rng, 3, complex_coeffs=True)
                        for _ in range(n)] for _ in range(n)])


# How an overflow shows in the NonFiniteError: a 2 x 2 determinant trims,
# and so checks, each product, and the dense kernel only its outputs, by
# when an inf has often met another and become NaN.
OVERFLOW_SHOWN = r"non-finite coefficient .*(nan|inf)"


class TestMatrixKernelOracle:
    """Up to 2 x 2, and on small-integer entries at any size, det and the
    adjugate store, byte for byte, what the plain-numpy oracle computes,
    and so do the entrywise sums and scale; the dense kernel's other
    results match it to roundoff (TestDenseKernel)."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_det_adjugate_bytes(self, n):
        rng = np.random.default_rng(100 + n)
        cancelled = 0
        # the plain oracle takes about a second per 7 x 7 adjugate
        for case in range(6) if n < 7 else (0, 3, 5):
            integer = case % 3 == 2
            m = kernel_matrix(rng, n, n, integer=integer, dependent=case % 2 == 1)
            det, adj = m.det_adjugate()
            assert_bytes(m.det(), ref_pair(det))
            if n <= 2 or integer:
                grid = ref_grid(m)
                assert_bytes(det, ref_det(grid))
                assert_grid_bytes(adj, ref_adjugate(grid))
            cancelled += det.is_zero
        if n > 1:
            assert cancelled  # the integer dependent cases cancel exactly

    @pytest.mark.parametrize("n", range(1, 8))
    def test_products_and_sums_bytes(self, n):
        # the scaled entries are products byte for byte; `@` runs the dense
        # kernel and matches the oracle to roundoff
        rng = np.random.default_rng(200 + n)
        for case in range(6):
            inner, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            a = kernel_matrix(rng, n, inner, integer=case % 2 == 1)
            b = kernel_matrix(rng, inner, cols, integer=case % 2 == 1)
            c = kernel_matrix(rng, n, inner, integer=case % 2 == 1)
            p = kernel_entry(rng)
            bound = (abs_matrix(a) @ abs_matrix(b)).max_abs_coeff()
            for row, want_row in zip((a @ b).entries, ref_matmul(ref_grid(a), ref_grid(b))):
                for e, want in zip(row, want_row):
                    assert_close(e, want, bound)
            pairs = zip(ref_grid(a), ref_grid(c))
            assert_grid_bytes(a + c, [[ref_add(x, y) for x, y in zip(*rows)]
                                      for rows in pairs])
            pairs = zip(ref_grid(a), ref_grid(c))
            assert_grid_bytes(a - c, [[ref_add(x, ref_neg(y)) for x, y in zip(*rows)]
                                      for rows in pairs])
            assert_grid_bytes(a.scale(p), [[ref_mul(x, ref_pair(p)) for x in row]
                                           for row in ref_grid(a)])

    def test_products_cancel_to_zero(self):
        # [p, p] @ [q, -q]^T and det [[p, p], [q, q]] = p * q - p * q vanish exactly
        rng = np.random.default_rng(300)
        for _ in range(20):
            p, q = kernel_entry(rng), kernel_entry(rng)
            prod = PolyMatrix([[p, p]]) @ PolyMatrix([[q], [-q]])
            assert prod[0, 0].is_zero
            assert_grid_bytes(prod, [[REF_ZERO]])
            assert PolyMatrix([[p, p], [q, q]]).det().is_zero

    @pytest.mark.parametrize("n", range(2, 8))
    def test_overflowing_product_in_det_rejected(self, n):
        rng = np.random.default_rng(400 + n)
        # every product of two entries is near 1e320, past the largest double
        m = PolyMatrix([[LaurentPoly(rng.uniform(0.5, 1, 2) * 1e160, 0) for _ in range(n)]
                        for _ in range(n)])
        for compute in (m.det, m.det_adjugate, lambda: m @ m):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no RuntimeWarning first
                with pytest.raises(NonFiniteError, match=OVERFLOW_SHOWN):
                    compute()

    def test_overflowing_sum_in_stacked_det_rejected(self):
        # both products are near 1.4e308, their difference overflows
        x = LaurentPoly([1.2e154])
        m = PolyMatrix([[x, -x], [x, x]])
        for compute in (m.det, m.det_adjugate, lambda: m @ m.paraconjugate()):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteError, match=OVERFLOW_SHOWN):
                    compute()

    def test_overflowing_polynomial_sum_rejected(self):
        big = LaurentPoly([1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for compute in (lambda: big + big, lambda: big - -big,
                            lambda: PolyMatrix([[big]]) + PolyMatrix([[big]]),
                            lambda: PolyMatrix([[big]]) - PolyMatrix([[-big]])):
                with pytest.raises(NonFiniteError, match="inf"):
                    compute()


def abs_matrix(m):
    """m with every coefficient replaced by its magnitude."""
    return PolyMatrix([[LaurentPoly(np.abs(e.coeffs), e.lowest_power) for e in row]
                       for row in m.entries])


def assert_close(p, ref, bound):
    """p is within 1e-11 * bound of the oracle pair ref at every power."""
    lo, c = ref
    assert (p - LaurentPoly(c, lo)).max_abs_coeff() <= 1e-11 * bound


class TestDenseKernel:
    """The dense kernel agrees with the plain-numpy oracle to roundoff.

    The bound of each comparison is the largest coefficient of the same
    routine on the coefficients' magnitudes, which bounds every
    coefficient the expansion sums; both sides trim at 1e-12 of theirs.
    """

    @pytest.mark.parametrize("n", range(3, 8))
    def test_det_adjugate_close(self, n):
        rng = np.random.default_rng(900 + n)
        # the plain oracle takes about a second per 7 x 7 adjugate
        for case in range(6) if n < 7 else (0, 2, 5):
            m = kernel_matrix(rng, n, n, integer=case % 3 == 2, dependent=case % 2 == 1)
            grid = ref_grid(m)
            want_det, want_adj = ref_det(grid), ref_adjugate(grid)
            bound_det, bound_adj = abs_matrix(m).det_adjugate()
            bound = max(bound_det.max_abs_coeff(), bound_adj.max_abs_coeff())
            det, adj = m.det_adjugate()
            assert_close(det, want_det, bound)
            assert m.det() == det
            for row, want_row in zip(adj.entries, want_adj):
                for e, want in zip(row, want_row):
                    assert_close(e, want, bound)
            if case == 5:
                assert det.is_zero  # integer dependent rows cancel exactly

    @pytest.mark.parametrize("rows", range(1, 8))
    def test_products_close(self, rows):
        rng = np.random.default_rng(950 + rows)
        for case in range(6):
            inner, cols = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            a = kernel_matrix(rng, rows, inner, integer=case % 2 == 1)
            b = kernel_matrix(rng, inner, cols, integer=case % 2 == 1)
            bound = (abs_matrix(a) @ abs_matrix(b)).max_abs_coeff()
            got = [e for row in (a @ b).entries for e in row]
            want = [w for row in ref_matmul(ref_grid(a), ref_grid(b)) for w in row]
            for e, (lo, c) in zip(got, want):
                assert_close(e, (lo, c), bound)
                if case % 2 == 1:  # small integers multiply and add exactly
                    assert e == LaurentPoly(c, lo)

    def test_zero_entry_times_overflowing_minor_rejected(self):
        # the minor of rows 1, 2 and columns 1, 2 overflows, and only the zero
        # entry at (0, 0) multiplies it; the kernel computes every minor of
        # the schedule and names its inf before 0 * inf is NaN
        big, one, zero = LaurentPoly([1e200]), LaurentPoly.one(), LaurentPoly.zero()
        m = PolyMatrix([[zero, one, zero], [one, big, big], [one, big, -big]])
        for compute in (m.det, m.det_adjugate):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteError, match="inf"):
                    compute()

    def test_roundoff_end_coefficient_trimmed(self, monkeypatch):
        # the constant coefficients form a singular matrix (the last row is
        # twice row 0), so det's z^0 coefficient is roundoff: above TRIM_REL
        # of the small determinant, but not of the terms that cancelled
        for n in (3, 4):
            rng = np.random.default_rng(1)
            for _ in range(5):
                p, q = rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, (n, n))
                p[n - 1] = 2 * p[0]
                m = PolyMatrix([[LaurentPoly([1e-6 * q[i, j], p[i, j]], -1) for j in range(n)]
                                for i in range(n)])
                with monkeypatch.context() as patch:  # trimmed against the result alone
                    patch.setattr(algebra, "_trim_bounded",
                                  lambda c, bound, lo: [algebra._trim(row, lo) for row in c])
                    assert m.det().highest_power == 0
                det, adj = m.det_adjugate()
                assert det.highest_power == m.det().highest_power == -1
                # and the small genuine ones stay: det is right to roundoff
                exact = exact_det([[[Fraction(float(c.real)) for c in e.coeffs] for e in row]
                                   for row in m.entries])
                want = np.array([float(x) for x in exact])  # z^-n ... z^0
                got = np.array([det.coeff(k).real for k in range(-n, 1)])
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_roundoff_end_coefficient_of_product_trimmed(self, monkeypatch):
        # 0.1 + 0.2 - 0.3 leaves 5.6e-17 at z^0 of entry (0, 0) of a 4 x 4
        # product (the dense kernel), above TRIM_REL of its z^-1 coefficient
        rng = np.random.default_rng(2)
        p, q = rng.uniform(-1, 1, (4, 4)), rng.uniform(-1, 1, (4, 4))
        p[0] = [0.1, 0.2, -0.3, 0.0]
        r = rng.uniform(-1, 1, (4, 4))
        r[:3, 0] = 1.0
        a = PolyMatrix([[LaurentPoly([1e-6 * q[i, j], p[i, j]], -1) for j in range(4)]
                        for i in range(4)])
        b = PolyMatrix([[LaurentPoly([r[i, j]]) for j in range(4)] for i in range(4)])
        with monkeypatch.context() as patch:
            patch.setattr(algebra, "_trim_bounded", lambda c, bound, lo: [algebra._trim(row, lo) for row in c])
            assert (a @ b)[0, 0].highest_power == 0
        assert (a @ b)[0, 0].highest_power == -1

    def test_bounded_trim(self):
        # row by row: the padding and an end at 5e-17 of its bound go,
        # although it is above TRIM_REL of the largest coefficient; 2e-9 of
        # its bound stays; under 1e13 times the bound every coefficient goes
        c = np.array([[0, 5e-12, 1, 2e-12, 0]] * 2, dtype=complex)
        bound = np.array([0, 1e5, 1e5, 1e-3, 0])
        (kept, lo), gone = algebra._trim_bounded(c, np.stack([bound, 1e13 * bound]), -3)
        assert lo == -1 and kept.tolist() == [1, 2e-12]
        assert gone[0].size == 0
        # a coefficient whose bound overflowed is kept; NaN reaches _trim
        [(kept, lo)] = algebra._trim_bounded(np.array([[1e-3, 1]], dtype=complex),
                                             np.array([[np.inf, 1]]), 0)
        assert lo == 0 and kept.size == 2
        with pytest.raises(NonFiniteError, match="nan"):
            algebra._trim_bounded(np.array([[np.nan, 1]], dtype=complex), np.ones((1, 2)), 0)

    def test_dense_kernel_runs_every_product_and_expansion_from_3x3(self, monkeypatch):
        # every @, 1 x 1 included, and det and det_adjugate from 3 x 3 run
        # the dense kernel; a 2 x 2 determinant is two products
        calls = []
        for name in ("_dense_expand", "_dense_matmul"):
            real = getattr(algebra, name)
            monkeypatch.setattr(algebra, name,
                                lambda *a, real=real, name=name: calls.append(name) or real(*a))
        rng = np.random.default_rng(990)
        for n in range(1, 7):
            m = random_poly_matrix(rng, n)
            expand = ["_dense_expand"] if n >= 3 else []
            for compute, want in ((m.det_adjugate, expand), (m.det, expand),
                                  (lambda: m @ m, ["_dense_matmul"]),
                                  (lambda: PolyMatrix(m.entries[:1]) @ m, ["_dense_matmul"])):
                calls.clear()
                compute()
                assert calls == want


class TestWrapCount:
    """The matrix routines build a LaurentPoly only for each output entry."""

    @pytest.fixture
    def built(self, monkeypatch):
        count = [0]
        fill = algebra._fill

        def counting(*args):
            count[0] += 1
            return fill(*args)

        monkeypatch.setattr(algebra, "_fill", counting)
        return count

    @pytest.mark.parametrize("n", range(1, 7))
    def test_det_adjugate(self, built, n):
        m = kernel_matrix(np.random.default_rng(500 + n), n, n)
        built[0] = 0
        m.det_adjugate()
        assert built[0] <= n * n + 1

    @pytest.mark.parametrize("rows, inner, cols", [(1, 1, 1), (2, 3, 4), (5, 5, 5), (6, 2, 3)])
    def test_matmul(self, built, rows, inner, cols):
        rng = np.random.default_rng(600 + rows)
        a, b = kernel_matrix(rng, rows, inner), kernel_matrix(rng, inner, cols)
        built[0] = 0
        a @ b
        assert built[0] <= rows * cols


class TestMinorSchedule:
    """The memoized Laplace expansion's products, counted per level."""

    DENSE = {True: [2, 21, 88, 285, 816, 2177], False: [2, 9, 28, 75, 186, 441]}

    @pytest.mark.parametrize("cofactors", [True, False])
    def test_dense_products(self, cofactors):
        sizes = [sum(entry.size for entry, _ in algebra._minor_schedule(n, cofactors)[0])
                 for n in range(2, 8)]
        assert sizes == self.DENSE[cofactors]

    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize("zero_prob", [0.0, 0.4])
    def test_products_made(self, monkeypatch, n, zero_prob):
        # every product of the schedule is made, those of zero entries too:
        # a 2 x 2 determinant's two by _mul, from 3 x 3 on all of them by
        # the dense kernel, which gets the schedule's levels
        m = random_poly_matrix(np.random.default_rng(800 + n), n, zero_prob)
        made = [0]
        mul, expand = algebra._mul, algebra._dense_expand

        def counting_mul(x, y):
            made[0] += 1
            return mul(x, y)

        def counting_expand(entries, levels):
            made[0] += sum(entry.size for entry, _ in levels)
            return expand(entries, levels)

        monkeypatch.setattr(algebra, "_mul", counting_mul)
        monkeypatch.setattr(algebra, "_dense_expand", counting_expand)
        for cofactors, compute in ((True, m.det_adjugate), (False, m.det)):
            made[0] = 0
            compute()
            assert made[0] == self.DENSE[cofactors][n - 2]


class TestPolyMatrixDet:
    def test_1x1(self):
        det, adj = PolyMatrix([[H0]]).det_adjugate()
        assert det == H0
        assert adj[0, 0] == LaurentPoly.one()

    def test_2x2_identity(self):
        det, adj = PolyMatrix.identity(2).det_adjugate()
        assert det == LaurentPoly.one()
        assert adj.almost_equal(PolyMatrix.identity(2))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            PolyMatrix.zeros(2, 3).det_adjugate()

    def test_exp1_determinant_structure(self):
        # det S_vv for the two-band bank is proportional to q * q~ with
        # q = 50 - 17 z^-1 (the synthesis denominator)
        tildes = [h.paraconjugate() for h in (H0, H1)]
        svv = PolyMatrix([[(a * tb).downsample(2) for tb in tildes] for a in (H0, H1)])
        det, adj = svv.det_adjugate()
        q = LaurentPoly.from_causal([50, -17])
        qq = q * q.paraconjugate()
        ratio = det.coeffs[0] / qq.coeffs[0]
        assert det.almost_equal(qq * ratio, 1e-12)
        # m * adj = det * I as a polynomial identity
        prod = svv @ adj
        ident = PolyMatrix.identity(2).scale(det)
        assert prod.almost_equal(ident, 1e-12)

    def test_adjugate_identity_random(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 4):
            for _ in range(5):
                m = PolyMatrix([[random_poly(rng, 3, complex_coeffs=True)
                                 for _ in range(n)] for _ in range(n)])
                det, adj = m.det_adjugate()
                prod = m @ adj
                ident = PolyMatrix.identity(n).scale(det)
                scale = max(prod.max_abs_coeff(), ident.max_abs_coeff(), 1e-300)
                assert (prod - ident).max_abs_coeff() <= 1e-9 * scale

    def test_matches_plain_cofactor_exactly(self):
        # up to 2 x 2; larger ones match the oracle to roundoff
        # (TestDenseKernel::test_det_adjugate_close)
        rng = np.random.default_rng(8)
        for n in (1, 2):
            for _ in range(4):
                m = random_poly_matrix(rng, n)
                det, adj = m.det_adjugate()
                grid = ref_grid(m)
                assert_bytes(det, ref_det(grid))
                for i in range(n):
                    for j in range(n):
                        minor = [[grid[r][c] for c in range(n) if c != i]
                                 for r in range(n) if r != j]
                        cof = ref_det(minor) if n > 1 else REF_ONE
                        assert_bytes(adj[i, j], ref_neg(cof) if (i + j) % 2 else cof)

    def test_det_is_adjugate_determinant(self):
        rng = np.random.default_rng(9)
        for m in [random_poly_matrix(rng, n) for n in range(1, 7)]:
            assert_bytes(m.det(), ref_pair(m.det_adjugate()[0]))

    def test_8x8_is_tractable(self):
        m = random_poly_matrix(np.random.default_rng(10), 8, zero_prob=0.0)
        start = time.perf_counter()
        det, adj = m.det_adjugate()
        assert time.perf_counter() - start < 10.0
        assert not det.is_zero
        prod = m @ adj
        ident = PolyMatrix.identity(8).scale(det)
        scale = max(prod.max_abs_coeff(), ident.max_abs_coeff(), 1e-300)
        assert (prod - ident).max_abs_coeff() <= 1e-9 * scale


def one_by_one(num, den):
    """The 1 x 1 RationalMatrix num / den."""
    return RationalMatrix(PolyMatrix([[num]]), den)


class TestRationalTF:
    """The scalar num / den; its impulse response and causality are those
    of the 1 x 1 RationalMatrix."""

    def test_normalization(self):
        # the scalar view holds the matrix's normalized den
        r = one_by_one(LaurentPoly([2]), LaurentPoly.from_causal([50, -17]))[0, 0]
        assert r.den.lowest_power == 0
        assert r.den.coeffs[-1] == 1.0

    def test_impulse_response_geometric_entry(self):
        r = one_by_one(LaurentPoly([2]), LaurentPoly.from_causal([50, -17]))
        h = r.impulse_responses(3)
        assert h.shape == (1, 1, 3)
        assert np.allclose(h[0, 0], [4.000e-2, 1.360e-2, 4.624e-3], rtol=0, atol=1e-12)

    def test_impulse_response_constant(self):
        r = one_by_one(LaurentPoly.one(), LaurentPoly.one())
        assert np.allclose(r.impulse_responses(3)[0, 0], [1, 0, 0])

    def test_impulse_response_scaled_entry(self):
        r = one_by_one(LaurentPoly([14]), LaurentPoly.from_causal([50, -17]))
        assert np.allclose(r.impulse_responses(2)[0, 0], [2.800e-1, 9.520e-2], atol=1e-12)

    def test_non_causal_rejected(self):
        r = one_by_one(LaurentPoly([1], 1), LaurentPoly.from_causal([1, 0.5]))
        with pytest.raises(NonCausalError):
            r.require_causal()
        with pytest.raises(NonCausalError):
            r.impulse_responses(4)
        # z / (z + 0.5) = 1 / (1 + 0.5 z^-1) is causal, and so is a zero numerator
        one_by_one(LaurentPoly([1], 1), LaurentPoly([0.5, 1])).require_causal()
        one_by_one(LaurentPoly.zero(), LaurentPoly.one()).require_causal()
        with pytest.raises(ValueError, match="n_terms must be positive"):
            one_by_one(LaurentPoly.one(), LaurentPoly.one()).impulse_responses(0)

    # The poles of a rational entry are the roots of its normalized den.
    def test_poles_exp1(self):
        r = RationalTF(LaurentPoly([2]), LaurentPoly.from_causal([50, -17]))
        assert np.allclose(poly_roots(r.den.coeffs), [0.34])

    def test_poles_unstable(self):
        r = RationalTF(LaurentPoly.one(), LaurentPoly.from_causal([1, -2]))
        assert np.allclose(poly_roots(r.den.coeffs), [2.0])

    def test_poles_exp2_quadratic(self):
        r = RationalTF(LaurentPoly.one(), LaurentPoly.from_causal([2594, -642, -147]))
        poles = poly_roots(r.den.coeffs)
        # quadratic formula on 2594 z^2 - 642 z - 147
        disc = np.sqrt(642.0 ** 2 + 4 * 2594 * 147)
        expected = sorted([(642 + disc) / (2 * 2594), (642 - disc) / (2 * 2594)])
        assert np.allclose(sorted(poles.real), expected, atol=1e-12)

    def test_constant_denominator_has_no_poles(self):
        r = RationalTF(LaurentPoly([3]), LaurentPoly([2]))
        assert poly_roots(r.den.coeffs).size == 0

    def test_cross_multiplication_equality(self):
        a = RationalTF(LaurentPoly([2]), LaurentPoly.from_causal([50, -17]))
        b = RationalTF(LaurentPoly([4]), LaurentPoly.from_causal([100, -34]))
        c = RationalTF(LaurentPoly([4]), LaurentPoly.from_causal([100, -35]))
        assert a.equals(b)
        assert not a.equals(c)

    def test_impulse_response_geometric_decay(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n_poles = int(rng.integers(1, 4))
            poles = rng.uniform(0.1, 0.9, n_poles) * np.exp(2j * np.pi * rng.uniform(size=n_poles))
            den = LaurentPoly.one()
            for p in poles:
                den = den * LaurentPoly.from_causal([1, -p])
            num = LaurentPoly.from_causal(rng.uniform(-1, 1, n_poles)
                                          + 1j * rng.uniform(-1, 1, n_poles))
            h = np.abs(one_by_one(num, den).impulse_responses(80)[0, 0])
            rho = float(np.abs(poles).max())
            # fit C on the head, then the bound must hold for the tail
            decay = rho ** np.arange(80)
            C = max((h[:20] / decay[:20]).max(), 1e-12) * (1 + 1e-9)
            assert np.all(h <= C * decay)

    def test_dict_round_trip(self):
        r = one_by_one(LaurentPoly.from_causal([6, -3]), LaurentPoly.from_causal([50, -17]))
        r2 = RationalTF.from_dict(r.entry_dicts()[0][0])
        assert r[0, 0].equals(r2, 1e-15)
        assert_bytes(r2.num, (r.num[0, 0].lowest_power, r.num[0, 0].coeffs))
        assert_bytes(r2.den, (r.den.lowest_power, r.den.coeffs))


def reference_entrywise_call(m, z):
    """m at z, entry by entry with LaurentPoly.__call__."""
    return np.array([[e(z) for e in row] for row in m.entries], dtype=np.complex128)


def assert_matches_entrywise(m, z):
    """m(z) is each entry's own call: bit for bit on two points or more; on
    one point, where the stacked pass and an entry's own length-1 pass
    round differently, within 1e-15 of what the Horner sums add up."""
    got, want = m(z), reference_entrywise_call(m, z)
    if z.size > 1:
        assert_same_floats(got, want)
    else:
        assert np.all(np.abs(got - want) <= 1e-15 * abs_matrix(m)(np.abs(z)).real)


def reference_impulse_response(num, den, n_terms):
    """The causal taps of num / den (den normalized) by scalar long
    division, as the scalar RationalTF computed them."""
    deg = den.highest_power
    d = np.array([den.coeff(deg - m) for m in range(deg + 1)], dtype=np.complex128)
    h = np.zeros(n_terms, dtype=np.complex128)
    if num.is_zero:
        return h
    for k in range(n_terms):
        acc = num.coeff(deg - k)
        for m in range(1, min(k, deg) + 1):
            acc -= d[m] * h[k - m]
        h[k] = acc / d[0]
    return h


def assert_same_floats(got, want):
    """Equal real and imaginary parts, signed zeros included."""
    assert got.shape == want.shape
    g, w = got.view(np.float64), want.view(np.float64)
    assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))


# The unit-circle grid of wiener.reconstruction_check: 64 even angles and
# 16 drawn from seed 0.
RECONSTRUCTION_GRID = np.exp(1j * np.concatenate([
    2 * np.pi * np.arange(64) / 64, np.random.default_rng(0).uniform(0, 2 * np.pi, 16)]))


def stable_reduced_filters(seed, count):
    """The reduced A of `count` stable square banks drawn as the benchmark's
    wiener sweep draws them: M = 2..4, a delay of one to two blocks."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        M = int(rng.integers(2, 5))
        fb = random_bank(rng, M, M, order_max=M + 1, delay=int(rng.integers(M, 2 * M)))
        ws = wiener_solve(fb, InputPSD.white())
        if ws.stable and ws.poles.size:
            out.append(ws.reduced())
    return out


class TestRationalMatrix:
    """One numerator matrix over one denominator, against the per-entry
    references it replaced, bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_call_matches_entrywise(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(30):
            rows, cols = (int(k) for k in rng.integers(1, 7, 2))
            m = PolyMatrix([[kernel_entry(rng) if rng.uniform() < 0.5
                             else random_poly(rng, 6, lo_range=(-6, 4),
                                              complex_coeffs=bool(rng.uniform() < 0.5))
                             for _ in range(cols)] for _ in range(rows)])
            grids = (RECONSTRUCTION_GRID,
                     np.exp(2j * np.pi * rng.uniform(size=int(rng.integers(1, 40)))),
                     rng.uniform(0.5, 2, (3, 4)) * np.exp(2j * np.pi * rng.uniform(size=(3, 4))))
            for z in grids + tuple(g.ravel()[:k] for g in grids for k in (1, 2)):
                for a in (m, PolyMatrix([[m[0, 0]]])):
                    assert_matches_entrywise(a, z)

    def test_call_raises_z_to_each_lowest_power(self):
        # numpy computes z ** -1 and z ** 2 by fast paths that an integer
        # exponent array does not take; on this grid they round differently
        rng = np.random.default_rng(5)
        m = PolyMatrix([[LaurentPoly(rng.normal(size=4) + 1j * rng.normal(size=4), lo)
                         for lo in row] for row in ([-1, 2, 0], [-3, 1, -1], [2, 5, -2])])
        z = RECONSTRUCTION_GRID
        assert_same_floats(m(z), reference_entrywise_call(m, z))
        # and by z ** 0, which turns the Horner sum -0 - 1j at z = -1 into +0 - 1j
        m0 = PolyMatrix([[LaurentPoly([complex(-0.0, -1.0)]), LaurentPoly([1.0], -1)]])
        assert_same_floats(m0(z), reference_entrywise_call(m0, z))
        a = RationalMatrix(m, LaurentPoly.from_causal([2, -0.5, 0.1]))
        assert_same_floats(a(z), np.array([[a[i, j].num(z) / a.den(z) for j in range(3)]
                                           for i in range(3)]))

    def test_zero_matrix(self):
        z = RECONSTRUCTION_GRID
        assert_same_floats(PolyMatrix.zeros(2, 3)(z), np.zeros((2, 3, z.size), dtype=complex))
        assert_same_floats(PolyMatrix.zeros(2, 3)(0.5j), np.zeros((2, 3), dtype=complex))

    def test_reduced_filters_match_entrywise(self):
        z = RECONSTRUCTION_GRID
        for a in stable_reduced_filters(seed=11, count=6):
            got = a(z)
            taps = a.impulse_responses(60)
            for i, j in np.ndindex(*got.shape[:2]):
                num = a.num[i, j]
                assert_same_floats(got[i, j], num(z) / a.den(z))
                assert_same_floats(taps[i, j], reference_impulse_response(num, a.den, 60))

    @pytest.mark.parametrize("seed", range(3))
    def test_impulse_responses_match_long_division(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            den = LaurentPoly(rng.normal(size=int(rng.integers(1, 5))), int(rng.integers(-3, 2)))
            m = PolyMatrix([[kernel_entry(rng) for _ in range(3)] for _ in range(2)])
            a = RationalMatrix(m, den)
            deg = a.den.highest_power
            # keep the causal part of each numerator
            a = RationalMatrix(PolyMatrix(
                [[LaurentPoly(e.coeffs[:max(deg - e.lowest_power + 1, 0)], e.lowest_power)
                  for e in row] for row in a.num.entries]), a.den)
            taps = a.impulse_responses(12)
            for i, j in np.ndindex(2, 3):
                assert_same_floats(taps[i, j], reference_impulse_response(a.num[i, j], a.den, 12))

    def test_normalization_matches_the_scalar(self):
        # den moves to lowest power 0 and leading coefficient 1, num with it;
        # each entry is the value of the unnormalized scalar num / den
        rng = np.random.default_rng(3)
        den = LaurentPoly(rng.normal(size=3) + 1j * rng.normal(size=3), -2)
        m = kernel_matrix(rng, 3, 2)
        a = RationalMatrix(m, den)
        assert a.den.lowest_power == 0 and abs(a.den.coeffs[-1] - 1.0) <= 1e-15
        for i, j in np.ndindex(3, 2):
            assert a[i, j].equals(RationalTF(m[i, j], den), 1e-15)
        assert a.entry_dicts()[2][1] == {"num": a.num[2, 1].to_text(), "den": a.den.to_text()}

    @pytest.mark.parametrize("preset", [experiment_1, experiment_2])
    def test_entries_keep_the_matrix_bytes(self, preset):
        # an entry, and an entry read back from wiener.json's text form, hold
        # the matrix's own numerator and denominator: neither is normalized
        # again (exp1's den would lose a last bit to a second 1 / lead)
        a = wiener_solve(preset().fb, InputPSD.white()).reduced()
        dicts = a.entry_dicts()
        for i, j in np.ndindex(a.num.rows, a.num.cols):
            for r in (a[i, j], RationalTF.from_dict(dicts[i][j])):
                assert_bytes(r.num, ref_pair(a.num[i, j]))
                assert_bytes(r.den, ref_pair(a.den))

    def test_two_by_two_impulse_responses(self):
        # the two-band Wiener filter: [[2, 14], [6 - 3z^-1, -8 - 4z^-1]] / (50 - 17z^-1)
        nums = [[[2], [14]], [[6, -3], [-8, -4]]]
        a = RationalMatrix(PolyMatrix([[LaurentPoly.from_causal(n) for n in row] for row in nums]),
                           LaurentPoly.from_causal([50, -17]))
        h = a.impulse_responses(3)
        assert h.shape == (2, 2, 3)
        assert np.allclose(h[0, 0], [4.000e-2, 1.360e-2, 4.624e-3], rtol=0, atol=1e-12)
        assert np.allclose(h[0, 1], [2.800e-1, 9.520e-2, 3.2368e-2], rtol=0, atol=1e-12)
        assert np.allclose(h[1, 0], [0.12, -0.0192, -0.006528], rtol=0, atol=1e-12)

    def test_first_noncausal_entry_raises(self):
        # the reduced A of the delay bank [z^-1, z^-2] at M = 2: entry (1, 0) is z
        one, zero, z = LaurentPoly.one(), LaurentPoly.zero(), LaurentPoly([1], 1)
        a = RationalMatrix(PolyMatrix([[zero, one], [z, zero]]), one)
        message = "numerator degree 1 exceeds denominator degree 0"
        with pytest.raises(NonCausalError) as err:
            a.require_causal()
        assert str(err.value) == message
        with pytest.raises(NonCausalError) as err:
            a.impulse_responses(4)
        assert str(err.value) == message
        # two offending entries: the first in row-major order is named
        a = RationalMatrix(PolyMatrix([[one, z * z], [z, zero]]), one)
        with pytest.raises(NonCausalError, match="^numerator degree 2 exceeds"):
            a.require_causal()

    def test_equals(self):
        den = LaurentPoly.from_causal([50, -17])
        m = PolyMatrix([[LaurentPoly([2]), LaurentPoly.zero()]])
        a = RationalMatrix(m, den)
        assert a.equals(RationalMatrix(PolyMatrix([[LaurentPoly([4]), LaurentPoly.zero()]]),
                                       den * 2.0))
        assert not a.equals(RationalMatrix(PolyMatrix([[LaurentPoly([4]), LaurentPoly([1e-3])]]),
                                           den * 2.0))
        assert not a.equals(RationalMatrix(PolyMatrix([[LaurentPoly([2])]]), den))


def test_poly_roots_known_quadratic():
    roots = poly_roots(np.array([-17.0, 50.0]))
    assert np.allclose(roots, [0.34])
    roots = poly_roots(np.array([2.0, -3.0, 1.0]))  # (z-1)(z-2)
    assert np.allclose(sorted(roots.real), [1.0, 2.0])


@pytest.mark.filterwarnings("error")
def test_poly_roots_leaves_a_root_with_vanishing_slope():
    # z^2: p'(0) = 0 is under NEWTON_MIN_SLOPE, so no Newton step divides 0 by 0
    assert poly_roots(np.array([0.0, 0.0, 1.0])).tolist() == [0j, 0j]


def test_poly_roots_polishes_simple_roots(monkeypatch):
    # (z - 2)(z - 0.5) from eigenvalues 1e-6 off: the Newton steps restore them
    off = np.array([2 + 1e-6, 0.5 - 1e-6], dtype=np.complex128)
    monkeypatch.setattr(np.linalg, "eigvals", lambda comp: off.copy())
    roots = poly_roots(np.array([1.0, -2.5, 1.0]))
    assert np.abs(roots - [2.0, 0.5]).max() <= 1e-15


class TestInputChecks:
    """Each input check of the algebra layer refuses its bad input."""

    def test_downsampling_factor_below_one(self):
        with pytest.raises(ValueError, match="downsampling factor must be >= 1"):
            H0.downsample(0)

    @pytest.mark.parametrize("entries", [[], [[]]], ids=["no_rows", "empty_row"])
    def test_empty_poly_matrix(self, entries):
        with pytest.raises(ValueError, match="PolyMatrix must be non-empty"):
            PolyMatrix(entries)

    def test_ragged_poly_matrix(self):
        with pytest.raises(ValueError, match="ragged rows in PolyMatrix"):
            PolyMatrix([[H0, H1], [H0]])

    def test_matmul_inner_dimensions(self):
        with pytest.raises(ValueError, match="inner dimensions do not match"):
            PolyMatrix([[H0, H1]]) @ PolyMatrix([[H0, H1]])

    @pytest.mark.parametrize("method", ["det", "det_adjugate"])
    def test_determinant_of_non_square(self, method):
        with pytest.raises(ValueError, match="determinant requires a square matrix"):
            getattr(PolyMatrix([[H0, H1]]), method)()

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError, match="zero denominator"):
            RationalMatrix(PolyMatrix([[H0]]), LaurentPoly.zero())
