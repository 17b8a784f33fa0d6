import re
import time

import numpy as np
import pytest

from ufbwiener import algebra
from ufbwiener.algebra import (
    LaurentPoly,
    NonCausalError,
    NonFiniteError,
    PolyMatrix,
    RationalTF,
    poly_roots,
)

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
        assert np.array_equal(H0.causal_taps(5), [4, 7, 2, 0, 0])
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


def padded_sum(a, b):
    """The coefficients a + b sums before it trims, and their lowest power."""
    lo = min(a.lowest_power, b.lowest_power)
    out = np.zeros(max(a.highest_power, b.highest_power) - lo + 1, dtype=np.complex128)
    out[a.lowest_power - lo:a.highest_power - lo + 1] += a.coeffs
    out[b.lowest_power - lo:b.highest_power - lo + 1] += b.coeffs
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
            assert_canonical(a + b, *padded_sum(a, b))
            assert_canonical(a - b, *padded_sum(a, -b))
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


def cofactor_det_reference(grid):
    """Plain recursive Laplace expansion along the first row, skipping zeros."""
    n = len(grid)
    if n == 1:
        return grid[0][0]
    if n == 2:
        return grid[0][0] * grid[1][1] - grid[0][1] * grid[1][0]
    acc = LaurentPoly.zero()
    for j in range(n):
        if grid[0][j].is_zero:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in grid[1:]]
        term = grid[0][j] * cofactor_det_reference(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def random_poly_matrix(rng, n, zero_prob=0.2):
    return PolyMatrix([[LaurentPoly.zero() if rng.uniform() < zero_prob
                        else random_poly(rng, 3, complex_coeffs=True)
                        for _ in range(n)] for _ in range(n)])


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
        rng = np.random.default_rng(8)
        for n in range(1, 7):
            for _ in range(4):
                m = random_poly_matrix(rng, n)
                det, adj = m.det_adjugate()
                assert det == cofactor_det_reference(m.entries)
                for i in range(n):
                    for j in range(n):
                        minor = [[m[r, c] for c in range(n) if c != i]
                                 for r in range(n) if r != j]
                        cof = cofactor_det_reference(minor) if n > 1 else LaurentPoly.one()
                        assert adj[i, j] == (-cof if (i + j) % 2 else cof)

    def test_det_is_adjugate_determinant(self):
        rng = np.random.default_rng(9)
        for n in range(1, 7):
            m = random_poly_matrix(rng, n)
            assert m.det() == m.det_adjugate()[0]

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


class TestRationalTF:
    def test_normalization(self):
        r = RationalTF(LaurentPoly([2]), LaurentPoly.from_causal([50, -17]))
        assert r.den.lowest_power == 0
        assert r.den.coeffs[-1] == 1.0

    def test_impulse_response_geometric_entry(self):
        r = RationalTF(LaurentPoly([2]), LaurentPoly.from_causal([50, -17]))
        h = r.impulse_response(3)
        assert np.allclose(h, [4.000e-2, 1.360e-2, 4.624e-3], rtol=0, atol=1e-12)

    def test_impulse_response_constant(self):
        r = RationalTF(LaurentPoly.one(), LaurentPoly.one())
        assert np.allclose(r.impulse_response(3), [1, 0, 0])

    def test_impulse_response_scaled_entry(self):
        r = RationalTF(LaurentPoly([14]), LaurentPoly.from_causal([50, -17]))
        assert np.allclose(r.impulse_response(2), [2.800e-1, 9.520e-2], atol=1e-12)

    def test_non_causal_rejected(self):
        r = RationalTF(LaurentPoly([1], 1), LaurentPoly.from_causal([1, 0.5]))
        with pytest.raises(NonCausalError):
            r.require_causal()
        with pytest.raises(NonCausalError):
            r.impulse_response(4)
        # z / (z + 0.5) = 1 / (1 + 0.5 z^-1) is causal, and so is a zero numerator
        RationalTF(LaurentPoly([1], 1), LaurentPoly([0.5, 1])).require_causal()
        RationalTF(LaurentPoly.zero(), LaurentPoly.one()).require_causal()

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
            r = RationalTF(num, den)
            h = np.abs(r.impulse_response(80))
            rho = float(np.abs(poles).max())
            # fit C on the head, then the bound must hold for the tail
            decay = rho ** np.arange(80)
            C = max((h[:20] / decay[:20]).max(), 1e-12) * (1 + 1e-9)
            assert np.all(h <= C * decay)

    def test_dict_round_trip(self):
        r = RationalTF(LaurentPoly.from_causal([6, -3]), LaurentPoly.from_causal([50, -17]))
        r2 = RationalTF.from_dict(r.to_dict())
        assert r.equals(r2, 1e-15)


def test_poly_roots_known_quadratic():
    roots = poly_roots(np.array([-17.0, 50.0]))
    assert np.allclose(roots, [0.34])
    roots = poly_roots(np.array([2.0, -3.0, 1.0]))  # (z-1)(z-2)
    assert np.allclose(sorted(roots.real), [1.0, 2.0])
