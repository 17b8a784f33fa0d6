import functools
import re
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


# `det`, `det_adjugate` and `@` choose between looping over _mul/_add and
# the stacked evaluator by the number of products; these thresholds force
# every level and product onto one of them.
EVALUATORS = {"stacked": 0, "looped": 10 ** 9}


def each_evaluator(monkeypatch):
    """Yield each evaluator's name with it forced for the matrix routines."""
    for name, threshold in EVALUATORS.items():
        monkeypatch.setattr(algebra, "_STACK_MIN_PRODUCTS", threshold)
        yield name


class TestMatrixKernelOracle:
    """det, the adjugate and the matrix products store, byte for byte, what
    the plain-numpy oracle computes, with either evaluator."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_det_adjugate_bytes(self, monkeypatch, n):
        rng = np.random.default_rng(100 + n)
        cancelled = 0
        # the plain oracle takes about a second per 7 x 7 adjugate
        for case in range(6) if n < 7 else (0, 3, 5):
            m = kernel_matrix(rng, n, n, integer=case % 3 == 2, dependent=case % 2 == 1)
            grid = ref_grid(m)
            want_det, want_adj = ref_det(grid), ref_adjugate(grid)
            for _ in each_evaluator(monkeypatch):
                det, adj = m.det_adjugate()
                assert_bytes(det, want_det)
                assert_bytes(m.det(), want_det)
                assert_grid_bytes(adj, want_adj)
            cancelled += det.is_zero
        if n > 1:
            assert cancelled  # the integer dependent cases cancel exactly

    @pytest.mark.parametrize("n", range(1, 8))
    def test_products_and_sums_bytes(self, monkeypatch, n):
        rng = np.random.default_rng(200 + n)
        for case in range(6):
            inner, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            a = kernel_matrix(rng, n, inner, integer=case % 2 == 1)
            b = kernel_matrix(rng, inner, cols, integer=case % 2 == 1)
            c = kernel_matrix(rng, n, inner, integer=case % 2 == 1)
            p = kernel_entry(rng)
            for _ in each_evaluator(monkeypatch):
                assert_grid_bytes(a @ b, ref_matmul(ref_grid(a), ref_grid(b)))
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
    def test_overflowing_product_in_det_rejected(self, monkeypatch, n):
        rng = np.random.default_rng(400 + n)
        # every product of two entries is near 1e320, past the largest double
        m = PolyMatrix([[LaurentPoly(rng.uniform(0.5, 1, 2) * 1e160, 0) for _ in range(n)]
                        for _ in range(n)])
        for _ in each_evaluator(monkeypatch):
            for compute in (m.det, m.det_adjugate, lambda: m @ m):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # no RuntimeWarning first
                    with pytest.raises(NonFiniteError, match="inf"):
                        compute()

    def test_overflowing_sum_in_stacked_det_rejected(self, monkeypatch):
        # both products are near 1.4e308, their difference overflows; the
        # looped `_add` lets numpy warn first
        x = LaurentPoly([1.2e154])
        m = PolyMatrix([[x, -x], [x, x]])
        monkeypatch.setattr(algebra, "_STACK_MIN_PRODUCTS", 0)
        for compute in (m.det, m.det_adjugate, lambda: m @ m.paraconjugate()):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteError, match="inf"):
                    compute()

    def test_minor_only_zero_entries_read_is_skipped(self, monkeypatch):
        # row 0 reads only the minor of rows 1, 2 and columns 0, 2; the one of
        # columns 1, 2 would overflow, and no term with a nonzero entry reads it
        big = LaurentPoly([1e200])
        one, zero = LaurentPoly.one(), LaurentPoly.zero()
        m = PolyMatrix([[zero, one, zero], [one, big, big], [one, big, -big]])
        for _ in each_evaluator(monkeypatch):
            assert_bytes(m.det(), ref_det(ref_grid(m)))


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


def trim_error(row, lo):
    """The NonFiniteError message `_trim` gives for row, or None."""
    try:
        algebra._trim(row, lo)
    except NonFiniteError as e:
        return str(e)
    return None


def stack_pairs(stack):
    """The (lowest_power, coeffs) of each row of a stack, as the oracle holds them."""
    return [(lo, c) for c, lo in algebra._unstack(stack)]


def ragged_operands(rng, count):
    """Trimmed pairs of 0 to 20 coefficients: signed zeros inside, ends at
    1e-14 to 1 of the largest, integers, or the zero polynomial."""
    out = []
    for _ in range(count):
        n = int(rng.integers(0, 21))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n) * rng.integers(2)
        if n and rng.uniform() < 0.3:
            c = rng.integers(-3, 4, n) + 0j
        if n > 2 and rng.uniform() < 0.3:
            c[1:-1] *= rng.choice([1.0, 0.0, -0.0], n - 2)
        if n:
            c[0] *= 10.0 ** rng.uniform(-14, 0)
        out.append(algebra._trim(c.astype(np.complex128), int(rng.integers(-6, 6))))
    return out


def stack_of(pairs):
    """A stack holding the trimmed pairs, with zeros around each."""
    lo = min((lo for c, lo in pairs if c.size), default=0)
    width = max((at + c.size for c, at in pairs if c.size), default=lo) - lo + 2
    grid = np.zeros((len(pairs), width), dtype=np.complex128)
    for i, (c, at) in enumerate(pairs):
        grid[i, at - lo:at - lo + c.size] = c
    return algebra._trim_rows(grid, lo)


class TestStackedKernel:
    """The stacked evaluator's pieces against the per-pair kernel."""

    @pytest.mark.parametrize("length", range(1, 21))
    def test_matmul_dots_are_convolve_dots(self, length):
        # np.convolve computes each output as `0.0 + dot`; the stacked
        # products rely on np.matmul of (G, 1, L) by (G, L, 1) stacks giving
        # those bits, with 0.0 added for L = 1
        rng = np.random.default_rng(700 + length)
        shape = (400, length)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for x in (a, w):  # signed zeros and small integers
            x[rng.uniform(size=shape) < 0.2] = rng.choice([0.0, -0.0, complex(-0.0, 0.0),
                                                          complex(0.0, -0.0), -1.0, 2j])
        dots = np.matmul(a[:, None, :], w[:, :, None]).ravel()
        if length == 1:
            dots = dots + 0.0
        want = np.array([np.dot(x, y) + 0.0 for x, y in zip(a, w)])
        assert dots.tobytes() == want.tobytes()
        conv = np.array([np.convolve(x, y[::-1])[length - 1] for x, y in zip(a, w)])
        assert dots.tobytes() == conv.tobytes()

    def test_trim_rows_match_trim(self):
        rng = np.random.default_rng(710)
        for _ in range(60):
            raws = [np.array(trim_input(rng), dtype=np.complex128).ravel() for _ in range(8)]
            raws.append(np.full(3, 1e-310, dtype=np.complex128))  # all under the floor
            raws.append(np.array([1e-12, 1.0, np.nextafter(1e-12, 0.0)], dtype=np.complex128))
            width = max(r.size for r in raws) + 4
            grid = np.zeros((len(raws), width), dtype=np.complex128)
            for i, r in enumerate(raws):
                k = int(rng.integers(0, width - r.size + 1))
                grid[i, k:k + r.size] = r
            lo = int(rng.integers(-8, 8))
            stack = algebra._trim_rows(grid.copy(), lo)
            for i, got in enumerate(stack_pairs(stack)):
                c, at = algebra._trim(grid[i].copy(), lo)
                assert got[0] == at and got[1].tobytes() == c.tobytes()
            g, _, first, size = stack
            cols = np.arange(width)
            outside = (cols < first[:, None]) | (cols >= (first + size)[:, None])
            assert not g[outside].any()

    def test_trim_rows_overflowing_magnitude(self):
        # |c| overflows for a finite c: kept, as _trim keeps it
        grid = np.array([[0, 1e308 + 1e308j, 1.0, 0], [0, 1.0, 1e-13, 0]], dtype=np.complex128)
        with np.errstate(over="ignore"):
            got = stack_pairs(algebra._trim_rows(grid, -1))
            for i, (lo, c) in enumerate(got):
                want, at = algebra._trim(grid[i].copy(), -1)
                assert lo == at and c.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf), complex(np.nan, 1.0)])
    def test_trim_rows_non_finite_rejected(self, bad):
        grid = np.zeros((3, 5), dtype=np.complex128)
        grid[:, 1:4] = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]
        grid[1, 2] = bad
        grid[2, 3] = np.inf  # a later row: the first one is named
        want = trim_error(grid[1].copy(), 4)
        assert want is not None
        with pytest.raises(NonFiniteError, match=re.escape(want)):
            algebra._trim_rows(grid, 4)

    def test_products_match_mul(self):
        rng = np.random.default_rng(720)
        for _ in range(30):
            xs, ys = ragged_operands(rng, 12), ragged_operands(rng, 9)
            xi, yi = rng.integers(0, 12, 40), rng.integers(0, 9, 40)
            for ys_set in (algebra._ragged(ys), algebra._ragged(stack_of(ys))):
                got = stack_pairs(algebra._stacked_mul(algebra._ragged(xs), ys_set, xi, yi))
                want = [algebra._mul(xs[i], ys[j]) for i, j in zip(xi, yi)]
                for (lo, c), (wc, wlo) in zip(got, want):
                    assert lo == wlo and c.tobytes() == wc.tobytes()

    def test_sums_match_add(self):
        rng = np.random.default_rng(730)
        for alternate in (False, True):
            polys = ragged_operands(rng, 30)
            # near-copies and negations make the sums cancel at their ends
            polys += ([algebra._trim(c * (1 + 1e-13), lo) for c, lo in polys[:10]]
                      + [(-c, lo) for c, lo in polys[:5]])
            products = stack_of(polys)
            terms = rng.integers(-1, len(polys), (50, 5))
            got = stack_pairs(algebra._stacked_sum(products, terms, alternate))
            for row, (lo, c) in zip(terms, got):
                acc = algebra._ZERO
                for j, t in enumerate(row):
                    if t >= 0:
                        acc = algebra._add(acc, polys[t], subtract=alternate and j % 2 == 1)
                assert lo == acc[1] and c.tobytes() == acc[0].tobytes()


def memoized_recursion_products(m, cofactors):
    """How many products the memoized Laplace recursion multiplies out: per
    minor it reaches, one for each nonzero entry of its first row."""
    nonzero = [[not e.is_zero for e in row] for row in m.entries]
    made = set()

    @functools.cache
    def expand(rows, cols):
        if len(rows) == 1:
            return
        for j, c in enumerate(cols):
            if nonzero[rows[0]][c]:
                expand(rows[1:], cols[:j] + cols[j + 1:])
                made.add((rows, cols, j))

    full = tuple(range(m.rows))
    expand(full, full)
    if cofactors:
        for i in full:
            for j in full:
                expand(full[:j] + full[j + 1:], full[:i] + full[i + 1:])
    return len(made)


class TestMinorSchedule:
    """The level schedule multiplies out what the memoized recursion did."""

    DENSE = {True: [2, 21, 88, 285, 816, 2177], False: [2, 9, 28, 75, 186, 441]}

    @pytest.mark.parametrize("cofactors", [True, False])
    def test_dense_products(self, cofactors):
        sizes = [sum(entry.size for entry, _ in algebra._minor_schedule(n, cofactors)[0])
                 for n in range(2, 8)]
        assert sizes == self.DENSE[cofactors]

    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize("zero_prob", [0.0, 0.4])
    def test_products_made(self, monkeypatch, n, zero_prob):
        m = random_poly_matrix(np.random.default_rng(800 + n), n, zero_prob)
        made = [0]
        mul, stacked_mul = algebra._mul, algebra._stacked_mul

        def counting_mul(x, y):
            made[0] += 1
            return mul(x, y)

        def counting_stacked_mul(xs, ys, xi, yi):
            made[0] += len(xi)
            return stacked_mul(xs, ys, xi, yi)

        monkeypatch.setattr(algebra, "_mul", counting_mul)
        monkeypatch.setattr(algebra, "_stacked_mul", counting_stacked_mul)
        for _ in each_evaluator(monkeypatch):
            for cofactors, compute in ((True, m.det_adjugate), (False, m.det)):
                made[0] = 0
                compute()
                want = memoized_recursion_products(m, cofactors)
                if zero_prob == 0.0:
                    assert want == self.DENSE[cofactors][n - 2]
                assert made[0] == want


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
