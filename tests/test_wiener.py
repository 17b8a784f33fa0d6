import csv
import io
import itertools
import re

import numpy as np
import pytest

from ufbwiener import algebra, properties, wiener
from ufbwiener.algebra import LaurentPoly, PolyMatrix, RationalMatrix, RationalTF
from ufbwiener.harness import write_wiener
from ufbwiener.properties import (
    check_branch_independence,
    check_closed_form_consistency,
    check_psd_invariance,
    check_wiener_identity,
    random_bank,
    random_psd,
)
from ufbwiener.spectra import (
    FilterBankSpec,
    InputPSD,
    generate_wss,
    make_desired,
    run_analysis,
    unblock,
)
from ufbwiener.wiener import (
    SingularBankError,
    closed_form_eval,
    reconstruction_check,
    submatrix_det_bruteforce,
    synthesize,
    theorem1_det,
    wiener_solve,
)

BANK2 = FilterBankSpec(M=2, filters=(
    LaurentPoly.from_causal([4, 7, 2]),
    LaurentPoly.from_causal([3, -1, -1.5]),
))

BANK3 = FilterBankSpec(M=3, filters=(
    LaurentPoly.from_causal([13, -3, 2, -5, -2]),
    LaurentPoly.from_causal([1, -24, -5, 7]),
    LaurentPoly.from_causal([-19, 5, 14, 1, -8]),
))

WHITE = InputPSD.white()


def expected_two_band() -> RationalMatrix:
    den = LaurentPoly.from_causal([50, -17])
    nums = [[LaurentPoly([2]), LaurentPoly([14])],
            [LaurentPoly.from_causal([6, -3]), LaurentPoly.from_causal([-8, -4])]]
    return RationalMatrix(PolyMatrix(nums), den)


def expected_three_band() -> RationalMatrix:
    den = LaurentPoly.from_causal([2594, -642, -147])
    nums = [
        [[155.5, 20], [-26, -6], [-31.5, -5]],
        [[-40.5, 51.5], [-110, 36], [-33.5, 5.5]],
        [[225.5, -25.5, 28], [4, -82, 21], [154.5, -71.5, -7]],
    ]
    return RationalMatrix(PolyMatrix([[LaurentPoly.from_causal(n) for n in row]
                                      for row in nums]), den)


class TestWienerSolve:
    def test_two_band_matches_reference(self):
        ws = wiener_solve(BANK2, WHITE)
        assert ws.reduced().equals(expected_two_band(), 1e-9)
        assert ws.stable
        assert ws.identity_residual <= 1e-9

    def test_three_band_matches_reference(self):
        ws = wiener_solve(BANK3, WHITE)
        assert ws.reduced().equals(expected_three_band(), 1e-9)
        assert ws.stable
        assert np.allclose(sorted(ws.poles.real), sorted([
            (642 - np.sqrt(642.0 ** 2 + 4 * 2594 * 147)) / (2 * 2594),
            (642 + np.sqrt(642.0 ** 2 + 4 * 2594 * 147)) / (2 * 2594)]), atol=1e-9)

    def test_single_channel_constant(self):
        fb = FilterBankSpec(M=1, filters=(LaurentPoly([2.0]),))
        ws = wiener_solve(fb, WHITE)
        want = RationalTF(LaurentPoly.one(), LaurentPoly([2.0]))
        assert ws.reduced()[0, 0].equals(want, 1e-12)

    def test_delay_chain_is_identity(self):
        # H_i = z^-i with d = 0 makes v identical to the desired blocks
        fb = FilterBankSpec(M=3, filters=tuple(LaurentPoly.delay(i) for i in range(3)))
        ws = wiener_solve(fb, WHITE)
        one = RationalTF(LaurentPoly.one(), LaurentPoly.one())
        zero = RationalTF(LaurentPoly.zero(), LaurentPoly.one())
        for i in range(3):
            for j in range(3):
                assert ws.reduced()[i, j].equals(one if i == j else zero, 1e-12)

    def test_unstable_solution_flagged(self):
        fb = FilterBankSpec(M=1, filters=(LaurentPoly.from_causal([1, 2]),))
        ws = wiener_solve(fb, WHITE)
        assert not ws.stable
        assert np.any(np.abs(ws.poles) > 1)

    def test_duplicate_filters_singular(self):
        fb = FilterBankSpec(M=2, filters=(BANK2.filters[0], BANK2.filters[0]))
        with pytest.raises(SingularBankError):
            wiener_solve(fb, WHITE)

    def test_oversampled_bank_singular(self):
        # with L > M the subband PSD matrix has rank at most M, so its
        # determinant is the zero polynomial and no solution exists
        fb = FilterBankSpec(M=2, filters=BANK3.filters)
        with pytest.raises(SingularBankError) as exc:
            wiener_solve(fb, WHITE)
        assert "rank" in str(exc.value) or "L" in str(exc.value)

    def test_identity_holds_on_random_banks(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            M = int(rng.integers(2, 4))
            filters = tuple(LaurentPoly.from_causal(rng.uniform(-1, 1, 3))
                            for _ in range(M))
            fb = FilterBankSpec(M=M, filters=filters, delay=int(rng.integers(0, 3)))
            try:
                ws = wiener_solve(fb, WHITE)
            except SingularBankError:
                continue
            assert ws.identity_residual <= 1e-9

    def test_impulse_responses_two_band(self):
        ws = wiener_solve(BANK2, WHITE)
        h = ws.impulse_responses(3).real
        assert np.allclose(h[0, 0], [4.000e-2, 1.360e-2, 4.624e-3], atol=5e-7)
        assert np.allclose(h[0, 1], [2.800e-1, 9.520e-2, 3.237e-2], atol=5e-6)
        assert np.allclose(h[1, 0], [1.200e-1, -1.920e-2, -6.528e-3], atol=5e-7)
        assert np.allclose(h[1, 1], [-1.600e-1, -1.344e-1, -4.570e-2], atol=5e-6)

    def test_reduced_is_computed_once(self, monkeypatch):
        calls = []
        reduce_matrix = wiener._reduce_matrix

        def counting(*args):
            calls.append(1)
            return reduce_matrix(*args)

        monkeypatch.setattr(wiener, "_reduce_matrix", counting)
        ws = wiener_solve(BANK2, WHITE)
        assert ws.reduced() is ws.reduced() and len(calls) == 1
        ws.impulse_responses(3)
        ws.to_json_dict()
        assert len(calls) == 1

    def test_json_dict(self):
        ws = wiener_solve(BANK2, WHITE)
        d = ws.to_json_dict()
        assert d["M"] == 2 and d["L"] == 2 and d["stable"]
        restored = RationalTF.from_dict(d["entries"][0][0])
        assert restored.equals(ws.reduced()[0, 0], 1e-12)


class TestTheorem1:
    def test_q1_base_case(self):
        # Q = 1 reduces to the aliasing identity for a single PSD entry
        z = np.exp(2j * np.pi * np.arange(16) / 16 + 0.1j)
        want = np.array([submatrix_det_bruteforce(BANK2, WHITE, [0], [0])(zz)
                         for zz in z])
        got = theorem1_det(BANK2, WHITE, [0], [0], z)
        assert np.max(np.abs(got - want)) <= 1e-10 * (1 + np.abs(want).max())

    def test_full_determinant_two_band(self):
        z = np.exp(2j * np.pi * np.arange(64) / 64)
        det = submatrix_det_bruteforce(BANK2, WHITE, [0, 1], [0, 1])
        want = det(z)
        got = theorem1_det(BANK2, WHITE, [0, 1], [0, 1], z)
        assert np.max(np.abs(got - want)) <= 1e-8 * (1 + np.abs(want).max())

    def test_submatrix_three_band(self):
        rng = np.random.default_rng(21)
        z = np.exp(2j * np.pi * rng.uniform(size=32))
        g = LaurentPoly.from_causal([1, -0.4, 0.2])
        sx = InputPSD(g)
        for rows, cols in [([0, 2], [1, 2]), ([0, 1, 2], [0, 1, 2]), ([1], [0])]:
            det = submatrix_det_bruteforce(BANK3, sx, rows, cols)
            want = det(z)
            got = theorem1_det(BANK3, sx, rows, cols, z)
            assert np.max(np.abs(got - want)) <= 1e-8 * (1 + np.abs(want).max())

    def test_zero_filter_row(self):
        fb = FilterBankSpec(M=2, filters=(LaurentPoly.zero(), BANK2.filters[1]))
        got = theorem1_det(fb, WHITE, [0, 1], [0, 1], np.exp(0.7j))
        assert abs(got) <= 1e-12

    def test_branch_independence(self):
        rng = np.random.default_rng(22)
        z = np.exp(2j * np.pi * rng.uniform(size=8))
        base = theorem1_det(BANK3, WHITE, [0, 1], [0, 1], z, branch=0)
        for branch in (1, 2):
            other = theorem1_det(BANK3, WHITE, [0, 1], [0, 1], z, branch=branch)
            assert np.max(np.abs(other - base)) <= 1e-9 * (1 + np.abs(base).max())

    def test_fault_injection_breaks_agreement(self):
        # M = 2 rotates aliases by -1, which conjugation cannot change, so
        # the fault needs M >= 3 and a non-constant PSD to be visible
        z = np.exp(2j * np.pi * np.arange(16) / 16 + 0.05j)
        g = LaurentPoly.from_causal([1, 0.5])
        sx = InputPSD(g)
        det = submatrix_det_bruteforce(BANK3, sx, [0, 1], [0, 1])
        want = det(z)
        wrong = theorem1_det(BANK3, sx, [0, 1], [0, 1], z, flip_alias_sign=True)
        assert np.max(np.abs(wrong - want)) > 1e-6 * (1 + np.abs(want).max())

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            theorem1_det(BANK2, WHITE, [0], [0, 1], 1.0)
        with pytest.raises(ValueError):
            theorem1_det(BANK2, WHITE, [0, 1, 1], [0, 1, 1], 1.0)


def reference_theorem1_det(fb, sx, rows, cols, z, branch=0, flip_alias_sign=False):
    """The loop theorem1_det ran before it took every alias index set at
    once: one set after another, each term added in set order."""
    M, Q = fb.M, len(rows)
    z_arr = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    row_filters = [fb.filters[r] for r in rows]
    col_tildes = [fb.filters[c].paraconjugate() for c in cols]
    total = np.zeros(z_arr.shape, dtype=np.complex128)
    for combo in itertools.combinations(range(M), Q):
        combo = np.array(combo)
        pts = wiener._alias_points(z_arr, M, combo, branch)  # (n_points, Q)
        psd_pts = wiener._alias_points(z_arr, M, -combo, branch) if flip_alias_sign else pts
        s = np.prod(sx.psd(psd_pts), axis=1)
        er = np.linalg.det(np.stack([f(pts) for f in row_filters], axis=1))
        ec = np.linalg.det(np.stack([f(pts) for f in col_tildes], axis=1))
        total += s * er * ec
    total /= M ** Q
    return total if np.ndim(z) else complex(total[0])


def reference_classify(nums, delta):
    """The per-root loop _classify_delta_roots ran before it took every
    root at once: (genuine poles, cancelled roots), each in root order."""
    roots = algebra.poly_roots(delta.coeffs)
    scale = nums.max_abs_coeff()
    live = [num for row in nums.entries for num in row
            if not wiener._is_roundoff(num, scale)]
    genuine, cancelled = [], []
    for p in roots:
        is_pole = False
        for num in live:
            powers = num.lowest_power + np.arange(num.coeffs.size)
            bound = float(np.sum(np.abs(num.coeffs) * np.abs(p) ** powers))
            if abs(num(p)) > wiener.CANCEL_REL * max(bound, 1e-300):
                is_pole = True
                break
        (genuine if is_pole else cancelled).append(complex(p))
    return np.array(genuine, dtype=np.complex128), cancelled


def reference_classify_per_numerator(nums, delta):
    """The loop _classify_delta_roots ran before it took every numerator
    at once: one live numerator after another, each at every root, its
    verdicts ORed into is_pole."""
    roots = algebra.poly_roots(delta.coeffs)
    scale = nums.max_abs_coeff()
    live = [num for row in nums.entries for num in row
            if not wiener._is_roundoff(num, scale)]
    radii = np.abs(roots)[:, None]
    is_pole = np.zeros(roots.shape, dtype=bool)
    for num in live:
        powers = num.lowest_power + np.arange(num.coeffs.size)
        bound = np.sum(np.abs(num.coeffs) * radii ** powers, axis=1)
        is_pole |= np.abs(num(roots)) > wiener.CANCEL_REL * np.maximum(bound, 1e-300)
    return roots[is_pole], [complex(p) for p in roots[~is_pole]]


class TestBatchedOracles:
    """The evaluators that take all alias sets, or all roots, at once give
    what their one-at-a-time references give."""

    def test_theorem1_matches_reference(self):
        rng = np.random.default_rng(30)
        calls = 0
        for M in range(2, 7):
            for _ in range(12):
                L = int(rng.integers(1, M + 1))
                Q = int(rng.integers(1, L + 1))
                fb = random_bank(rng, M, L)
                sx = WHITE if rng.uniform() < 0.5 else random_psd(rng)
                rows = sorted(rng.choice(L, size=Q, replace=False).tolist())
                cols = sorted(rng.choice(L, size=Q, replace=False).tolist())
                n = int(rng.integers(0, 9))  # 0: a scalar point
                z = np.exp(2j * np.pi * rng.uniform(size=n)) if n else np.exp(0.3j)
                for branch, flip in itertools.product(range(M), (False, True)):
                    got = theorem1_det(fb, sx, rows, cols, z, branch, flip)
                    want = reference_theorem1_det(fb, sx, rows, cols, z, branch, flip)
                    assert type(got) is type(want) and np.shape(got) == np.shape(want)
                    assert np.all(np.abs(got - want) <= 1e-15 * (1 + np.abs(want)))
                    calls += 1
        assert calls == sum(12 * M * 2 for M in range(2, 7))

    def test_classification_matches_reference(self, monkeypatch):
        seen = []
        batched = wiener._classify_delta_roots

        def compare(nums, delta):
            got_poles, got_cancelled = batched(nums, delta)
            want_poles, want_cancelled = reference_classify(nums, delta)
            assert got_poles.dtype == want_poles.dtype
            assert got_poles.tobytes() == want_poles.tobytes()
            assert got_cancelled == want_cancelled
            seen.append((len(got_poles), len(got_cancelled)))
            return got_poles, got_cancelled

        monkeypatch.setattr(wiener, "_classify_delta_roots", compare)
        rng = np.random.default_rng(31)
        for M, banks in ((2, 16), (3, 14), (4, 10), (5, 4), (6, 2)):
            for _ in range(banks):
                L = M if rng.uniform() < 0.7 else int(rng.integers(1, M))
                fb = random_bank(rng, M, L, delay=int(rng.integers(0, 3)))
                for sx in (WHITE, random_psd(rng)):
                    try:
                        wiener_solve(fb, sx)
                    except SingularBankError:
                        pass
        wiener_solve(BANK3, WHITE)  # two cancelled roots outside the circle
        assert len(seen) >= 80
        assert sum(p for p, _ in seen) > 0 and sum(c for _, c in seen) > 0

    def test_classification_mixed_cancellation(self):
        # numerators that each share a different subset of delta's roots, so
        # a root may cancel in one numerator and stay a pole through another;
        # plus exact zeros and roundoff-sized entries
        rng = np.random.default_rng(32)
        outcomes = set()
        for _ in range(300):
            n_roots = int(rng.integers(1, 6))
            roots = (10.0 ** rng.uniform(-1, 1, n_roots)
                     * np.exp(2j * np.pi * rng.uniform(size=n_roots)))
            factors = [LaurentPoly([-r, 1.0]) for r in roots]  # z - r
            delta = LaurentPoly.one()
            for f in factors:
                delta = delta * f
            delta = delta.shift(-int(rng.integers(0, 3)))
            entries = []
            for _ in range(int(rng.integers(1, 5))):
                kind = rng.uniform()
                if kind < 0.15:
                    entries.append(LaurentPoly.zero())
                    continue
                num = LaurentPoly(rng.standard_normal(int(rng.integers(1, 3))),
                                  int(rng.integers(-2, 2)))
                for f in factors:
                    if rng.uniform() < 0.6:
                        num = num * f
                entries.append(num * 1e-12 if kind < 0.25 else num)
            nums = algebra.PolyMatrix([entries])
            got_poles, got_cancelled = wiener._classify_delta_roots(nums, delta)
            for reference in (reference_classify, reference_classify_per_numerator):
                want_poles, want_cancelled = reference(nums, delta)
                assert got_poles.tobytes() == want_poles.tobytes()
                assert got_cancelled == want_cancelled
            outcomes.add((len(got_poles) > 0, len(got_cancelled) > 0))
        assert outcomes == {(True, False), (False, True), (True, True)}

    def test_classification_matches_per_numerator_loop(self, monkeypatch):
        # shaped inputs, mostly L < M, where the PSD shapes A; the L = M
        # banks bring the cancelled roots.  The numerators differ in power
        # range, so they are padded to a common one.
        seen = []
        batched = wiener._classify_delta_roots

        def compare(nums, delta):
            got_poles, got_cancelled = batched(nums, delta)
            want_poles, want_cancelled = reference_classify_per_numerator(nums, delta)
            assert got_poles.tobytes() == want_poles.tobytes()
            assert got_cancelled == want_cancelled
            spans = {num.lowest_power for row in nums.entries for num in row if not num.is_zero}
            seen.append((nums.cols < nums.rows, len(got_poles), len(got_cancelled),
                         len(spans) > 1))
            return got_poles, got_cancelled

        monkeypatch.setattr(wiener, "_classify_delta_roots", compare)
        rng = np.random.default_rng(34)
        for M in range(2, 7):
            for _ in range(16 - 2 * M):
                L = M if rng.uniform() < 0.3 else int(rng.integers(1, M))
                fb = random_bank(rng, M, L, delay=int(rng.integers(0, 2 * M)))
                try:
                    wiener_solve(fb, random_psd(rng))
                except SingularBankError:
                    pass
        undersampled, poles, cancelled, mixed = np.array(seen).sum(axis=0)
        assert undersampled >= 20 and poles > 0 and cancelled > 0 and mixed > 0


class TestClosedForm:
    def test_two_band_entry(self):
        # A_00 = 2 / (50 - 17 z^-1)
        ref = RationalTF(LaurentPoly([2]), LaurentPoly.from_causal([50, -17]))
        for ang in np.linspace(0.1, 6.0, 7):
            z = np.exp(1j * ang)
            got = closed_form_eval(BANK2, 0, 0, z)
            want = ref.num(z) / ref.den(z)
            assert abs(got - want) <= 1e-10 * (1 + abs(want))

    def test_single_band_is_inverse_filter(self):
        fb = FilterBankSpec(M=1, filters=(LaurentPoly.from_causal([2, 1]),), delay=1)
        z = np.exp(0.9j)
        got = closed_form_eval(fb, 0, 0, z)
        want = z ** -1 / (2 + z ** -1)
        assert abs(got - want) <= 1e-12

    def test_three_band_all_entries(self):
        ws = wiener_solve(BANK3, WHITE)
        rng = np.random.default_rng(23)
        z = np.exp(2j * np.pi * rng.uniform(size=32))
        for i in range(3):
            for j in range(3):
                entry = ws.reduced()[i, j]
                per_point = []
                for zz in z:
                    want = entry.num(zz) / entry.den(zz)
                    got = closed_form_eval(BANK3, i, j, zz)
                    assert type(got) is complex
                    assert abs(got - want) <= 1e-8 * (1 + abs(want))
                    per_point.append(got)
                # one call over all points agrees with the per-point calls
                # to roundoff
                together = closed_form_eval(BANK3, i, j, z)
                assert together.shape == z.shape
                assert np.all(np.abs(together - per_point) <= 1e-13 * (1 + np.abs(per_point)))

    def test_branch_independence(self):
        z = np.exp(1.3j)
        base = closed_form_eval(BANK3, 1, 2, z, branch=0)
        for branch in (1, 2):
            assert abs(closed_form_eval(BANK3, 1, 2, z, branch=branch) - base) <= 1e-9

    def test_requires_maximal_decimation(self):
        fb = FilterBankSpec(M=3, filters=BANK2.filters)
        with pytest.raises(ValueError):
            closed_form_eval(fb, 0, 0, 1.0)

    def test_delay_consistency(self):
        # closed form with nonzero reconstruction delay matches the solver
        for d in (1, 2):
            fb = FilterBankSpec(M=2, filters=BANK2.filters, delay=d)
            ws = wiener_solve(fb, WHITE)
            for ang in (0.3, 2.1, 4.4):
                z = np.exp(1j * ang)
                for i in range(2):
                    for j in range(2):
                        want = ws.reduced()[i, j](z)
                        got = closed_form_eval(fb, i, j, z)
                        assert abs(got - want) <= 1e-8 * (1 + abs(want))


class TestThresholds:
    """Each named solver threshold, moved past the margin of a fixed bank,
    flips that bank's decision; at its default it does not."""

    def test_singular_rel(self, monkeypatch):
        # BANK2's delta is 0.146 of max|S_vv|^2
        assert wiener_solve(BANK2, WHITE).stable
        monkeypatch.setattr(wiener, "SINGULAR_REL", 0.2)
        with pytest.raises(SingularBankError):
            wiener_solve(BANK2, WHITE)

    def test_cancel_rel(self, monkeypatch):
        # BANK3's two delta roots outside the circle leave every numerator
        # near 1e-16 of its term sum; its genuine poles leave 0.86 or more
        ws = wiener_solve(BANK3, WHITE)
        assert (len(ws.poles), len(ws.cancelled_roots), ws.stable) == (2, 2, True)
        monkeypatch.setattr(wiener, "CANCEL_REL", 1e-20)
        ws = wiener_solve(BANK3, WHITE)
        assert (len(ws.poles), len(ws.cancelled_roots), ws.stable) == (4, 0, False)

    def test_deflation_remainder_rel(self, monkeypatch):
        # deflating BANK3's cancelled roots leaves remainders near 1e-17
        wiener_solve(BANK3, WHITE).reduced()
        monkeypatch.setattr(wiener, "DEFLATION_REMAINDER_REL", 1e-20)
        with pytest.raises(wiener.ReductionError, match="does not divide"):
            wiener_solve(BANK3, WHITE).reduced()

    @pytest.mark.parametrize("taps, roots", [([3.0], [0.5]), ([1.0, -0.5], [0.5, 0.5])])
    def test_more_roots_than_degree_rejected(self, taps, roots):
        # a polynomial of degree d has no more than d roots to divide out
        with pytest.raises(wiener.ReductionError, match=f"{len(roots)} cancelled roots exceed "
                           f"the degree {len(taps) - 1} "):
            wiener._deflate(LaurentPoly.from_causal(taps), roots)

    def test_vanish_rel(self, monkeypatch):
        # exact: the third filter is the sum of the first two, and the
        # modulation determinant is near 4e-17 of Hadamard's bound.  near:
        # 2e-6 of it, which puts det S_vv at 4e-12 of max|S_vv|^2, below
        # SINGULAR_REL
        exact = FilterBankSpec(M=3, filters=tuple(
            LaurentPoly.from_causal(t) for t in ([1, 2, 3, 4], [2, 1, 0, 3], [3, 3, 3, 7])))
        near = FilterBankSpec(M=2, filters=(LaurentPoly.from_causal([1, 2]),
                                            LaurentPoly.from_causal([1, 2 + 1e-5])))
        for fb, sets in ((exact, "[(0, 1, 2)]"), (near, "[(0, 1)]")):
            with pytest.raises(SingularBankError, match=re.escape(f"sets {sets}")):
                wiener_solve(fb, WHITE)
        monkeypatch.setattr(wiener, "VANISH_REL", 1e-20)
        with pytest.raises(SingularBankError, match=re.escape("sets []")):
            wiener_solve(exact, WHITE)

    @staticmethod
    def _one_zero_bank(r):
        # det E = 1 + r z^-1: a genuine pole at -r, and delta's partner
        # root at -1/r cancels
        return FilterBankSpec(M=2, filters=(LaurentPoly.from_causal([1, 0, r]),
                                            LaurentPoly.delay(1)))

    def test_trim_rel(self, monkeypatch):
        # delta = 1e-9 z^-1 + 1 + 1e-9 z: its end coefficients are 1e-9 of
        # its largest, so a trim above that drops the pole at -1e-9
        fb = self._one_zero_bank(1e-9)
        ws = wiener_solve(fb, WHITE)
        assert (len(ws.poles), len(ws.cancelled_roots)) == (1, 1)
        assert abs(ws.poles[0] + 1e-9) <= 1e-18
        monkeypatch.setattr(algebra, "TRIM_REL", 1e-8)
        ws = wiener_solve(fb, WHITE)
        assert ws.delta == LaurentPoly.one()
        assert (len(ws.poles), len(ws.cancelled_roots)) == (0, 0)

    def test_stability_margin(self, monkeypatch):
        # the genuine pole at -0.999 lies 1e-3 inside the unit circle
        fb = self._one_zero_bank(0.999)
        ws = wiener_solve(fb, WHITE)
        assert np.allclose(ws.poles, [-0.999], rtol=0, atol=1e-12) and ws.stable
        monkeypatch.setattr(wiener, "STABILITY_MARGIN", 1e-2)
        ws = wiener_solve(fb, WHITE)
        assert np.allclose(ws.poles, [-0.999], rtol=0, atol=1e-12) and not ws.stable

    def test_roundoff_numerator_rel(self, monkeypatch):
        # det E is constant, so both roots of delta cancel; with a shaped
        # input, four zero entries of A get numerators 7.6e-15 to 3.2e-14
        # of the largest one, which do not vanish at those roots
        fb = FilterBankSpec(M=5, delay=7, filters=tuple(LaurentPoly.from_causal(t) for t in (
            [-1.211631170849723, 0.17582131381327293],
            [-1.4184133349336554, 0.04247375731694336, 0.3642216792917825,
             -0.9593809856430031, 0.024556130136857757],
            [1.0925910911719403, -0.1963715973773481, -0.11315125980266227],
            [0.7008558242163387, 0.2839244715630025, -0.22921090838538416,
             0.17711502022306647, 0.19879771998228968, 0.7321039717790596, 0.934115521802074],
            [1.2037480761787718, 0.7451759102169588, 0.8793205613255126])))
        shaped = InputPSD(LaurentPoly.from_causal([-0.9036222285354876, 0.16754979540063042]))
        ws = wiener_solve(fb, shaped)
        assert (len(ws.poles), len(ws.cancelled_roots), ws.stable) == (0, 2, True)
        monkeypatch.setattr(wiener, "ROUNDOFF_NUMERATOR_REL", 1e-17)
        ws = wiener_solve(fb, shaped)
        assert (len(ws.poles), ws.stable) == (2, False)


class TestSuiteSeeds:
    """Seeds at which a suite failed its bound while every 2- and 3-band
    cofactor expansion trimmed each partial sum against itself."""

    @pytest.mark.parametrize("check, seed, cases", [
        (check_closed_form_consistency, 2772974946, 5),
        (check_closed_form_consistency, 1453321200, 5),
        (check_wiener_identity, 3716760667, 8),
    ], ids=["closed_form_2772974946", "closed_form_1453321200", "identity_3716760667"])
    def test_suite_passes(self, check, seed, cases):
        result = check(seed=seed, cases=cases)
        assert result.passed, result.detail


class TestPSDDependence:
    def test_maximally_decimated_invariant(self):
        # for L = M the Wiener solution does not depend on the input PSD
        g = LaurentPoly.from_causal([1, 0.5, -0.25])
        shaped = InputPSD(g, variance=2.0)
        for fb in (BANK2, BANK3):
            a = wiener_solve(fb, WHITE)
            b = wiener_solve(fb, shaped)
            assert a.reduced().equals(b.reduced(), 1e-8)

    @pytest.mark.parametrize("seed, cases", [(1609986645, 10), (4119214257, 6)])
    def test_invariance_suite_with_clustered_delta_roots(self, seed, cases):
        # the last case of each draws a shaped PSD whose delta puts a pole
        # in a cluster of roots near the unit circle, where reduced() is
        # 1e-8 off; the suite compares the solver's numerators/delta
        result = check_psd_invariance(seed=seed, cases=cases)
        assert result.passed, result.line()

    def test_undersampled_depends_on_psd(self):
        # with L < M the solution genuinely changes with the input spectrum
        fb = FilterBankSpec(M=2, filters=(LaurentPoly.from_causal([1, 0.3]),))
        g = LaurentPoly.from_causal([1, 0.5])
        a = wiener_solve(fb, WHITE)
        b = wiener_solve(fb, InputPSD(g))
        assert not a.reduced().equals(b.reduced(), 1e-8)

    @pytest.mark.parametrize("fb, want_poles", [
        # delay chain: A is a permutation, so six of its nine entries are 0
        (FilterBankSpec(M=3, delay=2, filters=(LaurentPoly.one(), LaurentPoly.delay(1),
                                               LaurentPoly.delay(2))), []),
        (FilterBankSpec(M=2, delay=1, filters=(LaurentPoly.from_causal([1, 0.5, 0.25]),
                                               LaurentPoly.delay(1))), [-0.25]),
    ])
    def test_roundoff_numerators_add_no_poles(self, fb, want_poles):
        # for L = M the shaped solution has the white one's poles; numerators
        # of exactly zero entries are roundoff and must not make poles
        shaped = InputPSD(LaurentPoly.from_causal([1, -0.8, 0.3]))
        white = wiener_solve(fb, WHITE)
        got = wiener_solve(fb, shaped)
        assert got.stable == white.stable == True  # noqa: E712
        assert np.allclose(np.sort_complex(got.poles), np.sort_complex(white.poles),
                           rtol=0, atol=1e-9)
        assert np.allclose(got.poles, want_poles, rtol=0, atol=1e-9)


class TestReconstruction:
    def test_two_band_perfect(self):
        ws = wiener_solve(BANK2, WHITE)
        rep = reconstruction_check(ws, BANK2, n_taps=60)
        assert rep.max_identity_residual <= 1e-9
        assert rep.max_cross_residual <= 1e-9
        assert rep.time_domain_mse <= 1e-6

    def test_three_band_perfect(self):
        ws = wiener_solve(BANK3, WHITE)
        rep = reconstruction_check(ws, BANK3, n_taps=100)
        assert rep.max_identity_residual <= 1e-9
        assert rep.time_domain_mse <= 1e-6

    def test_delay_chain_exact(self):
        fb = FilterBankSpec(M=2, filters=(LaurentPoly.one(), LaurentPoly.delay(1)))
        ws = wiener_solve(fb, WHITE)
        rep = reconstruction_check(ws, fb, n_taps=4, n_samples=2000)
        assert rep.time_domain_mse <= 1e-25

    def test_unit_circle_psd_zero_stays_finite(self):
        # shaping 1 - z^-1 puts a PSD zero, and a cancelled delta root, at z = 1
        sx = InputPSD(LaurentPoly.from_causal([1, -1]))
        ws = wiener_solve(BANK2, sx)
        rep = reconstruction_check(ws, BANK2, n_samples=2000)
        assert rep.grid_angles[0] == 0.0
        assert np.all(np.isfinite(rep.identity_residuals))
        assert np.all(np.isfinite(rep.cross_residuals))
        assert rep.max_identity_residual <= 1e-6

    @pytest.mark.filterwarnings("error")
    def test_unstable_solution_refused(self):
        # pole at -2: the 600 truncated taps used to overflow into an inf MSE
        fb = FilterBankSpec(M=2, filters=(LaurentPoly.from_causal([1, 0, 2]),
                                          LaurentPoly.from_causal([0, 1])))
        ws = wiener_solve(fb, WHITE)
        assert not ws.stable
        with pytest.raises(ValueError, match=re.escape("stable Wiener solution; poles at -2+0j")):
            reconstruction_check(ws, fb, n_taps=600, n_samples=2000)

    def test_csv(self, tmp_path):
        ws = wiener_solve(BANK2, WHITE)
        rep = reconstruction_check(ws, BANK2, n_samples=2000)
        write_wiener(tmp_path, ws, rep)
        lines = (tmp_path / "residuals.csv").read_text().strip().splitlines()
        assert lines[0] == "grid_angle,residual"
        assert len(lines) == len(rep.grid_angles) + 1
        # csv.writer's bytes, as ReconstructionReport.write_csv wrote them
        buf = io.StringIO(newline="")
        w = csv.writer(buf)
        w.writerow(["grid_angle", "residual"])
        for a, r in zip(rep.grid_angles, rep.identity_residuals):
            w.writerow([repr(float(a)), repr(float(r))])
        assert (tmp_path / "residuals.csv").read_bytes() == buf.getvalue().encode()


def reference_time_domain_mse(ws, fb, sx, n_taps, n_samples):
    """The full-length simulation _time_domain_mse ran before it simulated
    only the scored window: all n_samples, drawn with seed 0, through the
    analysis bank and the synthesis filter, then the last 20% of x_hat scored."""
    x = generate_wss(sx, n_samples, 0)
    v = run_analysis(fb, x)
    taps = ws.impulse_responses(n_taps)
    y = synthesize(taps, v)
    xhat = unblock(y, fb.M, fb.delay)
    n = xhat.size
    ref = np.asarray(x, dtype=np.complex128)[:n]
    tail = slice(int(0.8 * n), n)
    err = np.abs(xhat[tail] - ref[tail]) ** 2
    return float(err.mean() / (np.abs(ref[tail]) ** 2).mean())


def stable_solution(rng, M, d, sx):
    """A stable L = M solution with causal reduced entries, from a random
    bank or from a delay chain with random taps added."""
    for _ in range(200):
        if rng.uniform() < 0.5:
            fb = random_bank(rng, M, M, delay=d)
        else:
            width = M + int(rng.integers(0, 3))
            taps = np.eye(M, width) + rng.uniform(0.05, 0.5) * rng.uniform(-1, 1, (M, width))
            fb = FilterBankSpec(M=M, delay=d, filters=tuple(
                LaurentPoly.from_causal(t) for t in taps))
        try:
            ws = wiener_solve(fb, sx)
            if ws.stable:
                ws.impulse_responses(1)  # raises if a reduced entry is not causal
                return fb, ws
        except (SingularBankError, algebra.NonCausalError):
            pass
    raise AssertionError(f"no stable {M}-band bank with d={d} in 200 draws")


class TestWindowedTimeDomain:
    """The time-domain check simulates only the scored window and the history
    it reads, and gives the full-length simulation's result bit for bit."""

    def test_matches_full_length_simulation(self, monkeypatch):
        lengths = []
        for name in ("run_analysis", "synthesize"):
            def spy(*args, real=getattr(wiener, name)):
                lengths.append(len(args[-1]))  # the signal: x, or the blocks v
                return real(*args)
            monkeypatch.setattr(wiener, name, spy)
        rng = np.random.default_rng(35)
        cases = 0
        for M in range(1, 6):
            for d in range(2 * M):
                sx = WHITE if d % 2 else random_psd(rng)
                fb, ws = stable_solution(rng, M, d, sx)
                K = max(fb.taps(j).size for j in range(M))
                shortest = M * (1 + -(-d // M))
                long_run = int(rng.integers(0, 5))
                # n_taps = 2 and the shortest sizes are where a window that is
                # no longer than its filter would change np.convolve's order
                for k, n_taps in enumerate((1, 2, 7, 60, 200)):
                    sizes = {shortest, shortest + int(rng.integers(1, 6 * M)),
                             int(rng.integers(shortest, 3000))}
                    if k == long_run:
                        sizes.add(20_000)
                    for n_samples in sorted(sizes):
                        lengths.clear()
                        got = wiener._time_domain_mse(ws, fb, ws.sx, n_taps, n_samples)
                        want = reference_time_domain_mse(ws, fb, ws.sx, n_taps, n_samples)
                        assert repr(got) == repr(want), (M, d, n_taps, n_samples)
                        n = M * (n_samples // M - 1) - d + 1
                        scored = n - int(0.8 * n)
                        x_len, v_len = lengths
                        assert x_len <= scored + M * (n_taps + 3) + K
                        assert v_len <= -(-scored // M) + n_taps
                        cases += 1
        assert cases >= 450

    @pytest.mark.parametrize("n_samples", [1, 3])
    def test_nothing_to_score_rejected(self, monkeypatch, n_samples):
        # exp1's bank with d = 1: n_samples=1 gives no block, and 3 one
        # block that writes no sample at or after time 0
        fb = FilterBankSpec(M=2, filters=BANK2.filters, delay=1)
        ws = wiener_solve(fb, WHITE)
        assert reconstruction_check(ws, fb, n_samples=4).time_domain_mse <= 1e-6

        def no_grid_work(*args):
            raise AssertionError("the size check comes before the grid work")

        monkeypatch.setattr(wiener, "desired_psd", no_grid_work)
        with pytest.raises(ValueError, match=re.escape(
                f"n_samples={n_samples} leaves no sample to score; "
                "need n_samples >= 4 for M=2, d=1")):
            reconstruction_check(ws, fb, n_samples=n_samples)

    def test_no_taps_rejected(self, monkeypatch):
        ws = wiener_solve(BANK2, WHITE)
        monkeypatch.setattr(wiener, "desired_psd", None)  # the grid work is not reached
        for n_taps in (0, -1):
            with pytest.raises(ValueError, match=f"n_taps must be >= 1, got {n_taps}"):
                reconstruction_check(ws, BANK2, n_taps=n_taps, n_samples=2000)


class TestInputChecks:
    """Each input check of the solver's oracles and suites refuses its bad input."""

    def test_bruteforce_rows_and_columns_differ_in_length(self):
        with pytest.raises(ValueError, match="row and column index lists must have equal length"):
            submatrix_det_bruteforce(BANK2, WHITE, [0, 1], [0])

    def test_closed_form_modulation_determinant_vanishes(self):
        # two unit filters: the modulation matrix is all ones, det exactly 0
        fb = FilterBankSpec(M=2, filters=(LaurentPoly.one(),) * 2)
        with pytest.raises(ZeroDivisionError, match="modulation determinant vanishes at z="):
            closed_form_eval(fb, 0, 0, np.exp(0.3j))

    def test_reconstruction_check_of_undersampled_bank(self):
        fb = FilterBankSpec(M=2, filters=(LaurentPoly.from_causal([1, 0.3]),))
        ws = wiener_solve(fb, WHITE)
        with pytest.raises(ValueError, match="requires a maximally decimated bank"):
            reconstruction_check(ws, fb)

    @staticmethod
    def draw_dependent_banks(monkeypatch) -> list:
        """Make every properties.random_bank draw a bank of zero filters;
        returns the list each draw appends its (M, L) to."""
        draws = []

        def dependent_bank(rng, M, L, order_max=4, delay=0):
            draws.append((M, L))
            return FilterBankSpec(M=M, filters=(LaurentPoly.zero(),) * L, delay=delay)

        monkeypatch.setattr(properties, "random_bank", dependent_bank)
        return draws

    def test_no_invertible_bank_in_50_draws(self, monkeypatch):
        draws = self.draw_dependent_banks(monkeypatch)
        with pytest.raises(RuntimeError, match="could not draw an invertible bank"):
            properties._random_invertible_bank(np.random.default_rng(0), 2, 2)
        assert draws == [(2, 2)] * 50

    @pytest.mark.parametrize("check,name", [
        pytest.param(check_wiener_identity, "wiener-identity", id="identity"),
        pytest.param(check_psd_invariance, "psd-invariance", id="invariance"),
        pytest.param(check_closed_form_consistency, "closed-form-consistency", id="closed-form"),
    ])
    def test_suite_fails_without_an_invertible_bank(self, monkeypatch, check, name):
        # the suite stops at the case it cannot draw and counts only the
        # cases it solved: none here
        draws = self.draw_dependent_banks(monkeypatch)

        def no_solve(*args):
            raise AssertionError("a case without a bank solves nothing")

        monkeypatch.setattr(properties, "wiener_solve", no_solve)
        result = check(seed=0, cases=3)
        assert not result.passed and result.cases == 0
        M, L = draws[0]
        assert result.line() == (f"[FAIL] {name} (0 cases): could not draw an invertible "
                                 f"bank in 50 draws (M={M}, L={L})")
        assert draws == [(M, L)] * 50

    def test_other_draw_errors_propagate(self, monkeypatch):
        # only the no-invertible-bank error becomes a FAIL line
        def broken_bank(*args, **kwargs):
            raise RuntimeError("broken draw")

        monkeypatch.setattr(properties, "random_bank", broken_bank)
        with pytest.raises(RuntimeError, match="broken draw"):
            check_wiener_identity(seed=0, cases=3)

    def test_branch_spread_fails_with_its_pass_wording(self, monkeypatch):
        real = properties.theorem1_det

        def branch_dependent(*args, branch=0, **kwargs):
            return real(*args, branch=branch, **kwargs) * (1 + 1e-6 * branch)

        monkeypatch.setattr(properties, "theorem1_det", branch_dependent)
        line = check_branch_independence(seed=0, cases=4).line()
        assert re.fullmatch(r"\[FAIL\] branch-independence \(1 cases\): "
                            r"relative spread \d\.\d{3}e-0[67] > 1e-9", line), line


class TestSynthesisPath:
    def test_unblock_inverts_blocking(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal(40)
        for M, d in [(2, 0), (3, 1), (4, 3)]:
            blocks = make_desired(x, M, d)
            xhat = unblock(blocks, M, d)
            assert np.allclose(xhat, x[:len(xhat)], atol=1e-14)

    def test_synthesize_identity_taps(self):
        v = np.arange(12.0).reshape(6, 2)
        taps = np.zeros((2, 2, 3))
        taps[0, 0, 0] = 1.0
        taps[1, 1, 0] = 1.0
        assert np.allclose(synthesize(taps, v), v)

    def test_synthesize_delay_tap(self):
        v = np.arange(5.0).reshape(5, 1)
        taps = np.zeros((1, 1, 3))
        taps[0, 0, 2] = 1.0
        y = synthesize(taps, v)
        assert np.allclose(y[:, 0], [0, 0, 0, 1, 2])
