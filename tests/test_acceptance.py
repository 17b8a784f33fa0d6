"""End-to-end acceptance checks.

Each test prints a single CRITERION n: PASS/FAIL line so the suite
doubles as a checklist when run with `pytest -v -s`.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from ufbwiener.algebra import LaurentPoly, RationalMatrix, RationalTF
from ufbwiener.harness import experiment_1, experiment_2, run_experiment
from ufbwiener.properties import (
    check_psd_dependence,
    check_psd_invariance,
    check_theorem1_agreement,
)
from ufbwiener.spectra import FilterBankSpec, InputPSD
from ufbwiener.wiener import SingularBankError, reconstruction_check, wiener_solve


@contextmanager
def criterion(n, description):
    try:
        yield
    except BaseException:
        print(f"CRITERION {n}: FAIL - {description}")
        raise
    print(f"CRITERION {n}: PASS - {description}")


def binned_mse(squared_error: np.ndarray, start: int = 50,
               factor: float = 2.0) -> np.ndarray:
    """Mean squared error over exponentially growing iteration bins."""
    means = []
    lo = start
    n = squared_error.size
    while lo < n:
        hi = min(int(np.ceil(lo * factor)), n)
        means.append(float(squared_error[lo:hi].mean()))
        lo = hi
    return np.array(means)


def test_binned_mse():
    err = np.arange(1000.0)
    bins = binned_mse(err, start=50, factor=2.0)
    assert bins[0] == np.mean(np.arange(50, 100))
    assert bins[-1] == np.mean(np.arange(800, 1000))


def reference_two_band() -> RationalMatrix:
    den = LaurentPoly.from_causal([50, -17])
    nums = [[[2], [14]], [[6, -3], [-8, -4]]]
    return RationalMatrix([
        [RationalTF(LaurentPoly.from_causal(n), den) for n in row] for row in nums
    ])


def reference_three_band() -> RationalMatrix:
    den = LaurentPoly.from_causal([2594, -642, -147])
    nums = [
        [[155.5, 20], [-26, -6], [-31.5, -5]],
        [[-40.5, 51.5], [-110, 36], [-33.5, 5.5]],
        [[225.5, -25.5, 28], [4, -82, 21], [154.5, -71.5, -7]],
    ]
    return RationalMatrix([
        [RationalTF(LaurentPoly.from_causal(n), den) for n in row] for row in nums
    ])


@pytest.fixture(scope="module")
def exp1_result():
    return run_experiment(experiment_1())


@pytest.fixture(scope="module")
def exp2_result():
    return run_experiment(experiment_2())


# Converged two-band tap table, first five taps of each column
TWO_BAND_CONVERGED_TAPS = {
    (0, 0): [4.000e-2, 1.360e-2, 4.624e-3, 1.572e-3, 5.350e-4],
    (0, 1): [2.800e-1, 9.520e-2, 3.237e-2, 1.101e-2, 3.741e-3],
    (1, 0): [1.200e-1, -1.920e-2, -6.528e-3, -2.220e-3, -7.553e-4],
    (1, 1): [-1.600e-1, -1.344e-1, -4.570e-2, -1.554e-2, -5.282e-3],
}


def test_criterion_1_two_band_wiener():
    with criterion(1, "two-band exact Wiener filter matches the reference matrix"):
        t0 = time.perf_counter()
        ws = wiener_solve(experiment_1().fb, InputPSD.white())
        assert ws.reduced().equals(reference_two_band(), 1e-9)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_three_band_wiener():
    with criterion(2, "three-band exact Wiener filter matches the reference and is stable"):
        t0 = time.perf_counter()
        ws = wiener_solve(experiment_2().fb, InputPSD.white())
        assert ws.reduced().equals(reference_three_band(), 1e-9)
        assert ws.stable
        assert np.all(np.abs(ws.poles) < 1)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_3_two_band_tap_table(exp1_result):
    with criterion(3, "NLMS taps at iteration 2000 match the converged two-band table"):
        t0 = time.perf_counter()
        taps = exp1_result.trace.snapshots[2000].real
        for (p, q), want in TWO_BAND_CONVERGED_TAPS.items():
            assert np.allclose(taps[p, q, :5], want, rtol=0, atol=5e-3)
        # taps of each column decay by the pole ratio 17/50 = 0.34
        for col in ((0, 0), (0, 1)):
            c = taps[col]
            ratios = c[1:6] / c[:5]
            assert np.all(np.abs(ratios - 0.34) <= 0.01)
        # fixture already ran the 2000-iteration experiment; rerun to time it
        run_experiment(experiment_1())
        assert time.perf_counter() - t0 < 5.0


def test_criterion_4_three_band_tap_table(exp2_result):
    with criterion(4, "NLMS taps at iteration 12000 match the three-band impulse response"):
        t0 = time.perf_counter()
        taps = exp2_result.trace.snapshots[12000].real
        ref = exp2_result.wiener.impulse_responses(15).real
        assert abs(ref[0, 0, 0] - 155.5 / 2594) <= 1e-12
        lead = taps[:, :, 0]
        assert np.allclose(lead, ref[:, :, 0], rtol=0, atol=5e-3)
        deep = taps[:, :, 1:]
        deep_ref = ref[:, :, 1:]
        ok = (np.abs(deep - deep_ref) <= 1e-4) | (
            np.abs(deep - deep_ref) <= 0.10 * np.abs(deep_ref))
        assert np.all(ok)
        run_experiment(experiment_2())
        assert time.perf_counter() - t0 < 30.0


def test_criterion_5_theorem_oracle_suite():
    with criterion(5, "500 randomized subdeterminant expansions match the brute force"):
        t0 = time.perf_counter()
        result = check_theorem1_agreement(seed=0, cases=500, points=32)
        assert result.passed, result.detail
        assert result.cases >= 500
        assert time.perf_counter() - t0 < 60.0


def test_criterion_6_psd_dependence():
    with criterion(6, "maximally decimated solution is PSD-invariant; "
                      "non-square banks are not"):
        inv = check_psd_invariance(seed=0, cases=50)
        assert inv.passed, inv.detail
        assert inv.cases >= 50
        dep = check_psd_dependence(seed=0)
        assert dep.passed, dep.detail
        # an undersampled bank (fewer channels than the decimation factor)
        # demonstrates genuine PSD dependence
        fb = FilterBankSpec(M=2, filters=(LaurentPoly.from_causal([1, 0.3]),))
        a = wiener_solve(fb, InputPSD.white())
        b = wiener_solve(fb, InputPSD(
            LaurentPoly.from_causal([1, 0.5])))
        assert not a.reduced().equals(b.reduced(), 1e-8)
        # an oversampled bank has a rank-deficient subband PSD matrix (it
        # is a sum of M rank-one terms), so its determinant is identically
        # zero and no solution exists to compare
        fb_over = FilterBankSpec(M=2, filters=experiment_2().fb.filters)
        with pytest.raises(SingularBankError):
            wiener_solve(fb_over, InputPSD.white())


def test_criterion_7_perfect_reconstruction():
    with criterion(7, "truncated Wiener synthesis reconstructs white noise to < 1e-6"):
        for preset, n_taps in ((experiment_1, 60), (experiment_2, 100)):
            cfg = preset(n_iters=0)
            ws = wiener_solve(cfg.fb, InputPSD.white())
            rep = reconstruction_check(ws, cfg.fb, n_taps=n_taps, n_samples=100_000)
            assert rep.time_domain_mse < 1e-6


def test_criterion_8_error_curve(exp1_result, exp2_result):
    with criterion(8, "binned MSE is non-increasing and ends below -40 dB"):
        for res in (exp1_result, exp2_result):
            bins = binned_mse(res.trace.squared_error, start=50)
            assert np.all(np.diff(bins) <= 1e-12)
            assert res.metrics["final_mse_db_rel_initial"] < -40.0
