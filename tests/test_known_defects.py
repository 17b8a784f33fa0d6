"""Known wrong answers, each pinned by the answer it should give.

Every test asserts the correct result and is a strict xfail: it fails
today for the reason its `reason` names, and a fix turns it into an
XPASS, which fails the suite, so the fixing change moves the test into
the regular suite.  The expected poles come from det E, the determinant
of the bank's polyphase matrix, not from the S_vv path under test.
"""

import json
import re

import numpy as np
import pytest

from ufbwiener.algebra import LaurentPoly, PolyMatrix, poly_roots
from ufbwiener.cli import main
from ufbwiener.properties import check_closed_form_consistency, check_psd_invariance
from ufbwiener.spectra import FilterBankSpec, InputPSD
from ufbwiener.wiener import wiener_solve

# An L = M bank whose det E has one zero, at -2.25e-4; delta = det S_vv
# also has its partner 1/r*, near -4444.65, which is reported as a pole.
SIX_BAND = {"M": 6, "d": 1, "filters": [
    [1.3835037304008766, -0.6850064897232391, 0.5708424706161097, -0.8396423629763765,
     0.09198151604099625, 0.0662349127491455, 0.6093788677406196],
    [1.2039018449441814, 0.23403157399746455],
    [-0.8187953899769072, 0.19493670053641265, 0.00044147356868751153],
    [1.3947293293806045, -0.10615946794088349, -0.25344654973726355, 0.9117847307621065,
     0.038138857399989234, 0.8195865939237328, 0.9572879183990779],
    [1.029893955584268, 0.1771027296689116, -0.7117225982276192, -0.4786659732011411,
     -0.33744260780286583],
    [1.4800071539774684, 0.11192515313979023, 0.3908498172828119, 0.9894673421360913,
     -0.7529934765040831, -0.691631505081324, 0.35074588010744345]]}

# A shaped-input 5-band bank whose det E is the constant 1.358e-3: the
# white-input solve has no pole, but delta carries S_xx's zero 0.138 cubed
# and its reciprocal, which are reported as poles.
SHAPED_FIVE_BAND = {"M": 5, "d": 9, "filters": [
    [-1.0336238486070244, -0.944720608492011],
    [-0.8261661751715346, 0.17824049200796677, -0.4209036449089698, 0.171311013092029],
    [-0.9483367672629672, -0.7818535593250442],
    [0.5449230448254334, -0.06489204727570419, 0.6291212324634645],
    [-0.6810364852462689, -0.6468412553920502, 0.5541430010247017, 0.9633860787766699,
     -0.14356522715389652, -0.28225675452888876]],
    "input": {"kind": "shaped", "shaping": [-0.749805423696253, 0.10352925559674397]}}

# Shaped-input 5-band banks k = 315 and 955 of the sweep that draws
# default_rng(70000 + k), random_bank(rng, 5, 5, order_max=6,
# delay=rng.integers(0, 10)), then random_psd(rng): det E has the single
# zero 0.1257, and the zeros 0.0398 and -0.487.
SHAPED_ONE_ZERO = {"M": 5, "d": 7, "filters": [
    [-1.2224684856703738, 0.530892008394171, 0.8685745185560969, -0.12607617850723085,
     -0.7346945324458767, -0.05965830995470256],
    [-1.1278185174936821, 0.4724594496876704, 0.5271181373084068, 0.9859382577564857,
     -0.5978562100088824],
    [1.2100646809281257, -0.5438401894855429, -0.7436307183401276, 0.47891780311010756,
     0.5642019304429573, 0.7403903849427549, 0.040717720837994076],
    [-1.4666567999449442, -0.04516143027958286],
    [1.2421300649736269, 0.30485916015216175, -0.8308821294101514, -0.04598391713533556,
     -0.5428619967322141, 0.3083546987768646]],
    "input": {"kind": "shaped",
              "shaping": [-0.67461523598334, 0.8319481395296855, 0.13569385854420823]}}

SHAPED_TWO_ZERO = {"M": 5, "d": 8, "filters": [
    [-1.4476360549889584, 0.24667875258262173, 0.1578225656462895],
    [0.8647733634346986, -0.6487608621355136, 0.3805786976865737, 0.5379656329841711,
     -0.21315102727347401, 0.77503008313841, 0.9315909411693248],
    [1.0752860722512187, 0.2404706604733724, -0.07315790626288021, 0.5290356047326468],
    [0.6235935370014398, 0.125358319422344, -0.01676687355004658, 0.9776387842853449,
     -0.9621132723821528, -0.31589835220432216, 0.7063874454555084],
    [-0.9938329271610626, -0.4752531314162469, 0.49822892307983624, 0.9490506089466435,
     0.49423309024010353, 0.44359583946758563]],
    "input": {"kind": "shaped", "shaping": [1.1042147117053778, 0.03936261874207969]}}

# det E = 1 - 2.5 z^-1 + z^-2, zeros at 2 and 0.5, closed under r -> 1/r*:
# delta has each twice and the numerators once.
REPEATED_ROOT_BANK = {"M": 2, "filters": [[1], [0, 1, 0, -2.5, 0, 1]]}


def det_e_zeros(cfg: dict) -> np.ndarray:
    """Zeros in z of det E, E[j][k] = sum_m h_j(Mm + k) z^-m."""
    m = cfg["M"]
    grid = [[LaurentPoly.from_causal(np.asarray(h, dtype=complex)[k::m]) for k in range(m)]
            for h in cfg["filters"]]
    return poly_roots(PolyMatrix(grid).det().coeffs)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="delta's partner root near -4444.65 is kept as a second pole")
def test_one_pole_bank_is_stable():
    want = det_e_zeros(SIX_BAND)
    assert want.size == 1 and abs(want[0] + 2.25e-4) < 1e-7
    fb = FilterBankSpec.from_json_dict(SIX_BAND)
    ws = wiener_solve(fb, InputPSD.white())
    assert ws.poles.size == 1, ws.poles
    assert abs(ws.poles[0] - want[0]) <= 1e-9 * abs(want[0])
    assert ws.stable


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="delta's roots near 5.0e-5 and 1.99e4, from S_xx, are kept "
                          "as poles and the bank is called unstable")
def test_shaped_constant_det_e_bank_has_no_pole():
    assert det_e_zeros(SHAPED_FIVE_BAND).size == 0
    fb = FilterBankSpec.from_json_dict(SHAPED_FIVE_BAND)
    assert wiener_solve(fb, InputPSD.white()).poles.size == 0
    ws = wiener_solve(fb, InputPSD.from_json_dict(SHAPED_FIVE_BAND["input"]))
    assert ws.poles.size == 0, ws.poles
    assert ws.stable


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="both copies of delta's repeated roots cancel, and deflation "
                          "exits 4 with a ReductionError")
def test_repeated_root_bank_is_unstable(tmp_path, capsys):
    want = np.sort(np.abs(det_e_zeros(REPEATED_ROOT_BANK)))
    assert np.allclose(want, [0.5, 2], rtol=1e-12, atol=0)
    cfg = tmp_path / "bank.json"
    cfg.write_text(json.dumps(REPEATED_ROOT_BANK))
    assert main(["wiener", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0] == "Wiener synthesis filter: 2x2, UNSTABLE"
    radii = sorted(float(r) for r in re.findall(r"pole at .*\(\|z\| = (\S+)\)", text))
    assert np.allclose(radii, want, rtol=1e-6, atol=0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the S_vv path reads 6.1e-8 on a white-input 3-band case, "
                          "over the suite's 1e-8 bound")
def test_closed_form_consistency_seed_668703349():
    result = check_closed_form_consistency(seed=668703349, cases=5)
    assert result.passed, result.detail


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="in case 2, a 3-band bank, the dense kernel's trim drops "
                          "delta's genuine z^+-1 coefficients from the shaped solve")
def test_psd_invariance_seed_1020143978():
    result = check_psd_invariance(seed=1020143978, cases=10)
    assert result.passed, result.detail


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the S_vv path reads 4.4e-8 on a 3-band case with d = 1 and "
                          "a det E zero on the unit circle, over the suite's 1e-8 bound")
def test_closed_form_consistency_seed_2428314496():
    result = check_closed_form_consistency(seed=2428314496, cases=5)
    assert result.passed, result.detail


def assert_poles_are_det_e_zeros(cfg: dict, n_zeros: int) -> None:
    want = np.sort_complex(det_e_zeros(cfg))
    assert want.size == n_zeros and np.all(np.abs(want) < 1)
    fb = FilterBankSpec.from_json_dict(cfg)
    ws = wiener_solve(fb, InputPSD.from_json_dict(cfg["input"]))
    assert ws.poles.size == n_zeros, ws.poles
    assert np.allclose(np.sort_complex(ws.poles), want, rtol=1e-9, atol=0)
    assert ws.stable


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="next to det E's zero 0.1257, delta's root near -1.515e4 is "
                          "kept as a pole and the bank is called unstable")
def test_shaped_one_zero_bank_is_stable():
    assert_poles_are_det_e_zeros(SHAPED_ONE_ZERO, 1)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="next to det E's zeros 0.0398 and -0.487, delta's roots near 0 "
                          "and -1.737e7 are kept as poles and the bank is called unstable")
def test_shaped_two_zero_bank_is_stable():
    assert_poles_are_det_e_zeros(SHAPED_TWO_ZERO, 2)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the S_vv path reads 1.336e-8 on a white-input 3-band case with "
                          "d = 0, over the suite's 1e-8 bound")
def test_closed_form_consistency_seed_1354702343():
    result = check_closed_form_consistency(seed=1354702343, cases=5)
    assert result.passed, result.detail


def kaiser_sinc(N: int, width: float) -> tuple[np.ndarray, np.ndarray]:
    """Sample times n - c and the prototype sinc((n - c)/width) kaiser(N, 5)/width,
    c = (N - 1)/2: a linear-phase lowpass of cutoff pi/width."""
    t = np.arange(N) - (N - 1) / 2
    return t, np.sinc(t / width) * np.kaiser(N, 5) / width


def cosine_modulated_bank(M: int, N: int) -> dict:
    """h_k(n) = 2 p(n) cos((2k+1) pi/(2M) (n - c) + (-1)^k pi/4), d = N - 1."""
    t, p = kaiser_sinc(N, 2 * M)
    return {"M": M, "d": N - 1, "filters": [
        (2 * p * np.cos((2 * k + 1) * np.pi / (2 * M) * t + (-1) ** k * np.pi / 4)).tolist()
        for k in range(M)]}


def dft_bank(M: int, N: int) -> dict:
    """h_k(n) = p(n) e^{j 2 pi k n / M}, d = N - 1."""
    _, p = kaiser_sinc(N, M)
    n = np.arange(N)
    return {"M": M, "d": N - 1,
            "filters": [(p * np.exp(2j * np.pi * k * n / M)).tolist() for k in range(M)]}


def assert_each_pole_near_a_det_e_zero(cfg: dict, n_zeros: int) -> None:
    want = det_e_zeros(cfg)
    assert want.size == n_zeros and np.all(want != 0)
    ws = wiener_solve(FilterBankSpec.from_json_dict(cfg), InputPSD.white())
    assert ws.poles.size == n_zeros, ws.poles
    off = np.abs(ws.poles[:, None] - want[None, :]) / np.abs(want[None, :])
    assert off.min(axis=1).max() <= 1e-8


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="36 poles are reported where det E has 20 finite nonzero zeros, "
                          "10 of them outside the unit circle")
def test_cosine_modulated_bank_poles_are_det_e_zeros():
    assert_each_pole_near_a_det_e_zero(cosine_modulated_bank(5, 30), 20)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="22 poles are reported where det E has 12 finite nonzero zeros, "
                          "6 of them outside the unit circle")
def test_linear_phase_dft_bank_poles_are_det_e_zeros():
    assert_each_pole_near_a_det_e_zero(dft_bank(4, 16), 12)
