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


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="to_json_dict writes only the real part of each tap")
def test_complex_taps_round_trip():
    fb = FilterBankSpec.from_json_dict({"M": 2, "filters": [[1, 1j], [1, -1j]]})
    back = FilterBankSpec.from_json_dict(json.loads(json.dumps(fb.to_json_dict())))
    assert [back.taps(j).tolist() for j in range(2)] == [[1, 1j], [1, -1j]]
