import json

import numpy as np
import pytest

from ufbwiener.algebra import LaurentPoly
from ufbwiener.spectra import (
    FilterBankSpec,
    InputPSD,
    analysis_psd,
    cross_psd,
    make_desired,
    run_analysis,
)

H0 = LaurentPoly.from_causal([4, 7, 2])
H1 = LaurentPoly.from_causal([3, -1, -1.5])
BANK2 = FilterBankSpec(M=2, filters=(H0, H1))


def cross_correlation_dv(fb, rxx, i, j, k):
    """E[d_i(n) v_j*(n-k)] = sum_l h_j*(l) R_xx(Mk + l - i - d).

    The time-domain oracle for cross_psd.  `rxx` maps lag m to R_xx(m);
    missing lags read as 0 and the sequence must be conjugate-symmetric.
    """
    if not (0 <= i < fb.M and 0 <= j < fb.L):
        raise IndexError(f"index pair ({i},{j}) outside ({fb.M},{fb.L}) bounds")
    for m, v in rxx.items():
        if m >= 0 and not np.isclose(rxx.get(-m, 0.0), np.conj(v), atol=1e-12):
            raise ValueError("autocorrelation sequence is not conjugate-symmetric")
    h = fb.taps(j)
    acc = 0j
    for l, hv in enumerate(h):
        acc += np.conj(hv) * rxx.get(fb.M * k + l - i - fb.delay, 0.0)
    return complex(acc)


def random_bank(rng, M=None, L=None, order_max=4):
    M = M or int(rng.integers(2, 4))
    L = L or M
    filters = tuple(
        LaurentPoly.from_causal(rng.uniform(-1, 1, int(rng.integers(1, order_max + 1))))
        for _ in range(L))
    return FilterBankSpec(M=M, filters=filters, delay=int(rng.integers(0, 3)))


class TestFilterBankSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FilterBankSpec(M=0, filters=(H0,))
        with pytest.raises(ValueError):
            FilterBankSpec(M=2, filters=())
        with pytest.raises(ValueError):
            FilterBankSpec(M=2, filters=(LaurentPoly([1], 1),))
        with pytest.raises(ValueError):
            FilterBankSpec(M=2, filters=(H0,), delay=-1)

    def test_json_round_trip(self):
        fb = FilterBankSpec(M=3, filters=(H0, H1), delay=2)
        fb2 = FilterBankSpec.from_json_dict(fb.to_json_dict())
        assert fb2.M == 3 and fb2.delay == 2
        assert all(a == b for a, b in zip(fb2.filters, fb.filters))
        # a delay drawn with numpy, as by rng.integers, is written as a JSON integer
        fb3 = FilterBankSpec(M=3, filters=(H0, H1), delay=np.int64(2))
        assert json.loads(json.dumps(fb3.to_json_dict())) == fb.to_json_dict()

    def test_complex_taps_round_trip(self):
        fb = FilterBankSpec.from_json_dict({"M": 2, "filters": [[1, 1j], [1, -1j]]})
        back = FilterBankSpec.from_json_dict(json.loads(json.dumps(fb.to_json_dict())))
        assert [back.taps(j).tolist() for j in range(2)] == [[1, 1j], [1, -1j]]

    def test_complex_tap_written_as_pair(self):
        # the [re, im] form of wiener.json's poles; a real tap stays a number
        cfg = {"M": 2, "d": 1, "filters": [[1, [0, 0.5]], [1, -0.5, [0, 0.25]]]}
        fb = FilterBankSpec.from_json_dict(cfg)
        assert fb.taps(1).tolist() == [1, -0.5, 0.25j]
        assert fb.to_json_dict() == {"M": 2, "d": 1, "filters": [
            [1.0, [0.0, 0.5]], [1.0, -0.5, [0.0, 0.25]]]}
        assert BANK2.to_json_dict()["filters"] == [[4.0, 7.0, 2.0], [3.0, -1.0, -1.5]]

    @pytest.mark.parametrize("bad", [[0], [0, 1, 2], [0, "a"], [0, [1]]])
    def test_json_malformed_complex_tap_named(self, bad):
        with pytest.raises(ValueError, match=r"^analysis filter 1 has a malformed tap .*; "
                                             r"a complex tap is \[re, im\]$"):
            FilterBankSpec.from_json_dict({"M": 2, "filters": [[1.0], [0.5, bad]]})

    @pytest.mark.parametrize("field, bad", [("M", 2.9), ("M", "2"), ("M", True), ("d", 0.7)])
    def test_json_integer_field_named(self, field, bad):
        cfg = {"M": 2, "d": 1, "filters": [[1.0], [0.5]], field: bad}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, not {bad!r}$"):
            FilterBankSpec.from_json_dict(cfg)

    def test_taps(self):
        assert np.allclose(BANK2.taps(0), [4, 7, 2])
        assert np.allclose(BANK2.taps(1), [3, -1, -1.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_json_non_finite_tap_named(self, bad):
        with pytest.raises(ValueError, match="^analysis filter 1 has a non-finite tap$"):
            FilterBankSpec.from_json_dict({"M": 2, "filters": [[1.0], [0.5, bad]]})


class TestInputPSD:
    def test_white(self):
        assert InputPSD.white().psd == LaurentPoly.one()
        assert InputPSD(variance=2.0).psd == LaurentPoly([2.0])

    def test_white_default(self):
        assert InputPSD().psd == LaurentPoly.one()
        assert InputPSD().psd == InputPSD.white().psd

    def test_shaping_filter(self):
        g = LaurentPoly.from_causal([1, 0.5])
        sx = InputPSD(g)
        assert sx.psd == LaurentPoly([0.5, 1.25, 0.5], -1)

    def test_psd_is_variance_times_g_g_tilde(self):
        # same operation order as the solver has always used, so S_xx is bit-identical
        g = LaurentPoly.from_causal([0.7, -0.3, 0.11])
        assert InputPSD(g, variance=2.5).psd == g * g.paraconjugate() * 2.5

    def test_rejects_noncausal_shaping(self):
        with pytest.raises(ValueError):
            InputPSD(LaurentPoly([1, 0.5], 0))

    def test_variance_positive(self):
        for variance in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="variance"):
                InputPSD(variance=variance)

    def test_zero_allowed(self):
        assert InputPSD(LaurentPoly.zero()).psd.is_zero

    def test_json_round_trip(self):
        # the config's `input` block carries the shaping taps and the variance
        sx = InputPSD(LaurentPoly.from_causal([1, 0.5]), variance=2.0)
        sx2 = InputPSD.from_json_dict({"kind": "shaped", "shaping": [1, 0.5], "variance": 2.0})
        assert sx2 == sx
        assert sx2.shaping == sx.shaping and sx2.psd == sx.psd
        assert InputPSD.from_json_dict({"kind": "white", "variance": 3.0}) == InputPSD(variance=3.0)

    def test_json_kind_optional(self):
        assert InputPSD.from_json_dict({}) == InputPSD()
        assert InputPSD.from_json_dict({"kind": "white", "variance": 2.0}) == InputPSD(variance=2.0)
        shaped = InputPSD(LaurentPoly.from_causal([1, 0.5]))
        assert InputPSD.from_json_dict({"shaping": [1, 0.5]}) == shaped
        assert InputPSD.from_json_dict({"kind": "shaped", "shaping": [1, 0.5]}) == shaped

    def test_shaped_requires_filter(self):
        with pytest.raises(ValueError, match="requires a shaping filter"):
            InputPSD.from_json_dict({"kind": "shaped"})

    def test_json_complex_shaping_rejected(self):
        # generate_wss filters real noise by the shaping taps' real parts
        with pytest.raises(ValueError, match="^shaping filter has a complex tap"):
            InputPSD.from_json_dict({"shaping": [1, [0, 0.5]]})
        assert InputPSD.from_json_dict({"shaping": [1, [0.5, 0]]}) == InputPSD(
            LaurentPoly.from_causal([1, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_json_non_finite_shaping_named(self, bad):
        with pytest.raises(ValueError, match="^shaping filter has a non-finite tap$"):
            InputPSD.from_json_dict({"shaping": [bad, 0.5]})


def test_psd_rows_match_entrywise_products():
    # each row's H_i S_xx, or z^-(d+i) S_xx, is built once and reused: the
    # entries equal the left-to-right triple products, coefficient for coefficient
    rng = np.random.default_rng(12)
    for _ in range(40):
        fb = random_bank(rng, M=int(rng.integers(1, 6)), L=int(rng.integers(1, 5)))
        sx = InputPSD(LaurentPoly.from_causal(rng.uniform(-1, 1, int(rng.integers(1, 4)))))
        tildes = [h.paraconjugate() for h in fb.filters]
        svv, sdv = analysis_psd(fb, sx), cross_psd(fb, sx)
        for j, t in enumerate(tildes):
            for i, h in enumerate(fb.filters):
                want = (h * sx.psd * t).downsample(fb.M)
                assert svv[i, j] == want and svv[i, j].coeffs.tobytes() == want.coeffs.tobytes()
            for i in range(fb.M):
                want = (LaurentPoly.delay(fb.delay + i) * sx.psd * t).downsample(fb.M)
                assert sdv[i, j] == want and sdv[i, j].coeffs.tobytes() == want.coeffs.tobytes()


class TestAnalysisPSD:
    def test_exp1_entry(self):
        svv = analysis_psd(BANK2, InputPSD.white())
        assert svv[0, 0] == LaurentPoly([8, 69, 8], -1)

    def test_single_channel(self):
        fb = FilterBankSpec(M=1, filters=(LaurentPoly.from_causal([2]),))
        svv = analysis_psd(fb, InputPSD.white())
        assert svv[0, 0] == LaurentPoly([4.0])

    def test_zero_psd(self):
        svv = analysis_psd(BANK2, InputPSD(LaurentPoly.zero()))
        assert all(svv[i, j].is_zero for i in range(2) for j in range(2))

    def test_paraconjugate_symmetry(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            fb = random_bank(rng)
            g = LaurentPoly.from_causal(rng.uniform(-1, 1, 3))
            svv = analysis_psd(fb, InputPSD(g))
            assert svv.paraconjugate().almost_equal(svv, 1e-12)


class TestCrossPSD:
    def test_exp1_entry(self):
        sdv = cross_psd(BANK2, InputPSD.white())
        # (S_xx H~_0) down 2 with S_xx = 1: (4 + 7z + 2z^2) down 2 = 4 + 2z
        assert sdv[0, 0] == LaurentPoly([4, 2], 0)

    def test_trivial_m1(self):
        fb = FilterBankSpec(M=1, filters=(LaurentPoly.one(),))
        sdv = cross_psd(fb, InputPSD.white())
        assert sdv[0, 0] == LaurentPoly.one()

    def test_shape(self):
        fb = FilterBankSpec(M=3, filters=(H0, H1))
        sdv = cross_psd(fb, InputPSD.white())
        assert (sdv.rows, sdv.cols) == (3, 2)

    def test_matches_cross_correlation_z_transform(self):
        # entry (i,j) of S_dv must equal sum_k R_dv(k) z^-k
        rng = np.random.default_rng(11)
        for _ in range(10):
            fb = random_bank(rng)
            g = LaurentPoly.from_causal(rng.uniform(-1, 1, 3))
            sx = InputPSD(g)
            rxx = {m: complex(sx.psd(0)) * 0 for m in ()}
            rxx = {p + sx.psd.lowest_power: complex(c)
                   for p, c in enumerate(sx.psd.coeffs)}
            rxx = {-m: v for m, v in rxx.items()}  # R_xx(m) is coeff of z^-m
            sdv = cross_psd(fb, sx)
            for i in range(fb.M):
                for j in range(fb.L):
                    entry = sdv[i, j]
                    for k in range(-6, 7):
                        want = cross_correlation_dv(fb, rxx, i, j, k)
                        coeff = 0j
                        if not entry.is_zero and entry.lowest_power <= -k <= entry.highest_power:
                            coeff = entry.coeffs[-k - entry.lowest_power]
                        assert abs(coeff - want) <= 1e-10 * (1 + abs(want))


class TestCrossCorrelation:
    def test_white_delta(self):
        # white input, i=j=k=0, d=0: sum_l h_0*(l) delta(l) = h_0(0) = 4
        assert cross_correlation_dv(BANK2, {0: 1.0}, 0, 0, 0) == 4.0

    def test_zero_rxx(self):
        assert cross_correlation_dv(BANK2, {}, 0, 0, 0) == 0.0

    def test_offset_tap(self):
        # i=1, k=0: picks R(l - 1) so tap l=1 of h_1, conj(-1) = -1
        assert cross_correlation_dv(BANK2, {0: 1.0}, 1, 1, 0) == -1.0

    def test_index_error(self):
        with pytest.raises(IndexError):
            cross_correlation_dv(BANK2, {0: 1.0}, 2, 0, 0)
        with pytest.raises(IndexError):
            cross_correlation_dv(BANK2, {0: 1.0}, 0, 5, 0)

    def test_asymmetric_rxx_rejected(self):
        with pytest.raises(ValueError):
            cross_correlation_dv(BANK2, {1: 1.0, -1: 2.0}, 0, 0, 0)

    def test_monte_carlo_blocked_statistics(self):
        # sample estimates of E[d_i(n) v_j(n-k)] must agree with the
        # closed form within 3 standard errors
        rng = np.random.default_rng(12)
        n_blocks = 120_000
        fb = FilterBankSpec(M=2, filters=(H0, H1), delay=1)
        x = rng.standard_normal(n_blocks * fb.M)
        v = run_analysis(fb, x)
        dsig = make_desired(x, fb.M, fb.delay)
        skip = 4
        for (i, j, k) in [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, -1)]:
            want = cross_correlation_dv(fb, {0: 1.0}, i, j, k)
            idx = np.arange(skip + max(k, 0), len(v) + min(k, 0))
            prods = dsig[idx, i] * np.conj(v[idx - k, j])
            est = prods.mean().real
            se = prods.real.std(ddof=1) / np.sqrt(len(prods))
            assert abs(est - want.real) <= 3 * se + 1e-12


class TestRunAnalysis:
    def test_impulse(self):
        v = run_analysis(BANK2, [1, 0, 0, 0, 0, 0])
        # y_0 = conv([4,7,2], delta) sampled at even times: [4, 2, 0]
        assert np.allclose(v[:, 0], [4, 2, 0])
        assert np.allclose(v[:, 1], [3, -1.5, 0])

    def test_zero_input(self):
        v = run_analysis(BANK2, np.zeros(10))
        assert np.allclose(v, 0)

    def test_pass_through(self):
        fb = FilterBankSpec(M=1, filters=(LaurentPoly.one(),))
        x = np.arange(5.0)
        assert np.allclose(run_analysis(fb, x)[:, 0], x)

    def test_empty(self):
        assert run_analysis(BANK2, [1.0]).shape == (0, 2)

    def test_block_shift_lti(self):
        # shifting the input by M samples shifts the blocked output by one block
        rng = np.random.default_rng(13)
        fb = random_bank(rng, M=3, L=2)
        x = rng.standard_normal(60)
        v = run_analysis(fb, x)
        xs = np.concatenate([np.zeros(fb.M), x])
        vs = run_analysis(fb, xs)
        assert np.allclose(vs[1:], v[:len(vs) - 1], atol=1e-12)


class TestMakeDesired:
    def test_impulse_no_delay(self):
        d = make_desired([1, 0, 0, 0], M=2, d=0)
        assert np.allclose(d, [[1, 0], [0, 0]])

    def test_impulse_delay_shifts_component(self):
        # d = 1 moves the unit sample to component i = M-1 of block 1
        d = make_desired([1, 0, 0, 0], M=2, d=1)
        assert np.allclose(d, [[0, 0], [0, 1]])

    def test_ramp(self):
        d = make_desired([0, 1, 2, 3, 4, 5], M=3, d=0)
        assert np.allclose(d, [[0, 0, 0], [3, 2, 1]])
