import numpy as np
import pytest

from ufbwiener.adaptive import (
    AdaptationTrace,
    MatrixAdaptiveFilter,
    run_adaptation,
    write_tap_table,
)
from ufbwiener.algebra import LaurentPoly
from ufbwiener.spectra import FilterBankSpec, make_desired, run_analysis
from ufbwiener.wiener import wiener_solve
from ufbwiener.spectra import InputPSD


class TestFilterBlock:
    def test_zero_taps(self):
        f = MatrixAdaptiveFilter(M=2, L=2, tap_len=3)
        assert np.allclose(f.filter_block([1.0, 2.0]), 0)

    def test_identity_pattern(self):
        f = MatrixAdaptiveFilter(M=2, L=2, tap_len=2)
        taps = np.zeros((2, 2, 2))
        taps[0, 0, 0] = 1.0
        taps[1, 1, 0] = 1.0
        f.set_taps(taps)
        assert np.allclose(f.filter_block([3.0, -4.0]), [3.0, -4.0])

    def test_delayed_cross_tap(self):
        # single tap a_{0,1} at delay index 2: output is the input to
        # channel 1 from two blocks back, scaled by 3
        f = MatrixAdaptiveFilter(M=1, L=2, tap_len=3)
        taps = np.zeros((1, 2, 3))
        taps[0, 1, 2] = 3.0
        f.set_taps(taps)
        f.filter_block([0.0, 5.0])
        f.filter_block([0.0, 0.0])
        assert np.allclose(f.filter_block([0.0, 0.0]), [15.0])

    def test_input_length_checked(self):
        f = MatrixAdaptiveFilter(M=1, L=2, tap_len=1)
        with pytest.raises(ValueError):
            f.filter_block([1.0])

    def test_set_taps_shape_checked(self):
        f = MatrixAdaptiveFilter(M=2, L=2, tap_len=3)
        with pytest.raises(ValueError):
            f.set_taps(np.zeros((2, 2, 4)))


class TestLMSUpdate:
    def test_hand_computed_step(self):
        # tap_len 1, mu = 0.5, v = [2], d = [4]: y = 0, e = 4,
        # new tap = 0 + 0.5 * 4 * 2 = 4
        f = MatrixAdaptiveFilter(M=1, L=1, tap_len=1, step=0.5)
        e = f.update([2.0], [4.0])
        assert np.allclose(e, [4.0])
        assert np.allclose(f.taps[0, 0], [4.0])

    def test_zero_error_no_change(self):
        f = MatrixAdaptiveFilter(M=1, L=1, tap_len=1, step=0.5)
        f.set_taps(np.full((1, 1, 1), 2.0))
        e = f.update([3.0], [6.0])
        assert np.allclose(e, [0.0])
        assert np.allclose(f.taps[0, 0], [2.0])

    def test_zero_step_freezes_taps(self):
        f = MatrixAdaptiveFilter(M=1, L=1, tap_len=1, step=0.0)
        f.update([2.0], [4.0])
        assert np.allclose(f.taps, 0.0)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            MatrixAdaptiveFilter(M=1, L=1, tap_len=1, step=-0.1)

    def test_matches_straight_loop(self):
        # the vectorized update must agree with an index-by-index
        # transcription of the update rule to near machine precision
        rng = np.random.default_rng(30)
        M, L, tap_len = 2, 3, 4
        steps = rng.uniform(0.05, 0.3, (M, L))
        f = MatrixAdaptiveFilter(M=M, L=L, tap_len=tap_len, step=steps)
        ref_taps = np.zeros((M, L, tap_len), dtype=np.complex128)
        ref_hist = np.zeros((L, tap_len), dtype=np.complex128)
        for _ in range(25):
            v = rng.standard_normal(L) + 1j * rng.standard_normal(L)
            d = rng.standard_normal(M) + 1j * rng.standard_normal(M)
            e = f.update(v, d)
            ref_hist[:, 1:] = ref_hist[:, :-1]
            ref_hist[:, 0] = v
            y_ref = np.zeros(M, dtype=np.complex128)
            for p in range(M):
                for q in range(L):
                    for m in range(tap_len):
                        y_ref[p] += ref_taps[p, q, m] * ref_hist[q, m]
            e_ref = d - y_ref
            for p in range(M):
                for q in range(L):
                    for m in range(tap_len):
                        ref_taps[p, q, m] += steps[p, q] * e_ref[p] * np.conj(ref_hist[q, m])
            assert np.max(np.abs(e - e_ref)) <= 1e-12 * (1 + np.abs(e_ref).max())
            assert np.max(np.abs(f.taps - ref_taps)) <= 1e-12 * (1 + np.abs(ref_taps).max())


class TestNLMSUpdate:
    def test_hand_computed_step(self):
        # v = [2]: energy 4, e = 4, tap <- 0.6 * 4 * 2 / (4 + eps) = 1.2
        f = MatrixAdaptiveFilter(M=1, L=1, tap_len=1, step=0.6, nlms=True, eps=1e-12)
        e = f.update([2.0], [4.0])
        assert np.allclose(e, [4.0])
        assert np.allclose(f.taps[0, 0], [1.2], atol=1e-10)

    def test_zero_history_is_safe(self):
        f = MatrixAdaptiveFilter(M=1, L=1, tap_len=2, step=0.6, nlms=True)
        f.update([0.0], [1.0])
        assert np.isfinite(f.taps).all()
        assert np.allclose(f.taps, 0.0)

    def test_scale_invariance(self):
        # scaling the signals by alpha leaves the normalized tap
        # trajectory proportional to alpha... the error trajectory
        # relative to the desired signal is unchanged
        rng = np.random.default_rng(31)
        v = rng.standard_normal((200, 2))
        d = rng.standard_normal((200, 2))
        alpha = 100.0
        f1 = MatrixAdaptiveFilter(M=2, L=2, tap_len=3, step=0.4, nlms=True, eps=1e-12)
        f2 = MatrixAdaptiveFilter(M=2, L=2, tap_len=3, step=0.4, nlms=True, eps=1e-12)
        e1 = np.array([f1.update(v[n], d[n]) for n in range(200)])
        e2 = np.array([f2.update(alpha * v[n], alpha * d[n]) for n in range(200)])
        assert np.max(np.abs(e2 / alpha - e1)) <= 1e-7 * (1 + np.abs(e1).max())


class TestRunAdaptation:
    def _delay_chain(self, M=2):
        return FilterBankSpec(M=M, filters=tuple(LaurentPoly.delay(i) for i in range(M)))

    def test_identity_bank_convergence(self):
        # delay-chain analysis makes v equal to the desired blocks, so the
        # optimum is a single unit tap per diagonal entry
        rng = np.random.default_rng(32)
        fb = self._delay_chain()
        x = rng.standard_normal(4000)
        v = run_analysis(fb, x).samples
        d = make_desired(x, fb.M).samples
        f = MatrixAdaptiveFilter(M=2, L=2, tap_len=3, step=0.5, nlms=True)
        trace = run_adaptation(f, v, d, 1500)
        assert trace.squared_error[-100:].mean() <= 1e-20
        want = np.zeros((2, 2, 3))
        want[0, 0, 0] = want[1, 1, 0] = 1.0
        assert np.max(np.abs(trace.final_taps - want)) <= 1e-9

    def test_snapshots_one_based(self):
        rng = np.random.default_rng(33)
        fb = self._delay_chain()
        x = rng.standard_normal(200)
        v = run_analysis(fb, x).samples
        d = make_desired(x, fb.M).samples
        f = MatrixAdaptiveFilter(M=2, L=2, tap_len=2, step=0.3)
        trace = run_adaptation(f, v, d, 50, snapshot_iters=(1, 50))
        assert set(trace.snapshots) == {1, 50}
        # snapshot 50 is the state after the last update
        assert np.allclose(trace.snapshots[50], trace.final_taps)
        # snapshot 1 reflects exactly one update from zero taps
        f2 = MatrixAdaptiveFilter(M=2, L=2, tap_len=2, step=0.3)
        f2.update(v[0], d[0])
        assert np.allclose(trace.snapshots[1], f2.taps)

    def test_insufficient_blocks(self):
        f = MatrixAdaptiveFilter(M=2, L=2, tap_len=2)
        with pytest.raises(ValueError):
            run_adaptation(f, np.zeros((5, 2)), np.zeros((5, 2)), 10)

    def test_nlms_iterations_scale_robust(self):
        # iteration count to reach -40 dB must be insensitive to a 100x
        # input rescaling (within 10%)
        def iters_to_threshold(alpha):
            rng = np.random.default_rng(34)
            fb = self._delay_chain()
            x = alpha * rng.standard_normal(30000)
            v = run_analysis(fb, x).samples
            d = make_desired(x, fb.M).samples
            f = MatrixAdaptiveFilter(M=2, L=2, tap_len=3, step=0.5, nlms=True)
            trace = run_adaptation(f, v, d, 5000)
            ref = trace.squared_error[:10].mean()
            norm = trace.squared_error / ref
            below = np.nonzero(norm < 1e-4)[0]
            return below[0] if below.size else len(norm)

        n1 = iters_to_threshold(1.0)
        n2 = iters_to_threshold(100.0)
        assert abs(n1 - n2) <= 0.1 * max(n1, n2)

    def test_wiener_fixed_point(self):
        # starting at the truncated Wiener taps, the time-averaged taps
        # stay there: mean drift under 1e-3 of the tap norm per 1000 steps
        rng = np.random.default_rng(35)
        fb = FilterBankSpec(M=2, filters=(
            LaurentPoly.from_causal([4, 7, 2]),
            LaurentPoly.from_causal([3, -1, -1.5])))
        ws = wiener_solve(fb, InputPSD.white())
        w_taps = ws.impulse_responses(11)
        x = rng.standard_normal(4000)
        v = run_analysis(fb, x).samples
        d = make_desired(x, fb.M).samples
        f = MatrixAdaptiveFilter(M=2, L=2, tap_len=11, step=0.6, nlms=True)
        f.set_taps(w_taps)
        trace = run_adaptation(f, v, d, 1000, tail_frac=0.5)
        drift = np.linalg.norm(trace.tail_mean_taps - w_taps)
        assert drift <= 1e-3 * np.linalg.norm(w_taps)


class TestTraceOutputs:
    def test_trace_csv(self, tmp_path):
        trace = AdaptationTrace(
            squared_error=np.array([4.0, 1.0]),
            per_component=np.array([[3.0, 1.0], [0.5, 0.5]]))
        p = tmp_path / "trace.csv"
        trace.write_csv(p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "iteration,squared_error,e_0^2,e_1^2"
        assert lines[1] == "1,4.0,3.0,1.0"
        assert lines[2] == "2,1.0,0.5,0.5"

    def test_tap_table_csv(self, tmp_path):
        taps = np.arange(8.0).reshape(2, 2, 2)
        p = tmp_path / "taps.csv"
        write_tap_table(p, taps)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == '"a_1,1","a_1,2","a_2,1","a_2,2"'
        assert lines[1] == "0.0,2.0,4.0,6.0"
        assert lines[2] == "1.0,3.0,5.0,7.0"
