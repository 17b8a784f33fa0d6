import csv
import io

import numpy as np
import pytest

from ufbwiener.adaptive import (
    _CHUNK,
    _P,
    _PQM,
    _QM,
    AdaptationTrace,
    MatrixAdaptiveFilter,
    c_einsum,
    run_adaptation,
)
from ufbwiener.algebra import LaurentPoly
from ufbwiener.harness import _CSV_BLOCK, tap_table, trace_table, write_csv
from ufbwiener.spectra import FilterBankSpec, InputPSD, make_desired, run_analysis
from ufbwiener.wiener import wiener_solve


def reference_step(f, v, d):
    """One step of the per-iteration loop: push, filter, update the taps."""
    v = np.asarray(v, dtype=np.complex128).ravel()
    d = np.asarray(d, dtype=np.complex128).ravel()
    f.history[:, 1:] = f.history[:, :-1]
    f.history[:, 0] = v
    y = np.einsum("pqm,qm->p", f.taps, f.history)
    e = d - y
    if f.nlms:
        energy = np.sum(np.abs(f.history) ** 2, axis=1)
        mu = f.step / (f.eps + energy)[None, :]
    else:
        mu = f.step
    f.taps += mu[:, :, None] * e[:, None, None] * np.conj(f.history)[None, :, :]
    return e


def reference_run(f, v_blocks, d_blocks, n_iters, snapshot_iters=(), tail_frac=0.1):
    """run_adaptation as a plain loop of reference_step calls."""
    per = np.zeros((n_iters, f.M))
    sq = np.zeros(n_iters)
    trace = AdaptationTrace(squared_error=sq, per_component=per)
    tail_start = n_iters - max(int(round(tail_frac * n_iters)), 1)
    tail_sum = np.zeros_like(f.taps)
    tail_count = 0
    for n in range(n_iters):
        e = reference_step(f, v_blocks[n], d_blocks[n])
        per[n] = np.abs(e) ** 2
        sq[n] = per[n].sum()
        if n + 1 in snapshot_iters:
            trace.snapshots[n + 1] = f.taps.copy()
        if n >= tail_start:
            tail_sum += f.taps
            tail_count += 1
    trace.final_taps = f.taps.copy()
    trace.tail_mean_taps = tail_sum / max(tail_count, 1)
    return trace


def reference_trace_csv(trace):
    """The trace CSV as csv.writer writes it, one row per call."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["iteration", "squared_error"]
               + [f"e_{p}^2" for p in range(trace.per_component.shape[1])])
    for n in range(trace.n_iters):
        w.writerow([n + 1, repr(float(trace.squared_error[n]))]
                   + [repr(float(v)) for v in trace.per_component[n]])
    return buf.getvalue().encode()


def run_steps(f, v_blocks, d_blocks):
    """run_adaptation over every given block, with a snapshot after each step."""
    n = len(v_blocks)
    return run_adaptation(f, v_blocks, d_blocks, n, snapshot_iters=range(1, n + 1))


class TestFilterBlock:
    # With a zero step the taps stay put and the run's error is d - y, so
    # a zero desired signal reads out |y|^2, the filter's output power.
    def test_zero_taps(self):
        f = MatrixAdaptiveFilter(M=2, L=2, tap_len=3, step=0.0)
        trace = run_adaptation(f, [[1.0, 2.0]], np.zeros((1, 2)), 1)
        assert np.array_equal(trace.per_component, [[0.0, 0.0]])

    def test_identity_pattern(self):
        f = MatrixAdaptiveFilter(M=2, L=2, tap_len=2, step=0.0)
        taps = np.zeros((2, 2, 2))
        taps[0, 0, 0] = 1.0
        taps[1, 1, 0] = 1.0
        f.set_taps(taps)
        trace = run_adaptation(f, [[3.0, -4.0]], [[3.0, -4.0]], 1)
        assert np.array_equal(trace.per_component, [[0.0, 0.0]])
        assert np.array_equal(trace.final_taps, taps)

    def test_delayed_cross_tap(self):
        # single tap a_{0,1} at delay index 2: output is the input to
        # channel 1 from two blocks back, scaled by 3
        f = MatrixAdaptiveFilter(M=1, L=2, tap_len=3, step=0.0)
        taps = np.zeros((1, 2, 3))
        taps[0, 1, 2] = 3.0
        f.set_taps(taps)
        trace = run_adaptation(f, [[0.0, 5.0], [0.0, 0.0], [0.0, 0.0]], np.zeros((3, 1)), 3)
        assert np.array_equal(trace.per_component, [[0.0], [0.0], [225.0]])
        assert np.array_equal(f.history, [[0, 0, 0], [0, 0, 5]])

    def test_input_length_checked(self):
        # a flat block sequence is one value per block, too few for L = 2
        f = MatrixAdaptiveFilter(M=1, L=2, tap_len=1)
        with pytest.raises(ValueError, match="input vector must have length 2"):
            run_adaptation(f, [1.0, 2.0], np.zeros((2, 1)), 2)

    def test_set_taps_shape_checked(self):
        f = MatrixAdaptiveFilter(M=2, L=2, tap_len=3)
        with pytest.raises(ValueError):
            f.set_taps(np.zeros((2, 2, 4)))


class TestLMSUpdate:
    def test_hand_computed_step(self):
        # tap_len 1, mu = 0.5, v = [2], d = [4]: y = 0, e = 4,
        # new tap = 0 + 0.5 * 4 * 2 = 4
        f = MatrixAdaptiveFilter(M=1, L=1, tap_len=1, step=0.5)
        trace = run_adaptation(f, [[2.0]], [[4.0]], 1)
        assert np.array_equal(trace.per_component, [[16.0]])
        assert np.array_equal(f.taps[0, 0], [4.0])

    def test_zero_error_no_change(self):
        f = MatrixAdaptiveFilter(M=1, L=1, tap_len=1, step=0.5)
        f.set_taps(np.full((1, 1, 1), 2.0))
        trace = run_adaptation(f, [[3.0]], [[6.0]], 1)
        assert np.array_equal(trace.per_component, [[0.0]])
        assert np.array_equal(f.taps[0, 0], [2.0])

    def test_zero_step_freezes_taps(self):
        f = MatrixAdaptiveFilter(M=1, L=1, tap_len=1, step=0.0)
        run_adaptation(f, [[2.0]], [[4.0]], 1)
        assert np.array_equal(f.taps, np.zeros((1, 1, 1)))

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            MatrixAdaptiveFilter(M=1, L=1, tap_len=1, step=-0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
    def test_bad_step_entry_rejected(self, bad):
        steps = np.full((2, 3), 0.1)
        steps[1, 2] = bad
        with pytest.raises(ValueError, match="step must be finite and >= 0"):
            MatrixAdaptiveFilter(M=2, L=3, tap_len=2, step=steps)

    def test_matches_straight_loop(self):
        # the vectorized step must agree with an index-by-index
        # transcription of the update rule to near machine precision
        rng = np.random.default_rng(30)
        M, L, tap_len = 2, 3, 4
        steps = rng.uniform(0.05, 0.3, (M, L))
        f = MatrixAdaptiveFilter(M=M, L=L, tap_len=tap_len, step=steps)
        v = rng.standard_normal((25, L)) + 1j * rng.standard_normal((25, L))
        d = rng.standard_normal((25, M)) + 1j * rng.standard_normal((25, M))
        trace = run_steps(f, v, d)
        ref_taps = np.zeros((M, L, tap_len), dtype=np.complex128)
        ref_hist = np.zeros((L, tap_len), dtype=np.complex128)
        for n in range(25):
            ref_hist[:, 1:] = ref_hist[:, :-1]
            ref_hist[:, 0] = v[n]
            y_ref = np.zeros(M, dtype=np.complex128)
            for p in range(M):
                for q in range(L):
                    for m in range(tap_len):
                        y_ref[p] += ref_taps[p, q, m] * ref_hist[q, m]
            e_ref = d[n] - y_ref
            for p in range(M):
                for q in range(L):
                    for m in range(tap_len):
                        ref_taps[p, q, m] += steps[p, q] * e_ref[p] * np.conj(ref_hist[q, m])
            per_ref = np.abs(e_ref) ** 2
            assert np.max(np.abs(trace.per_component[n] - per_ref)) <= 1e-12 * (1 + per_ref.max())
            taps = trace.snapshots[n + 1]
            assert np.max(np.abs(taps - ref_taps)) <= 1e-12 * (1 + np.abs(ref_taps).max())


class TestNLMSUpdate:
    def test_hand_computed_step(self):
        # v = [2]: energy 4, e = 4, tap <- 0.6 * 4 * 2 / (4 + eps) = 1.2
        f = MatrixAdaptiveFilter(M=1, L=1, tap_len=1, step=0.6, nlms=True, eps=1e-12)
        trace = run_adaptation(f, [[2.0]], [[4.0]], 1)
        assert np.array_equal(trace.per_component, [[16.0]])
        assert np.allclose(f.taps[0, 0], [1.2], atol=1e-10)

    def test_zero_history_is_safe(self):
        f = MatrixAdaptiveFilter(M=1, L=1, tap_len=2, step=0.6, nlms=True)
        trace = run_adaptation(f, [[0.0]], [[1.0]], 1)
        assert np.array_equal(trace.per_component, [[1.0]])
        assert np.array_equal(f.taps, np.zeros((1, 1, 2)))

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
        t1 = run_steps(f1, v, d)
        t2 = run_steps(f2, alpha * v, alpha * d)
        p1 = t1.per_component
        assert np.max(np.abs(t2.per_component / alpha ** 2 - p1)) <= 1e-7 * (1 + p1.max())
        for n in t1.snapshots:
            assert np.allclose(t2.snapshots[n], t1.snapshots[n], rtol=1e-7, atol=1e-9)


class TestRunAdaptation:
    def _delay_chain(self, M=2):
        return FilterBankSpec(M=M, filters=tuple(LaurentPoly.delay(i) for i in range(M)))

    def test_identity_bank_convergence(self):
        # delay-chain analysis makes v equal to the desired blocks, so the
        # optimum is a single unit tap per diagonal entry
        rng = np.random.default_rng(32)
        fb = self._delay_chain()
        x = rng.standard_normal(4000)
        v = run_analysis(fb, x)
        d = make_desired(x, fb.M)
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
        v = run_analysis(fb, x)
        d = make_desired(x, fb.M)
        f = MatrixAdaptiveFilter(M=2, L=2, tap_len=2, step=0.3)
        trace = run_adaptation(f, v, d, 50, snapshot_iters=(1, 50))
        assert set(trace.snapshots) == {1, 50}
        # snapshot 50 is the state after the last update
        assert np.allclose(trace.snapshots[50], trace.final_taps)
        # snapshot 1 reflects exactly one step from zero taps
        f2 = MatrixAdaptiveFilter(M=2, L=2, tap_len=2, step=0.3)
        run_adaptation(f2, v, d, 1)
        assert np.array_equal(trace.snapshots[1], f2.taps)

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
            v = run_analysis(fb, x)
            d = make_desired(x, fb.M)
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
        # starting at the truncated Wiener taps, the taps averaged over the
        # last 10% of 1000 steps stay there: drift under 1e-3 of the tap norm
        rng = np.random.default_rng(35)
        fb = FilterBankSpec(M=2, filters=(
            LaurentPoly.from_causal([4, 7, 2]),
            LaurentPoly.from_causal([3, -1, -1.5])))
        ws = wiener_solve(fb, InputPSD.white())
        w_taps = ws.impulse_responses(11)
        x = rng.standard_normal(4000)
        v = run_analysis(fb, x)
        d = make_desired(x, fb.M)
        f = MatrixAdaptiveFilter(M=2, L=2, tap_len=11, step=0.6, nlms=True)
        f.set_taps(w_taps)
        trace = run_adaptation(f, v, d, 1000)
        drift = np.linalg.norm(trace.tail_mean_taps - w_taps)
        assert drift <= 1e-3 * np.linalg.norm(w_taps)


# (M, L, tap_len, nlms, n_iters, warm-up steps, random start taps, real input,
#  snapshots besides 1 and n_iters)
ENGINE_CASES = {
    "nlms_3x2_chunks_plus_tail": (3, 2, 5, True, 2 * _CHUNK + 37, 3, True, False, ()),
    "lms_2x3_one_past_chunk": (2, 3, 4, False, _CHUNK + 1, 0, False, False, ()),
    "lms_single_tap": (1, 1, 1, False, _CHUNK - 1, 2, True, False, ()),
    "nlms_exact_chunk_real_input": (2, 2, 11, True, _CHUNK, 0, False, True, ()),
    "nlms_zero_iterations": (2, 3, 4, True, 0, 2, True, False, ()),
    # a snapshot at the end of a chunk before the tail window, and one inside
    # the window (which starts in the second chunk) but not at its end
    "lms_3x2_snapshots_at_chunk_end_and_in_tail": (
        3, 2, 4, False, 2 * _CHUNK + 20, 1, True, False, (_CHUNK, 2 * _CHUNK + 13)),
}


class TestChunkedEngine:
    @pytest.mark.parametrize("case", ENGINE_CASES.values(), ids=ENGINE_CASES.keys())
    def test_bit_identical_to_per_step_loop(self, case):
        M, L, tap_len, nlms, n_iters, warmup, start_taps, real, extra_snaps = case
        rng = np.random.default_rng(36)
        n_blocks = warmup + n_iters + 4
        v = rng.standard_normal((n_blocks, L))
        d = rng.standard_normal((n_blocks, M))
        if not real:
            v = v + 1j * rng.standard_normal((n_blocks, L))
            d = d + 1j * rng.standard_normal((n_blocks, M))
        step = 0.4 if nlms else rng.uniform(0.01, 0.05, (M, L))
        f = MatrixAdaptiveFilter(M, L, tap_len, step=step, nlms=nlms)
        ref = MatrixAdaptiveFilter(M, L, tap_len, step=step, nlms=nlms)
        if start_taps:
            taps = rng.standard_normal((M, L, tap_len)) + 1j * rng.standard_normal((M, L, tap_len))
            f.set_taps(taps)
            ref.set_taps(taps)
        # the warm-up run leaves the history (and taps) the measured run starts from
        got_warm = run_adaptation(f, v[:warmup], d[:warmup], warmup)
        want_warm = reference_run(ref, v[:warmup], d[:warmup], warmup)
        assert np.array_equal(got_warm.per_component, want_warm.per_component)
        assert np.array_equal(f.taps, ref.taps)
        assert np.array_equal(f.history, ref.history)
        snaps = tuple(sorted({1, n_iters, *extra_snaps})) if n_iters else ()
        got = run_adaptation(f, v[warmup:], d[warmup:], n_iters, snapshot_iters=snaps)
        want = reference_run(ref, v[warmup:], d[warmup:], n_iters, snapshot_iters=snaps)
        assert np.array_equal(got.squared_error, want.squared_error)
        assert np.array_equal(got.per_component, want.per_component)
        assert list(got.snapshots) == list(want.snapshots)
        for k in want.snapshots:
            assert np.array_equal(got.snapshots[k], want.snapshots[k])
        assert np.array_equal(got.final_taps, want.final_taps)
        assert np.array_equal(got.tail_mean_taps, want.tail_mean_taps)
        assert np.array_equal(f.taps, ref.taps)
        assert np.array_equal(f.history, ref.history)

    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 2, 11), (3, 2, 5), (3, 3, 15)])
    def test_einsum_entry_point_matches_np_einsum(self, shape):
        # run_adaptation calls numpy's private c_einsum; a numpy release that
        # moves or changes it must fail here, not move the artifacts
        M, L, T = shape
        rng = np.random.default_rng(7)
        taps = rng.standard_normal((M, L, T)) + 1j * rng.standard_normal((M, L, T))
        windows = rng.standard_normal((3, L, T)) + 1j * rng.standard_normal((3, L, T))
        for window in windows:
            y = np.empty(M, dtype=np.complex128)
            c_einsum(taps, _PQM, window, _QM, _P, out=y)
            assert y.tobytes() == np.einsum("pqm,qm->p", taps, window).tobytes()

    def test_wrong_block_width_rejected(self):
        f = MatrixAdaptiveFilter(M=2, L=2, tap_len=2)
        with pytest.raises(ValueError, match="input vector"):
            run_adaptation(f, np.zeros((5, 3)), np.zeros((5, 2)), 5)
        with pytest.raises(ValueError, match="desired vector"):
            run_adaptation(f, np.zeros((5, 2)), np.zeros((5, 1)), 5)


class TestTraceOutputs:
    def test_trace_csv(self, tmp_path):
        trace = AdaptationTrace(
            squared_error=np.array([4.0, 1.0]),
            per_component=np.array([[3.0, 1.0], [0.5, 0.5]]))
        p = tmp_path / "trace.csv"
        write_csv(p, *trace_table(trace))
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "iteration,squared_error,e_0^2,e_1^2"
        assert lines[1] == "1,4.0,3.0,1.0"
        assert lines[2] == "2,1.0,0.5,0.5"

    def test_trace_csv_matches_csv_writer(self, tmp_path):
        special = [np.nan, np.inf, -np.inf, 5e-324, 1e-300, 0.0, -0.0, 1 / 3, 1e16, 123.0]
        n = 2 * _CSV_BLOCK + 5
        rng = np.random.default_rng(37)
        per = rng.choice(special, size=(n, 3)) * rng.choice([1.0, 2.5e-7], size=(n, 3))
        sq = rng.choice(special, size=n)
        trace = AdaptationTrace(squared_error=sq, per_component=per)
        p = tmp_path / "trace.csv"
        write_csv(p, *trace_table(trace))
        assert p.read_bytes() == reference_trace_csv(trace)

    def test_tap_table_csv(self, tmp_path):
        taps = np.arange(8.0).reshape(2, 2, 2)
        p = tmp_path / "taps.csv"
        write_csv(p, *tap_table(taps))
        lines = p.read_text().strip().splitlines()
        assert lines[0] == '"a_1,1","a_1,2","a_2,1","a_2,2"'
        assert lines[1] == "0.0,2.0,4.0,6.0"
        assert lines[2] == "1.0,3.0,5.0,7.0"
