import csv
import dataclasses
import io
import re
import warnings

import numpy as np
import pytest

from ufbwiener.adaptive import MatrixAdaptiveFilter
from ufbwiener.algebra import LaurentPoly
from ufbwiener.harness import (
    DivergenceError,
    ExperimentConfig,
    apply_overrides,
    compare_to_wiener,
    experiment_1,
    experiment_2,
    generate_wss,
    run_experiment,
    tap_table,
    write_csv,
)
from ufbwiener.spectra import FilterBankSpec, InputPSD
from ufbwiener.wiener import wiener_solve


def reference_tap_table(taps):
    """A tap table as the per-row csv.writer loop before write_csv wrote it:
    a tap with zero imaginary part as the repr of its real part."""
    M, L, tap_len = taps.shape
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow([f"a_{p + 1},{q + 1}" for p in range(M) for q in range(L)])
    for m in range(tap_len):
        w.writerow([repr(float(v.real)) if v.imag == 0 else repr(complex(v))
                    for v in taps[:, :, m].ravel()])
    return buf.getvalue().encode()


class TestGenerateWSS:
    def test_deterministic(self):
        m = InputPSD()
        a = generate_wss(m, 1000, seed=7)
        b = generate_wss(m, 1000, seed=7)
        assert np.array_equal(a, b)
        c = generate_wss(m, 1000, seed=8)
        assert not np.array_equal(a, c)

    def test_variance(self):
        x = generate_wss(InputPSD(variance=4.0), 1_000_000, seed=1)
        assert abs(x.var() - 4.0) <= 0.04

    def test_shaped_autocorrelation(self):
        # G = 1 + 0.5 z^-1 gives normalized lag-1 autocorrelation 0.5/1.25
        m = InputPSD(LaurentPoly.from_causal([1, 0.5]))
        x = generate_wss(m, 400_000, seed=2)
        r0 = np.mean(x * x)
        r1 = np.mean(x[1:] * x[:-1])
        assert abs(r1 / r0 - 0.4) <= 0.01

    def test_n_samples_checked(self):
        with pytest.raises(ValueError):
            generate_wss(InputPSD(), 0, seed=0)


# The adaptive-parameter rule and its messages, shared by both constructors.
PARAMETER_CASES = (
    [({"tap_len": 0}, "tap_len must be >= 1")]
    + [({"step": step}, "step must be finite and >= 0") for step in (-0.1, np.inf, np.nan)]
    + [({"eps": eps}, "eps must be finite and > 0") for eps in (0.0, -1.0, np.inf, np.nan)]
)


def _config(tap_len=8, step=0.5, eps=1e-8):
    return ExperimentConfig(fb=experiment_1().fb, tap_len=tap_len, step=step, eps=eps)


def _adaptive_filter(tap_len=8, step=0.5, eps=1e-8):
    return MatrixAdaptiveFilter(2, 2, tap_len, step=step, nlms=True, eps=eps)


class TestExperimentConfig:
    def test_json_defaults(self):
        fb_dict = {"M": 2, "d": 0, "filters": [[4, 7, 2], [3, -1, -1.5]]}
        fb = experiment_1().fb
        assert ExperimentConfig.from_json_dict({"fb": fb_dict}) == ExperimentConfig(fb=fb)
        full = {"name": "exp1", "fb": fb_dict, "input": {}, "seed": 20130215,
                "algorithm": "nlms", "step": 0.6, "tap_len": 11, "eps": 1e-8,
                "n_iters": 100, "snapshots": [100]}
        assert ExperimentConfig.from_json_dict(full) == apply_overrides(experiment_1(), n_iters=100)

    @pytest.mark.parametrize("field, bad, name", [
        ("seed", 1.5, "seed"), ("seed", True, "seed"), ("tap_len", 3.7, "tap_len"),
        ("n_iters", 10.9, "n_iters"), ("n_iters", "10", "n_iters"),
        ("snapshots", [5, 10.0], "snapshots[1]"), ("snapshots", "5", "snapshots[0]")])
    def test_json_integer_field_named(self, field, bad, name):
        cfg = {"fb": {"M": 2, "filters": [[4, 7, 2], [3, -1, -1.5]]}, "n_iters": 20, field: bad}
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be an integer, not "):
            ExperimentConfig.from_json_dict(cfg)

    def test_overrides(self):
        cfg = experiment_1()
        assert apply_overrides(cfg) == cfg
        assert apply_overrides(cfg, seed=9, step=0.3) == dataclasses.replace(cfg, seed=9, step=0.3)
        # a shorter run snapshots its last iteration, a longer one keeps 2000
        for n_iters, snapshots in ((0, ()), (1, (1,)), (150, (150,)), (2000, (2000,)),
                                   (5000, (2000,))):
            got = apply_overrides(cfg, n_iters=n_iters)
            assert (got.n_iters, got.snapshots) == (n_iters, snapshots)
        with pytest.raises(ValueError, match="n_iters must be >= 0"):
            apply_overrides(cfg, n_iters=-1)

    @pytest.mark.parametrize("build", [_config, _adaptive_filter],
                             ids=["ExperimentConfig", "MatrixAdaptiveFilter"])
    def test_parameter_rules(self, build):
        build()
        for kwargs, message in PARAMETER_CASES:
            with pytest.raises(ValueError, match=re.escape(message)):
                build(**kwargs)

    def test_validation(self):
        fb = experiment_1().fb
        with pytest.raises(ValueError):
            ExperimentConfig(fb=fb, algorithm="rls")
        with pytest.raises(ValueError):
            ExperimentConfig(fb=fb, n_iters=-1)
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(fb=fb, seed=-1)
        for snaps in ((0,), (1001,), (5, 2000)):
            with pytest.raises(ValueError, match="snapshots"):
                ExperimentConfig(fb=fb, n_iters=1000, snapshots=snaps)
        assert ExperimentConfig(fb=fb, n_iters=1000, snapshots=(1, 1000)).snapshots == (1, 1000)


class TestRunExperiment:
    def test_deterministic_artifacts(self, tmp_path):
        cfg = apply_overrides(experiment_1(), n_iters=150)
        res1 = run_experiment(cfg)
        res2 = run_experiment(cfg)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        res1.write(d1)
        res2.write(d2)
        for name in ("trace.csv", "taps_final.csv", "wiener.json", "metrics.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_zero_iterations(self):
        res = run_experiment(apply_overrides(experiment_1(), n_iters=0))
        assert res.trace.n_iters == 0
        assert res.trace.per_component.shape == (0, 2)
        assert np.allclose(res.trace.final_taps, 0)
        assert np.allclose(res.trace.tail_mean_taps, 0)

    def test_divergence_raised(self):
        # NLMS step 5 is outside (0, 2): the error grows until it overflows,
        # and the run names the first iteration whose squared error is not
        # finite, without a numpy overflow warning on the way
        cfg = dataclasses.replace(experiment_1(), step=5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as info:
                run_experiment(cfg)
        n = re.fullmatch(r"the adaptation diverged: iteration (\d+) of 2000 is not finite",
                         str(info.value))
        assert n and 1 < int(n[1]) <= 2000

    def test_exp1_steady_state(self):
        res = run_experiment(experiment_1())
        assert res.metrics["reconstruction_rel_mse"] <= 1e-3
        assert res.metrics["tap_distance_rel"] <= 1e-3

    def test_exp2_steady_state(self):
        res = run_experiment(experiment_2())
        assert res.metrics["reconstruction_rel_mse"] <= 1e-3
        assert res.metrics["tap_distance_rel"] <= 1e-3

    def test_exp1_geometric_tap_ratio(self):
        # successive taps of every converged entry shrink by the Wiener
        # pole ratio 17/50 = 0.34
        res = run_experiment(experiment_1())
        taps = res.trace.snapshots[2000].real
        for p in range(2):
            for q in range(2):
                col = taps[p, q]
                ratios = col[2:6] / col[1:5]
                assert np.allclose(ratios, 0.34, atol=0.01)


class TestArtifactCSV:
    """Tap tables have csv.writer's bytes, as the trace (tests/test_adaptive.py)
    and residuals.csv (tests/test_wiener.py) do."""

    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 7), (3, 2, 300)])
    def test_tap_table_matches_csv_writer(self, tmp_path, shape):
        special = [0.0, -0.0, 5e-324, -2.2e-308, 1e-300, 1 / 3, -1e16, 123.0, 2.5e-7]
        rng = np.random.default_rng(11)
        re_part = rng.choice(special, size=shape) * rng.choice([1.0, -3.7], size=shape)
        im_part = rng.choice(special + [0.0] * 4, size=shape)
        taps = re_part + 1j * im_part
        p = tmp_path / "taps.csv"
        write_csv(p, *tap_table(taps))
        assert p.read_bytes() == reference_tap_table(taps)


class TestCompareToWiener:
    def test_exact_taps_zero_distance(self):
        cfg = experiment_1()
        ws = wiener_solve(cfg.fb, InputPSD.white())
        taps = ws.impulse_responses(11)
        distance_abs, distance_rel = compare_to_wiener(taps, ws)
        assert distance_abs <= 1e-12 and distance_rel <= 1e-12

    def test_zero_taps_full_distance(self):
        cfg = experiment_1()
        ws = wiener_solve(cfg.fb, InputPSD.white())
        _, distance_rel = compare_to_wiener(np.zeros((2, 2, 11)), ws)
        assert abs(distance_rel - 1.0) <= 1e-9

    def test_unstable_refused(self):
        fb = FilterBankSpec(M=1, filters=(LaurentPoly.from_causal([1, 2]),))
        ws = wiener_solve(fb, InputPSD.white())
        with pytest.raises(ValueError, match=re.escape(
                "tap comparison requires a stable Wiener solution; poles at -2+0j")):
            compare_to_wiener(np.zeros((1, 1, 4)), ws)
