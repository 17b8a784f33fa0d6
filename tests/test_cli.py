import hashlib
import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ufbwiener import algebra, spectra, wiener
from ufbwiener.algebra import RationalTF, LaurentPoly, poly_roots
from ufbwiener.cli import main
from ufbwiener.harness import GENERATOR_ID, PRESETS, apply_overrides, experiment_1
from ufbwiener.spectra import FilterBankSpec, InputPSD, analysis_psd, cross_psd, generate_wss
from ufbwiener.wiener import reconstruction_check, wiener_solve

TWO_BAND = {"M": 2, "d": 0, "filters": [[4, 7, 2], [3, -1, -1.5]]}

# Complex taps written as [re, im]: a stable bank with one pole, at 0.125 - 0.125j.
COMPLEX_TAP_BANK = {"M": 2, "d": 1, "filters": [[1, [0, 0.5]], [1, -0.5, [0, 0.25]]]}

# Stable d = 0 bank whose deflated numerators carry roundoff one power
# above the shared denominator.
FOUR_BAND_D0 = {"M": 4, "d": 0, "filters": [
    [-1.2841441349071565, 0.8343874451193292, 0.13635203322280232,
     -0.2896799964881094, -0.5426431251952877, -0.7637435173117351],
    [-1.4210877904654315, -0.4876427351961148, 0.7411868501303156, -0.7654803743066536],
    [-1.4458988540770303, 0.0008189459403209476],
    [-0.7667677285979746, -0.9210182969710321, -0.11966177900033226,
     -0.22740941948956772, 0.9771245315707553]]}

# Delay banks whose exact Wiener solution needs a one-block advance:
# L = M, and L < M, where the reduced A[0, 1] is z.
NONCAUSAL_BANK = {"M": 2, "d": 0, "filters": [[0, 1], [0, 0, 1]]}
NONCAUSAL_3X2_BANK = {"M": 3, "d": 0, "filters": [[0, 0, 1], [0, 0, 0, 1]]}

# 3-band banks whose polyphase matrix E has a constant determinant, so the
# Wiener filter has no pole; trimmed against themselves, the partial sums
# of det S_vv kept roundoff ends that became poles near 1e-10 and 1e10.
CONSTANT_DET_E_BANKS = {
    "d0": {"M": 3, "d": 0, "filters": [
        [0.5870425468192375, -0.2246470170407846],
        [-1.3954574848485328, 0.4518725622301465],
        [-1.0311144335905509, -0.8759913674481818, 0.023750537720027998,
         -0.5609936515308191, -0.380716578323979]]},
    "d5": {"M": 3, "d": 5, "filters": [
        [-1.4815172751216512, 0.05468025059762849],
        [1.440115799087544, -0.9694336168945934, 0.00930818183543658,
         0.5917618611607676, -0.4917122932793463],
        [1.084663863334113, -0.8607999756699429]]},
}

# Finite taps whose spectra overflow double precision: S_vv's entries are
# near 1e321.
OVERFLOW_BANK = {"M": 2, "d": 0, "filters": [[1e160, 2e160], [3e160, -1e160]]}

# Banks whose `wiener` output is pinned by WIENER_DIGESTS: L < M with a
# shaped input, an L = M bank with a pole at -2, an unstable 6-band bank
# (poles at -0.00396 and 10.70), and a stable shaped-input 4-band bank
# (poles at 0.4638 +- 0.4822j) whose reconstruction residuals are pinned
# too.  Every matrix product runs the dense kernel, and so does every
# cofactor expansion from 3 x 3 on: that of six_band and stable4.
PINNED_BANKS = {
    "two_band": TWO_BAND,
    "shaped3x2": {"M": 3, "d": 2, "filters": [[1, 0.5, 0.25], [0.3, -1, 0.2, 0.1]],
                  "input": {"kind": "shaped", "shaping": [1, -0.5]}},
    "unstable": {"M": 2, "d": 0, "filters": [[1, 0, 2], [0, 1]]},
    "six_band": {"M": 6, "d": 10, "filters": [
        [1.476977, -0.415328, 0.123518, 0.141389, 0.631649],
        [0.69286, -0.330341, -0.184045, 0.099575, 0.843668],
        [0.723925, -0.075725, 0.287332, 0.577343, -0.156204, 0.805457, 0.797493],
        [1.245531, 0.189854, -0.969299, -0.198307],
        [-0.732204, 0.178491, 0.781304, -0.435455, -0.337789, -0.468697, -0.368163],
        [-1.436408, 0.38214, 0.748936, -0.447779, -0.980291, -0.368332, 0.361769, 0.838659]]},
    "stable4": {"M": 4, "d": 6, "filters": [
        [-1.055464, -0.749331, -0.374427, 0.434439],
        [1.429471, 0.606301, -0.180831, 0.424807, -0.744808],
        [-1.230103, 0.538642, 0.17454, -0.92482, -0.23657, -0.754849],
        [1.400452, 0.230828, 0.457646, 0.67392, 0.414607]],
        "input": {"kind": "shaped", "shaping": [1, -0.5]}},
}

# sha256 (numpy 2.4, x86-64) of the solver's output, so that a last-bit
# change anywhere in the polynomial arithmetic shows: wiener.json of each
# repro preset, and every file `wiener` writes plus its stdout for the
# PINNED_BANKS, each run with `--out <bank name>`.  Recorded before the
# coefficient trim became one pass, which left them as they were;
# six_band's when its solve moved to the dense kernel, which changed the
# last bits of its coefficients and its identity residual (2.437e-13 to
# 4.286e-13), but not its verdict or poles (SIX_BAND_VERDICT); stable4's
# before the Wiener filter became one numerator matrix over one
# denominator, which left them as they were; shaped3x2's when its 3 x 2
# product S_dv @ adj S_vv moved to the dense kernel, which changed the
# last bit of three numerator coefficients and its identity residual
# (1.624e-16 to 8.118e-17), but not its verdict or poles.
WIENER_DIGESTS = {
    "exp1": {"wiener.json": "6db57659071b54b39773737a2d2a5736a66f696f20434dbfbae3c57ebd3efda9"},
    "exp2": {"wiener.json": "0614270a905f641f001526d467cc538cc76ba39ed725fe580a7d20bb96ab062c"},
    "two_band": {
        "wiener.json": "6db57659071b54b39773737a2d2a5736a66f696f20434dbfbae3c57ebd3efda9",
        "residuals.csv": "3bfa68a9be926b5cb289aa251351412844dac75e36df4f10bbca8368e7303b91",
        "stdout": "7ce2581f5944ac406ad1e25b587b8f29506748458dfcdbf64e39dabb9eeffeaa",
    },
    "shaped3x2": {
        "wiener.json": "7522d9fea46942cb0483573658138970124cdf4eeb2aaa07a5e27b23a30e8171",
        "stdout": "69b91a1863400ae5249e13dab1020a69e0b3f441d9b39387fac5c1e959494912",
    },
    "unstable": {
        "wiener.json": "91afd44a7f2dec6619de7d08f201f329ff77014b232459008e27f4bbd51fad8a",
        "stdout": "77f8a58aca2c2fd558e35559359d69b8e6eb099b0dbebe0a6cce9ec1b16e695c",
    },
    "six_band": {
        "wiener.json": "1b0b4b33c2ab0aeb77ab21aa688be6d05ca7750dec72c97789fc6920116befb3",
        "stdout": "380b96f4f6caa4cc6c7e51fd6da060e4e05f71fc9812f46a47d4a17231cf8a24",
    },
    "stable4": {
        "wiener.json": "cb7a62a0ac84a80d04282cc5c73502ed71424df10084fa45a90b265b27f0edfd",
        "residuals.csv": "a71befe70fd5b20ed9bc27e0bcda2987e58254c1216b8884d20c6275608f609c",
        "stdout": "0a15ee9a4e1f8b231cdd7c461fd441f056580897640037c56d13c74053efc38c",
    },
}

# The verdict and pole lines of six_band's stdout, unchanged since it was
# first pinned.
SIX_BAND_VERDICT = [
    "Wiener synthesis filter: 6x6, UNSTABLE",
    "  pole at -0.00396405+0j (|z| = 0.00396405)",
    "  pole at 10.7024+0j (|z| = 10.7024)",
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# sha256 of every file `repro` writes besides wiener.json (numpy 2.4,
# x86-64), as written before wiener.json moved to the reduced filter;
# that move left them as they were.
REPRO_DIGESTS = {
    "exp1": {
        "metrics.json": "38c4bc781acb4cd6570ec073482b003d9a65265b11d4f4641fe6b57ab8b8bd0c",
        "taps_final.csv": "6d4f8c8faf16a42dea4b405ffd00c78d1498793ee8a44d6ed61746ddc6ad5052",
        "taps_iter2000.csv": "6d4f8c8faf16a42dea4b405ffd00c78d1498793ee8a44d6ed61746ddc6ad5052",
        "trace.csv": "dbba33aefee23cc95c9a8cd8da809b9502e47f96daea8fb32fb15a4d4d788584",
    },
    "exp2": {
        "metrics.json": "a340b6d9de9b480fa55ac9939f86e74b8444b0361c8c6db61ece48c0f348c048",
        "taps_final.csv": "68cbeefb21238595e93c55c980dd94c92cf3d98fa3a157f3b1a085efa62241d6",
        "taps_iter12000.csv": "68cbeefb21238595e93c55c980dd94c92cf3d98fa3a157f3b1a085efa62241d6",
        "trace.csv": "15404757903ee65c654be50cc7aadcf586d71ebe4b5922a6be6f940b523a5726",
    },
}

# sha256 (numpy 2.4, x86-64) of the stdout of `verify`, so that a change to
# a suite's draws or to the arithmetic under it shows; recorded when every
# matrix product and every 3 x 3 and larger expansion moved to the dense
# kernel, which changed the worst errors that theorem1-agreement,
# closed-form-consistency and wiener-identity print, but no verdict.
VERIFY_DIGESTS = {
    "--quick": "4cbdde1bd3b4ed0a2d8ede239862c1a835fb9f9bef24bd122e564ba056f853c8",
    "--seed 0": "576f1b89e3895f0a2992cb2737a7c1288910029422ad85ea09a814ea4176d333",
}

BAD_CONFIGS = [
    ("wiener", {**TWO_BAND, "input": {"kind": "shaped"}}),
    ("wiener", {**TWO_BAND, "input": {"variance": -1}}),
    ("wiener", {**TWO_BAND, "input": {"kind": "white", "shaping": [1, 0.5]}}),
    ("wiener", {**TWO_BAND, "input": {"kind": "pink"}}),
    ("adapt", {"fb": TWO_BAND, "tap_len": 0}),
    ("adapt", {"fb": TWO_BAND, "step": -0.5}),
    ("adapt", {"fb": TWO_BAND, "n_iters": 100, "snapshots": [0]}),
    ("adapt", {"fb": TWO_BAND, "n_iters": 100, "snapshots": [101]}),
    ("wiener", {"M": 2}),
    ("adapt", {"n_iters": 10}),
    ("adapt", {"fb": {"M": 2}}),
    ("verify", ["--seed", "-1"]),
    ("repro", ["exp1", "--seed", "-5"]),
    ("wiener", {**TWO_BAND, "filters": [[4, 1e400], [3, -1]]}),
    ("wiener", {**TWO_BAND, "input": {"variance": 1e400}}),
    ("wiener", {**TWO_BAND, "input": {"shaping": [1, float("nan")]}}),
    ("adapt", {"fb": TWO_BAND, "input": {"shaping": [1, float("inf")]}}),
    ("adapt", {"fb": TWO_BAND, "step": 1e400}),
    ("adapt", {"fb": TWO_BAND, "eps": -1.0}),
    ("adapt", {"fb": TWO_BAND, "eps": float("nan")}),
    ("wiener", {**TWO_BAND, "filters": [[4, [7, 0, 1]], [3, -1]]}),
    ("adapt", {"fb": {**TWO_BAND, "filters": [[4, ["7", 0]], [3, -1]]}}),
    ("wiener", {**TWO_BAND, "input": {"shaping": [1, [0, 0.5]]}}),
]


def write_config(tmp_path, data, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return p


def assert_artifact_directory_refused(capsys, command, out, name):
    """A directory by the name of a file the run writes is refused before
    any work, with or without --force, and --out keeps only it."""
    capsys.readouterr()
    for force in (["--force"], []):
        assert main([*command, "--out", str(out), *force]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: cannot write {name} in {out}: not a regular file"]
        assert [p.name for p in out.iterdir()] == [name]
        assert not any((out / name).iterdir())


class TestWienerCommand:
    def test_two_band_solution(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TWO_BAND)
        out = tmp_path / "out"
        assert main(["wiener", "--config", str(cfg), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "stable" in text
        data = json.loads((out / "wiener.json").read_text())
        a00 = RationalTF.from_dict(data["entries"][0][0])
        want = RationalTF(LaurentPoly([2]), LaurentPoly.from_causal([50, -17]))
        assert a00.equals(want, 1e-9)
        assert (out / "residuals.csv").exists()

    @pytest.mark.parametrize("name", sorted(PINNED_BANKS))
    def test_output_pinned(self, tmp_path, monkeypatch, capsys, name):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, PINNED_BANKS[name])
        assert main(["wiener", "--config", str(cfg), "--out", name]) == 0
        got = {p.name: sha256(p.read_bytes()) for p in (tmp_path / name).iterdir()}
        got["stdout"] = sha256(capsys.readouterr().out.encode())
        assert got == WIENER_DIGESTS[name]

    def test_complex_tap_bank(self, tmp_path, capsys):
        cfg = write_config(tmp_path, COMPLEX_TAP_BANK)
        assert main(["wiener", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == ["Wiener synthesis filter: 2x2, stable",
                             "  pole at 0.125-0.125j (|z| = 0.176777)",
                             "  identity residual |A S_vv - S_dv|: 0.000e+00"]
        assert float(lines[3].split(":")[1]) <= 1e-14  # reconstruction grid max
        assert json.loads((tmp_path / "o" / "wiener.json").read_text())["poles"] == [
            [0.125, -0.125]]

    def test_six_band_verdict_and_poles(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PINNED_BANKS["six_band"])
        assert main(["wiener", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().out.splitlines()[:3] == SIX_BAND_VERDICT

    def test_delay_chain_identity(self, tmp_path):
        cfg = write_config(tmp_path, {"M": 2, "filters": [[1], [0, 1]]})
        out = tmp_path / "out"
        assert main(["wiener", "--config", str(cfg), "--out", str(out)]) == 0
        data = json.loads((out / "wiener.json").read_text())
        one = RationalTF(LaurentPoly.one(), LaurentPoly.one())
        zero = RationalTF(LaurentPoly.zero(), LaurentPoly.one())
        for i in range(2):
            for j in range(2):
                got = RationalTF.from_dict(data["entries"][i][j])
                assert got.equals(one if i == j else zero, 1e-12)

    def test_singular_bank_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"M": 2, "filters": [[4, 7, 2], [4, 7, 2]]})
        rc = main(["wiener", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()  # no empty --out directory left behind

    @pytest.mark.parametrize("scale", [1.0, 1e4])
    def test_singular_diagnosis_scale_invariant(self, tmp_path, capsys, scale):
        # the third filter is the sum of the first two, at any tap scale
        filters = [[scale * c for c in taps]
                   for taps in ([1, 2, 3, 4], [2, 1, 0, 3], [3, 3, 3, 7])]
        cfg = write_config(tmp_path, {"M": 3, "filters": filters})
        assert main(["wiener", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "alias index sets [(0, 1, 2)]" in capsys.readouterr().err

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"M": 2,\n "filters": [[1], [0, 1]]')
        rc = main(["wiener", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "invalid JSON" in err and "bad.json" in err

    def test_missing_file_exit_2(self, tmp_path):
        rc = main(["wiener", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_overwrite_refused_without_force(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TWO_BAND)
        out = tmp_path / "out"
        assert main(["wiener", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["wiener", "--config", str(cfg), "--out", str(out)]) == 2
        assert "--force" in capsys.readouterr().err
        assert main(["wiener", "--config", str(cfg), "--out", str(out), "--force"]) == 0

    def test_force_removes_the_other_run_residuals(self, tmp_path):
        # a stable bank writes residuals.csv, an unstable one does not; the
        # second run's --out holds its own artifacts and the files it does not own
        out = tmp_path / "r"
        stable = write_config(tmp_path, TWO_BAND, "stable.json")
        unstable = write_config(tmp_path, PINNED_BANKS["unstable"], "unstable.json")
        assert main(["wiener", "--config", str(stable), "--out", str(out)]) == 0
        (out / "notes.txt").write_text("keep")
        (out / "trace.csv").write_text("keep")
        assert main(["wiener", "--config", str(unstable), "--out", str(out), "--force"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "trace.csv", "wiener.json"]
        assert (out / "trace.csv").read_text() == "keep"
        (out / "residuals.csv").write_text("stale")
        assert main(["wiener", "--config", str(stable), "--out", str(out)]) == 2

    @pytest.mark.parametrize("command", ["wiener", "repro"])
    def test_out_is_a_file_exit_2(self, tmp_path, capsys, command):
        # refused before any work, with or without --force, and the file is kept
        out = tmp_path / "taken"
        out.write_text("keep")
        args = (["--config", str(write_config(tmp_path, TWO_BAND))] if command == "wiener"
                else ["exp1"])
        for force in ([], ["--force"]):
            assert main([command, *args, "--out", str(out), *force]) == 2
            err = capsys.readouterr().err.splitlines()
            assert err == [f"config error: --out {out} exists and is not a directory"]
        assert out.read_text() == "keep"

    @pytest.mark.parametrize("name", sorted(CONSTANT_DET_E_BANKS))
    def test_constant_det_e_bank_has_no_pole(self, tmp_path, capsys, name):
        cfg = write_config(tmp_path, CONSTANT_DET_E_BANKS[name])
        assert main(["wiener", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0] == "Wiener synthesis filter: 3x3, stable"
        assert "pole at" not in text

    def test_directory_named_like_an_artifact_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "residuals.csv").mkdir(parents=True)
        assert_artifact_directory_refused(
            capsys, ["wiener", "--config", str(write_config(tmp_path, TWO_BAND))],
            out, "residuals.csv")

    def test_unit_circle_psd_zero_writes_finite_residuals(self, tmp_path):
        cfg = write_config(tmp_path, {**TWO_BAND,
                                      "input": {"kind": "shaped", "shaping": [1, -1]}})
        out = tmp_path / "out"
        assert main(["wiener", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "residuals.csv").read_text().strip().splitlines()[1:]
        assert rows[0].startswith("0.0,")
        assert all(np.isfinite(float(r.split(",")[1])) for r in rows)

    def test_shaped_input_drives_time_domain_check(self, tmp_path, monkeypatch):
        from ufbwiener import wiener

        seen = []

        def spy(inp, n_samples, seed):
            seen.append(inp)
            return generate_wss(inp, n_samples, seed)

        monkeypatch.setattr(wiener, "generate_wss", spy)
        cfg = write_config(tmp_path, {**TWO_BAND, "input": {"shaping": [1, 0.5]}})
        assert main(["wiener", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert [inp.shaping for inp in seen] == [LaurentPoly.from_causal([1, 0.5])]

    def test_roundoff_above_denominator_is_causal(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FOUR_BAND_D0)
        out = tmp_path / "out"
        assert main(["wiener", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = (out / "residuals.csv").read_text().strip().splitlines()[1:]
        assert max(float(r.split(",")[1]) for r in rows) <= 1e-6

    def test_non_finite_residual_exit_4(self, tmp_path, capsys, monkeypatch):
        from ufbwiener import cli

        def nan_check(*args, **kwargs):
            rep = reconstruction_check(*args, **kwargs)
            rep.identity_residuals[0] = np.nan
            return rep

        monkeypatch.setattr(cli, "reconstruction_check", nan_check)
        cfg = write_config(tmp_path, TWO_BAND)
        out = tmp_path / "out"
        assert main(["wiener", "--config", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err.strip()
        assert err == "error: reconstruction residual is not finite at 1 of 80 grid angles"
        assert not (out / "residuals.csv").exists()


def solve_inputs(name):
    """(bank, input) of a repro preset or of one of the PINNED_BANKS."""
    if name in PRESETS:
        cfg = PRESETS[name]()
        return cfg.fb, cfg.input_model
    bank = PINNED_BANKS[name]
    return FilterBankSpec.from_json_dict(bank), InputPSD.from_json_dict(bank.get("input", {}))


class TestSolveReuse:
    """A solution computes its identity residual only when read, and the
    reconstruction check takes the spectra the solve built."""

    @pytest.mark.parametrize("name", sorted(PRESETS) + sorted(PINNED_BANKS))
    def test_identity_residual_is_lazy(self, monkeypatch, name):
        fb, sx = solve_inputs(name)
        calls = []
        matmul = algebra.PolyMatrix.__matmul__

        def counting(self, other):
            calls.append(1)
            return matmul(self, other)

        monkeypatch.setattr(algebra.PolyMatrix, "__matmul__", counting)
        ws = wiener_solve(fb, sx)
        assert len(calls) == 1  # S_dv @ adj S_vv only
        got = ws.identity_residual
        assert ws.identity_residual == got and len(calls) == 2  # one product, on first read
        # the formula the solve used to evaluate eagerly, on fresh spectra
        lhs = ws.numerators @ analysis_psd(fb, sx)
        rhs = cross_psd(fb, sx).scale(ws.delta)
        res_scale = max(lhs.max_abs_coeff(), rhs.max_abs_coeff(), 1e-300)
        assert got == (lhs - rhs).max_abs_coeff() / res_scale

    @pytest.mark.parametrize("name", ["exp1", "exp2", "two_band"])
    def test_reconstruction_check_reuses_spectra(self, monkeypatch, name):
        fb, sx = solve_inputs(name)
        ws = wiener_solve(fb, sx)

        def forbidden(*args):
            raise AssertionError("S_vv or S_dv rebuilt")

        for module in (spectra, wiener):
            monkeypatch.setattr(module, "analysis_psd", forbidden)
            monkeypatch.setattr(module, "cross_psd", forbidden)
        rep = reconstruction_check(ws, fb, n_samples=2000)
        assert rep.max_identity_residual <= 1e-9 and rep.max_cross_residual <= 1e-9


@pytest.mark.parametrize("command,config", BAD_CONFIGS)
def test_bad_config_exit_2(tmp_path, capsys, command, config):
    # a dict is a config file; a list is the command's own arguments
    if isinstance(config, dict):
        args = ["--config", str(write_config(tmp_path, config))]
    else:
        args = config
    if command != "verify":
        args = [*args, "--out", str(tmp_path / "o")]
    assert main([command, *args]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert not (tmp_path / "o").exists()
    if not isinstance(config, dict):
        return
    bank = config if command == "wiener" else config.get("fb")
    if bank is None:
        assert err[0].endswith("missing field 'fb'")
    elif "filters" not in bank:
        assert err[0].endswith("missing field 'filters'")


@pytest.mark.parametrize("command,config", [
    ("wiener", OVERFLOW_BANK),
    ("adapt", {"fb": OVERFLOW_BANK, "n_iters": 50}),
])
def test_overflowing_bank_exit_2(tmp_path, capsys, command, config):
    # a config error that names the non-finite coefficient, not a singular
    # bank diagnosis, and no numpy overflow warning
    cfg = write_config(tmp_path, config)
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert "overflow" in err[0] and "non-finite coefficient (inf+0j) of z^" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command,config", [
    ("wiener", NONCAUSAL_BANK),
    ("adapt", {"fb": NONCAUSAL_BANK, "n_iters": 50}),
    ("wiener", NONCAUSAL_3X2_BANK),
])
def test_noncausal_solution_exit_4(tmp_path, capsys, command, config):
    cfg = write_config(tmp_path, config)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 4
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "not causal" in err[0]
    if command == "wiener":
        assert captured.out == ""  # no stability verdict for a noncausal filter
    assert not out.exists()  # no wiener.json, residuals.csv or trace, nor the directory


# det E = 1 - 2.5 z^-1 + z^-2 has the roots 2 and 0.5, and delta = det S_vv
# has each twice while the numerators carry it once; both copies are
# classified as cancelled, more roots than a numerator has.
REPEATED_ROOT_BANK = {"M": 2, "filters": [[1], [0, 1, 0, -2.5, 0, 1]]}


@pytest.mark.parametrize("command,config", [
    ("wiener", REPEATED_ROOT_BANK),
    ("adapt", {"fb": REPEATED_ROOT_BANK, "n_iters": 50}),
])
def test_unreducible_solution_exit_4(tmp_path, capsys, command, config):
    cfg = write_config(tmp_path, config)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(r"error: \d+ cancelled roots exceed the degree \d+ "
                        r"of the Wiener filter's delta or a numerator", err[0])
    assert not out.exists()


@pytest.mark.parametrize("command", ["repro", "adapt"])
def test_diverging_run_exit_4(tmp_path, capsys, command):
    # NLMS step 5 diverges: one error line naming the first non-finite
    # iteration, and no trace.csv or metrics.json with NaN in them
    if command == "repro":
        args = ["exp1"]
    else:
        exp1 = {"fb": TWO_BAND, "seed": 20130215, "step": 0.6, "tap_len": 11,
                "n_iters": 2000, "snapshots": [2000]}
        args = ["--config", str(write_config(tmp_path, exp1))]
    out = tmp_path / "o"
    assert main([command, *args, "--step", "5", "--out", str(out)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(r"error: the adaptation diverged: iteration \d+ of 2000 is not finite",
                        err[0])
    assert not out.exists()


class TestAdaptCommand:
    def test_adapt_from_config(self, tmp_path):
        exp = {
            "name": "small",
            "fb": TWO_BAND,
            "seed": 5,
            "algorithm": "nlms",
            "step": 0.6,
            "tap_len": 11,
            "n_iters": 300,
            "snapshots": [100],
        }
        cfg = write_config(tmp_path, exp)
        out = tmp_path / "run"
        assert main(["adapt", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("trace.csv", "taps_final.csv", "taps_iter100.csv",
                     "wiener.json", "metrics.json"):
            assert (out / name).exists()
        lines = (out / "trace.csv").read_text().strip().splitlines()
        assert lines[0].startswith("iteration,squared_error")
        assert len(lines) == 301

    def test_overrides_filter_snapshots(self, tmp_path):
        exp = {"fb": TWO_BAND, "n_iters": 500, "snapshots": [400],
               "tap_len": 5, "step": 0.6}
        cfg = write_config(tmp_path, exp)
        out = tmp_path / "run"
        rc = main(["adapt", "--config", str(cfg), "--out", str(out),
                   "--iters", "50", "--seed", "9"])
        assert rc == 0
        assert (out / "taps_iter50.csv").exists()
        assert not (out / "taps_iter400.csv").exists()

    def test_directory_named_like_an_artifact_refused(self, tmp_path, capsys):
        out = tmp_path / "run"
        (out / "taps_final.csv").mkdir(parents=True)
        cfg = write_config(tmp_path, {"fb": TWO_BAND, "n_iters": 20, "tap_len": 3})
        assert_artifact_directory_refused(capsys, ["adapt", "--config", str(cfg)],
                                          out, "taps_final.csv")

    def test_bad_algorithm_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {"fb": TWO_BAND, "algorithm": "rls"})
        assert main(["adapt", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


class TestReproCommand:
    def test_exp1_short(self, tmp_path, capsys):
        out = tmp_path / "exp1"
        rc = main(["repro", "exp1", "--out", str(out), "--iters", "200"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "steady-state MSE" in text
        assert (out / "taps_iter200.csv").exists()
        header = (out / "taps_iter200.csv").read_text().splitlines()[0]
        assert header == '"a_1,1","a_1,2","a_2,1","a_2,2"'

    def test_force_removes_the_other_run_snapshot_tables(self, tmp_path, capsys):
        out = tmp_path / "e"
        assert main(["repro", "exp1", "--out", str(out)]) == 0
        (out / "notes.txt").write_text("keep")
        (out / "residuals.csv").write_text("keep")
        (out / "taps_iter7.csv").mkdir()  # a directory, not a file of the set
        assert main(["repro", "exp1", "--iters", "150", "--out", str(out), "--force"]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "metrics.json", "notes.txt", "residuals.csv", "taps_final.csv",
            "taps_iter150.csv", "taps_iter7.csv", "trace.csv", "wiener.json"]
        assert (out / "residuals.csv").read_text() == "keep"

    def test_directory_named_like_an_artifact_refused(self, tmp_path, capsys):
        out = tmp_path / "e"
        (out / "trace.csv").mkdir(parents=True)
        assert_artifact_directory_refused(capsys, ["repro", "exp1", "--iters", "50"],
                                          out, "trace.csv")

    def test_lone_snapshot_table_refused_without_force(self, tmp_path, capsys):
        # another run's snapshot table is part of the result directory's set
        out = tmp_path / "e"
        out.mkdir()
        (out / "taps_iter2000.csv").write_text("stale")
        capsys.readouterr()
        assert main(["repro", "exp1", "--iters", "150", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "taps_iter2000.csv" in err and "--force" in err
        assert sorted(p.name for p in out.iterdir()) == ["taps_iter2000.csv"]

    def test_zero_iterations(self, tmp_path):
        # the files an untrained filter leaves: header-only trace, zero
        # taps, the exact solution, and a tap distance of exactly 1
        out = tmp_path / "empty"
        rc = main(["repro", "exp1", "--out", str(out), "--iters", "0"])
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "metrics.json", "taps_final.csv", "trace.csv", "wiener.json"]
        assert (out / "trace.csv").read_bytes() == b"iteration,squared_error,e_0^2,e_1^2\r\n"
        taps = (out / "taps_final.csv").read_bytes()
        assert taps == b'"a_1,1","a_1,2","a_2,1","a_2,2"\r\n' + b"0.0,0.0,0.0,0.0\r\n" * 11
        cfg = apply_overrides(experiment_1(), n_iters=0)
        ws = wiener_solve(cfg.fb, cfg.input_model)
        assert (out / "wiener.json").read_text() == json.dumps(ws.to_json_dict(), indent=2)
        ref_norm = float(np.sqrt(np.sum(np.abs(ws.impulse_responses(11)) ** 2)))
        assert (out / "metrics.json").read_text() == json.dumps({
            "generator": GENERATOR_ID, "seed": cfg.seed, "n_iters": 0,
            "wiener_stable": True, "tap_distance_abs": ref_norm,
            "tap_distance_rel": 1.0}, indent=2)


    @pytest.mark.parametrize("preset", sorted(REPRO_DIGESTS))
    def test_wiener_json_is_reduced(self, tmp_path, preset):
        # every entry's den has the genuine poles as its only roots: the
        # delta roots that cancel against all numerators are divided out
        out = tmp_path / preset
        assert main(["repro", preset, "--out", str(out)]) == 0
        data = json.loads((out / "wiener.json").read_text())
        poles = np.array([complex(re, im) for re, im in data["poles"]])
        assert poles.size > 0
        for row in data["entries"]:
            for entry in row:
                roots = poly_roots(LaurentPoly.from_text(entry["den"]).coeffs)
                assert roots.size == poles.size
                assert np.abs(roots[:, None] - poles[None, :]).min(axis=0).max() <= 1e-9
        if preset == "exp1":
            a00 = RationalTF.from_dict(data["entries"][0][0])
            want = RationalTF(LaurentPoly([2]), LaurentPoly.from_causal([50, -17]))
            assert a00.equals(want, 1e-9)
        digests = {p.name: sha256(p.read_bytes()) for p in out.iterdir()}
        assert digests.pop("wiener.json") == WIENER_DIGESTS[preset]["wiener.json"]
        assert digests == REPRO_DIGESTS[preset]


class TestVerifyCommand:
    def test_quick_passes(self, capsys):
        assert main(["verify", "--quick"]) == 0
        text = capsys.readouterr().out
        assert "all properties passed" in text

    @pytest.mark.parametrize("args", sorted(VERIFY_DIGESTS))
    def test_output_pinned(self, capsys, args):
        assert main(["verify", *args.split()]) == 0
        assert sha256(capsys.readouterr().out.encode()) == VERIFY_DIGESTS[args]

    def test_inject_fault_fails(self, capsys):
        assert main(["verify", "--quick", "--inject-fault"]) == 4
        captured = capsys.readouterr()
        assert "FAIL" in captured.out


def test_parser_built_once(tmp_path, capsys):
    # main reuses one parser; a parse, or a failed one, leaves it unchanged
    from ufbwiener.cli import build_parser

    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["wiener", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "the following arguments are required: --config" in capsys.readouterr().err
    cfg = write_config(tmp_path, TWO_BAND)
    for out in ("a", "b"):
        assert main(["wiener", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
    assert ((tmp_path / "a" / "wiener.json").read_bytes()
            == (tmp_path / "b" / "wiener.json").read_bytes())


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path, TWO_BAND)
    proc = subprocess.run(
        [sys.executable, "-m", "ufbwiener.cli", "wiener",
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "stable" in proc.stdout
