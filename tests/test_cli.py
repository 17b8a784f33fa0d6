import hashlib
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from ufbwiener.algebra import RationalTF, LaurentPoly, poly_roots
from ufbwiener.cli import main
from ufbwiener.harness import GENERATOR_ID, experiment_1
from ufbwiener.spectra import generate_wss
from ufbwiener.wiener import reconstruction_check, wiener_solve

TWO_BAND = {"M": 2, "d": 0, "filters": [[4, 7, 2], [3, -1, -1.5]]}

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
]


def write_config(tmp_path, data, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return p


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
    assert list(out.iterdir()) == []  # no wiener.json, residuals.csv or trace


@pytest.mark.parametrize("command", ["repro", "adapt"])
def test_diverging_run_exit_4(tmp_path, capsys, command):
    # NLMS step 5 diverges: one error line naming the first non-finite
    # iteration, and no trace.csv or metrics.json with NaN in them
    if command == "repro":
        args = ["exp1"]
    else:
        args = ["--config", str(write_config(tmp_path, experiment_1().to_json_dict()))]
    out = tmp_path / "o"
    assert main([command, *args, "--step", "5", "--out", str(out)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(r"error: the adaptation diverged: iteration \d+ of 2000 is not finite",
                        err[0])
    assert list(out.iterdir()) == []


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
        cfg = experiment_1(n_iters=0)
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
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.iterdir() if p.name != "wiener.json"}
        assert digests == REPRO_DIGESTS[preset]


class TestVerifyCommand:
    def test_quick_passes(self, capsys):
        assert main(["verify", "--quick"]) == 0
        text = capsys.readouterr().out
        assert "all properties passed" in text

    def test_inject_fault_fails(self, capsys):
        assert main(["verify", "--quick", "--inject-fault"]) == 4
        captured = capsys.readouterr()
        assert "FAIL" in captured.out


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path, TWO_BAND)
    proc = subprocess.run(
        [sys.executable, "-m", "ufbwiener.cli", "wiener",
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "stable" in proc.stdout
