import json
import subprocess
import sys

import numpy as np
import pytest

from ufbwiener.algebra import RationalTF, LaurentPoly
from ufbwiener.cli import main
from ufbwiener.wiener import reconstruction_check

TWO_BAND = {"M": 2, "d": 0, "filters": [[4, 7, 2], [3, -1, -1.5]]}


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
        out = tmp_path / "empty"
        rc = main(["repro", "exp1", "--out", str(out), "--iters", "0"])
        assert rc == 0
        lines = (out / "trace.csv").read_text().strip().splitlines()
        assert len(lines) == 1  # header only


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
