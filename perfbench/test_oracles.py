"""The benchmark's oracles pass correct outputs and count wrong ones as failed ops."""

import json

import numpy as np

from perfbench import bench, workloads
from ufbwiener import InputPSD, wiener_solve
from ufbwiener.algebra import LaurentPoly


def test_clean_ops_pass(tmp_path):
    for name, build in workloads.WORKLOADS.items():
        wl = build(7, tmp_path / name)
        n = min(len(wl.ops), 7)  # a full cycle, or the first round and more of solve_sweep
        loop = bench.measure(wl.ops, n_ops=n)
        assert loop.failures == [], loop.failures
        assert len(loop.latencies) == n


def test_alias_sign_fault_counts_as_failed_op(tmp_path):
    op, = workloads.verify_suite(3, tmp_path).ops
    theorem1 = op.suites[0]
    theorem1.kwargs = {**theorem1.kwargs, "flip_alias_sign": True}
    loop = bench.measure([op], n_ops=2)
    assert len(loop.failures) == 2
    assert all("theorem" in f.lower() for f in loop.failures), loop.failures


class _PerturbedEntry:
    """Runs a WienerOp, then scales the largest numerator coefficient of A[0][1] in wiener.json."""

    def __init__(self, op, factor):
        self.op, self.factor, self.kind = op, factor, op.kind

    def run(self, k):
        result = self.op.run(k)
        path = self.op.out / "wiener.json"
        data = json.loads(path.read_text())
        num = LaurentPoly.from_text(data["entries"][0][1]["num"])
        coeffs = num.coeffs.copy()
        coeffs[np.abs(coeffs).argmax()] *= self.factor
        data["entries"][0][1]["num"] = LaurentPoly(coeffs, num.lowest_power).to_text()
        path.write_text(json.dumps(data))
        return result

    def check(self, result):
        self.op.check(result)


def test_perturbed_wiener_entry_counts_as_failed_op(tmp_path):
    op = workloads.WienerOp.draw(np.random.default_rng(0), 3, 3, tmp_path)
    assert bench.measure([_PerturbedEntry(op, 1.0)], n_ops=1).failures == []
    loop = bench.measure([_PerturbedEntry(op, 1 + 1e-6)], n_ops=1)
    assert len(loop.failures) == 1
    assert "closed form" in loop.failures[0]


def test_singular_draws_are_rejected():
    rng = np.random.default_rng(1)
    for M in (3, 6):
        fb = workloads.draw_bank(rng, M, M, order_max=M + 1)
        assert workloads.polyphase_conditioning(fb) >= workloads.MIN_CONDITIONING
    # filters shorter than M leave polyphase columns empty: exactly singular
    short = workloads.FilterBankSpec(M=4, filters=tuple(
        LaurentPoly.from_causal(rng.uniform(1, 2, 2)) for _ in range(4)))
    assert workloads.polyphase_conditioning(short) < 1e-12


def test_pole_prediction_matches_solver():
    rng = np.random.default_rng(2)
    for M in (2, 3, 4):
        for _ in range(10):
            fb = workloads.draw_bank(rng, M, M, order_max=M + 1)
            ws = wiener_solve(fb, InputPSD.white())
            radii = workloads.pole_radii(fb)
            assert np.allclose(np.sort(radii), np.sort(np.abs(ws.poles)))
            assert ws.stable == bool(np.all(radii < 1))
