"""Second-order statistics of a uniform filter bank's analysis stage.

Builds the subband PSD matrix and the desired/observed cross-spectral
density from the analysis filters, and runs the time-domain analysis
bank with blocking of the input signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .algebra import LaurentPoly, NonFiniteError, PolyMatrix


@dataclass(frozen=True)
class FilterBankSpec:
    """Analysis stage: L causal FIR filters, common decimation M, delay d.

    Blocking convention for the desired signal: d_i(n) = x(Mn - i - d).
    With v_j(n) = sum_l h_j(l) x(Mn - l) this is the unique blocking for
    which E[d_i(n) v_j*(n-k)] = sum_l h_j*(l) R_xx(Mk + l - i - d),
    i.e. the blocked pair is jointly wide-sense stationary.
    """

    M: int
    filters: tuple[LaurentPoly, ...]
    delay: int = 0

    def __post_init__(self):
        object.__setattr__(self, "filters", tuple(self.filters))
        if self.M < 1:
            raise ValueError("decimation factor M must be >= 1")
        if not self.filters:
            raise ValueError("need at least one analysis filter")
        if self.delay < 0:
            raise ValueError("reconstruction delay must be >= 0")
        for k, h in enumerate(self.filters):
            if not h.is_causal:
                raise ValueError(f"analysis filter {k} is not causal")

    @property
    def L(self) -> int:
        return len(self.filters)

    @property
    def is_maximally_decimated(self) -> bool:
        return self.L == self.M

    def taps(self, j: int) -> np.ndarray:
        """Causal tap vector [h_j(0), h_j(1), ...] of channel j."""
        return self.filters[j].causal_taps()

    def to_json_dict(self) -> dict:
        return {
            "M": self.M,
            "d": self.delay,
            "filters": [[float(c.real) for c in self.taps(j)] for j in range(self.L)],
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "FilterBankSpec":
        filters = tuple(_config_taps(taps, f"analysis filter {k}")
                        for k, taps in enumerate(d["filters"]))
        return cls(M=int(d["M"]), filters=filters, delay=int(d.get("d", 0)))


def _config_taps(taps, what: str) -> LaurentPoly:
    """Causal polynomial of config taps; a non-finite tap is named by `what`."""
    try:
        return LaurentPoly.from_causal(taps)
    except NonFiniteError:
        raise ValueError(f"{what} has a non-finite tap") from None


@dataclass(frozen=True)
class InputPSD:
    """WSS input: white noise of the given variance, colored by a causal
    FIR shaping filter G(z), so S_xx = variance * G * G~.

    The config form is the `input` block: `variance`, optional causal
    `shaping` taps and an optional `kind` ("white" or "shaped") that must
    agree with whether `shaping` is present.
    """

    shaping: LaurentPoly = field(default_factory=LaurentPoly.one)
    variance: float = 1.0
    psd: LaurentPoly = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = self.shaping
        if not g.is_causal:
            raise ValueError("shaping filter is not causal")
        if not 0 < self.variance < np.inf:
            raise ValueError("variance must be positive and finite")
        object.__setattr__(self, "psd", g * g.paraconjugate() * self.variance)

    @classmethod
    def white(cls) -> "InputPSD":
        """Unit-variance white noise."""
        return cls()

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "InputPSD":
        kind = d.get("kind")
        if kind not in (None, "white", "shaped"):
            raise ValueError(f"unknown input kind {kind!r}")
        if kind == "shaped" and "shaping" not in d:
            raise ValueError("shaped input requires a shaping filter")
        if kind == "white" and "shaping" in d:
            raise ValueError("white input takes no shaping filter")
        shaping = _config_taps(d.get("shaping", [1.0]), "shaping filter")
        return cls(shaping=shaping, variance=float(d.get("variance", 1.0)))


def generate_wss(inp: InputPSD, n_samples: int, seed: int) -> np.ndarray:
    """Deterministic WSS Gaussian signal: white noise through the shaping filter."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n_samples) * np.sqrt(inp.variance)
    return np.convolve(inp.shaping.causal_taps().real, x)[:n_samples]


def analysis_psd(fb: FilterBankSpec, sx: InputPSD) -> PolyMatrix:
    """Subband PSD matrix: entry (i,j) = (H_i S_xx H~_j) downsampled by M."""
    tildes = [h.paraconjugate() for h in fb.filters]
    rows = (h * sx.psd for h in fb.filters)  # H_i S_xx, shared by row i
    return PolyMatrix([[(hs * t).downsample(fb.M) for t in tildes] for hs in rows])


def cross_psd(fb: FilterBankSpec, sx: InputPSD) -> PolyMatrix:
    """Desired/observed CSD: entry (i,j) = (z^-(d+i) S_xx H~_j) downsampled by M."""
    tildes = [h.paraconjugate() for h in fb.filters]
    rows = (LaurentPoly.delay(fb.delay + i) * sx.psd for i in range(fb.M))  # z^-(d+i) S_xx
    return PolyMatrix([[(ds * t).downsample(fb.M) for t in tildes] for ds in rows])


def run_analysis(fb: FilterBankSpec, x: Sequence[float]) -> np.ndarray:
    """Filter and decimate: v_j(n) = sum_l h_j(l) x(Mn - l), x(m<0) = 0.

    Returns the blocks as an (n_blocks, L) complex array.
    """
    x = np.asarray(x, dtype=np.complex128)
    n_blocks = len(x) // fb.M
    out = np.zeros((n_blocks, fb.L), dtype=np.complex128)
    if n_blocks == 0:
        return out
    for j in range(fb.L):
        y = np.convolve(fb.taps(j), x)
        out[:, j] = y[np.arange(n_blocks) * fb.M]
    return out


def make_desired(x: Sequence[float], M: int, d: int = 0) -> np.ndarray:
    """Blocked delayed input d_i(n) = x(Mn - i - d), zero before time 0,
    as an (n_blocks, M) complex array."""
    x = np.asarray(x, dtype=np.complex128)
    n_blocks = len(x) // M
    out = np.zeros((n_blocks, M), dtype=np.complex128)
    for i in range(M):
        idx = np.arange(n_blocks) * M - i - d
        valid = idx >= 0
        out[valid, i] = x[idx[valid]]
    return out
