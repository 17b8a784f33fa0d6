"""Second-order statistics of a uniform filter bank's analysis stage.

Builds the blocked spectra S_vv, S_dv and S_dd from the analysis filters
and the input PSD, runs the time-domain analysis bank, and owns both
directions of the blocking d_i(n) = x(Mn - i - d) of the input signal.
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
        """Config form: a real tap as a number, a complex one as [re, im]."""
        return {
            "M": int(self.M),
            "d": int(self.delay),
            "filters": [[[float(c.real), float(c.imag)] if c.imag else float(c.real)
                         for c in self.taps(j)] for j in range(self.L)],
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "FilterBankSpec":
        filters = tuple(_config_taps(taps, f"analysis filter {k}")
                        for k, taps in enumerate(d["filters"]))
        return cls(M=_config_int(d["M"], "M"), filters=filters,
                   delay=_config_int(d.get("d", 0), "d"))


def _config_int(value, what: str) -> int:
    """A config's integer field: a JSON integer, never 2.9, "2" or true."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def _config_taps(taps, what: str) -> LaurentPoly:
    """Causal polynomial of config taps, each a number or a complex tap as
    [re, im]; a malformed or non-finite tap is named by `what`."""
    try:
        return LaurentPoly.from_causal([_config_tap(t, what) for t in taps])
    except NonFiniteError:
        raise ValueError(f"{what} has a non-finite tap") from None


def _config_tap(t, what: str):
    if not isinstance(t, list):
        return t
    if len(t) != 2 or not all(isinstance(p, (int, float)) for p in t):
        raise ValueError(f"{what} has a malformed tap {t!r}; a complex tap is [re, im]")
    return complex(*t)


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
        if shaping.coeffs.imag.any():
            raise ValueError("shaping filter has a complex tap; the input noise is real")
        return cls(shaping=shaping, variance=float(d.get("variance", 1.0)))


def generate_wss(inp: InputPSD, n_samples: int, seed: int) -> np.ndarray:
    """Deterministic WSS Gaussian signal: white noise through the shaping filter."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n_samples) * np.sqrt(inp.variance)
    return np.convolve(inp.shaping.causal_taps().real, x)[:n_samples]


def _blocked(rows, cols: Sequence[LaurentPoly], M: int) -> PolyMatrix:
    """Blocked spectrum: entry (i,j) = (rows[i] cols[j]~) downsampled by M."""
    tildes = [c.paraconjugate() for c in cols]
    return PolyMatrix([[(r * t).downsample(M) for t in tildes] for r in rows])


def analysis_psd(fb: FilterBankSpec, sx: InputPSD) -> PolyMatrix:
    """Subband PSD matrix S_vv: entry (i,j) = (H_i S_xx H~_j) downsampled by M."""
    return _blocked((h * sx.psd for h in fb.filters), fb.filters, fb.M)


def cross_psd(fb: FilterBankSpec, sx: InputPSD) -> PolyMatrix:
    """Desired/observed CSD S_dv: entry (i,j) = (z^-(d+i) S_xx H~_j) downsampled by M."""
    rows = (LaurentPoly.delay(fb.delay + i) * sx.psd for i in range(fb.M))
    return _blocked(rows, fb.filters, fb.M)


def desired_psd(fb: FilterBankSpec, sx: InputPSD) -> PolyMatrix:
    """Blocked PSD S_dd of the delayed input: entry (i,j) = (S_xx z^(j-i)) down M."""
    return PolyMatrix([[sx.psd.shift(j - i).downsample(fb.M) for j in range(fb.M)]
                       for i in range(fb.M)])


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


def _block_map(n_blocks: int, M: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The blocking d_i(n) = x(Mn - i - d): the (n_blocks, M) mask of the
    (n, i) at or after time 0, and their sample indices Mn - i - d in row order."""
    idx = np.arange(n_blocks)[:, None] * M - np.arange(M) - d
    return idx >= 0, idx[idx >= 0]


def make_desired(x: Sequence[float], M: int, d: int = 0) -> np.ndarray:
    """Blocked delayed input d_i(n) = x(Mn - i - d), zero before time 0,
    as an (n_blocks, M) complex array."""
    x = np.asarray(x, dtype=np.complex128)
    out = np.zeros((len(x) // M, M), dtype=np.complex128)
    valid, idx = _block_map(len(x) // M, M, d)
    out[valid] = x[idx]
    return out


def unblock(y: np.ndarray, M: int, d: int) -> np.ndarray:
    """Invert the blocking d_i(n) = x(Mn - i - d): scatter y back to a scalar signal."""
    out = np.zeros(max(_xhat_length(M, d, M * y.shape[0]), 0), dtype=np.complex128)
    valid, idx = _block_map(y.shape[0], M, d)
    out[idx] = y[valid]  # the last block's component 0 writes out's last sample
    return out


def _xhat_length(M: int, d: int, n_samples: int) -> int:
    """Length of x_hat from n_samples of input: the last block writes
    sample M*(n_blocks - 1) - d (block n_blocks - 1, component i = 0)."""
    return M * (n_samples // M - 1) - d + 1


def _min_samples(M: int, d: int) -> int:
    """Fewest input samples whose x_hat has a sample: M*(1 + ceil(d/M))."""
    return M * (1 + -(-d // M))
