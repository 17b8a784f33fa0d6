"""The README's library example and the package's public names."""

import re
from pathlib import Path

import numpy as np

import ufbwiener

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    # the values its comments state
    trace, ws = scope["trace"], scope["ws"]
    assert np.isclose(ws.reduced()[0, 0](2.0), 2 / (50 - 17 / 2.0), rtol=1e-12)
    assert np.allclose(ws.poles, [0.34]) and ws.stable
    assert scope["v"].shape == (2002, 2) and scope["d"].shape == (2002, 2)
    assert trace.squared_error[-1] <= 1e-4 * trace.squared_error[:10].mean()
    assert np.abs(trace.snapshots[2000] - ws.impulse_responses(11)).max() <= 1e-3


def test_all_names_resolve():
    assert len(ufbwiener.__all__) == len(set(ufbwiener.__all__))
    for name in ufbwiener.__all__:
        assert getattr(ufbwiener, name) is not None, name
