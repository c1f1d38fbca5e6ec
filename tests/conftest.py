import json
import pathlib

import numpy as np
import pytest

from klpricer import process
from klpricer.klcore import _check_unit_interval
from klpricer.process import GbmParams
from klpricer.pricing import AsianPayoffSpec

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden.json"


@pytest.fixture(scope="session")
def golden():
    """Seed-pinned reference run (regenerated by scripts/regenerate_golden.py)."""
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="session")
def golden_market(golden):
    return GbmParams(**golden["market"])


@pytest.fixture(scope="session")
def golden_spec(golden):
    return AsianPayoffSpec(strike=golden["strike"], monitoring_count=golden["monitoring_count"])


@pytest.fixture
def draws(monkeypatch):
    """Keys of the streams opened, through ``process.stream`` or ``process.streams``.

    Both are replaced by spies that record their key and open nothing, so a
    test can check that a request is rejected before anything is drawn.
    """
    opened = []
    monkeypatch.setattr(process, "stream", lambda seed, *key: opened.append((seed, *key)))
    monkeypatch.setattr(process, "streams",
                        lambda seed, tag, indices: opened.append((seed, tag, indices)))
    return opened


def scaled_cells(k, cells):
    """``process.cell_envelopes`` with its bounds and their mean scaled by k: an injected envelope fault."""

    def scaled(*args):
        bound, mean, edges = cells(*args)
        return k * bound, k * mean, edges

    return scaled


def sine_modes(k, t):
    """Mode functions (sqrt(2)/pi) sin(k pi t)/k, one row per mode index in the float array k.

    Written out here, not taken from the library, so that the reference
    forms below do not rest on the code they check.
    """
    return np.sqrt(2.0) / np.pi * np.sin(np.pi * np.outer(k, t)) / k[:, None]


def wiener_eval(a, t):
    """Direct sine-series evaluation of smoothed paths at t in [0, 1].

    This is the reference form a0 t + (sqrt(2)/pi) sum_k (a_k/k) sin(k pi t),
    a matrix product on ``sine_modes`` (BLAS may split its sums), against
    which the library's contraction is checked.  ``a`` is one coefficient row (a_0, ..., a_L) or a
    2-D array of such rows; the result has shape a.shape[:-1] + t.shape.
    """
    t = _check_unit_interval(t)
    a = np.asarray(a, dtype=float)
    tt = t.ravel()
    k = np.arange(1, a.shape[-1], dtype=float)
    out = np.multiply.outer(a[..., 0], tt) + a[..., 1:] @ sine_modes(k, tt)
    out = out.reshape(a.shape[:-1] + t.shape)
    return float(out) if out.ndim == 0 else out
