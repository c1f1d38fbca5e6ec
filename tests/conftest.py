import json
import pathlib

import pytest

from klpricer import process
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
