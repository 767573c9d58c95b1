import importlib
import pathlib
import sys

import pytest

from differential import ENGINES, PACKINGS

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
if SRC not in sys.path:
    # last, so that PYTHONPATH=<other tree>/src tests that tree's code
    sys.path.append(SRC)


@pytest.fixture(params=list(PACKINGS.values()), ids=list(PACKINGS))
def pack_from(request, monkeypatch):
    """Fold with every step packed, with the module's cutoff, or with none."""
    if request.param is not None:
        # the attribute clutterkit.blocker is the function, not the module
        blocker_module = importlib.import_module("clutterkit.blocker")
        monkeypatch.setattr(blocker_module, "PACK_FROM", request.param)


@pytest.fixture(params=list(ENGINES.values()), ids=list(ENGINES))
def engine(request, monkeypatch):
    """Dualize by the fold alone, or with the module's rule, under which the
    subset lattice answers wherever it may: on at most LATTICE_UP_TO
    vertices, with a budget of at least C(n, n // 2)."""
    blocker_module = importlib.import_module("clutterkit.blocker")
    for name, value in request.param.items():
        monkeypatch.setattr(blocker_module, name, value)
