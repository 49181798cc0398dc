import pathlib

import pytest
from hypothesis import settings

from hyperideal import homology

ROOT = pathlib.Path(__file__).resolve().parent.parent

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@pytest.fixture
def repo_root() -> pathlib.Path:
    return ROOT


@pytest.fixture
def in_repo_root(monkeypatch) -> pathlib.Path:
    monkeypatch.chdir(ROOT)
    return ROOT


@pytest.fixture
def closures(monkeypatch) -> list:
    """The generator lists whose faces were listed: every face listing, on
    either homology side and for ``.faces``, goes through ``_closure``."""
    seen = []
    original = homology._closure

    def spy(generators):
        generators = list(generators)
        seen.append(generators)
        return original(generators)

    monkeypatch.setattr(homology, "_closure", spy)
    return seen
