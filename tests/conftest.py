import pathlib
import sys

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


@pytest.fixture
def int_text_limit():
    """``sys.set_int_max_str_digits``, with the interpreter's limit put
    back after the test."""
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)
