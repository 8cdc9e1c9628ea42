"""Run every test here against the afkit modules that this directory imported.

``bench/run.py``'s ``import_afkit`` drops ``afkit.*`` from ``sys.modules`` and
imports the package afresh, and ``bench/tests`` calls it.  The CLI's commands
import their modules when they run, so after such a reload a ``main``
imported here would mix its own classes with the fresh modules' classes.
Each test therefore runs with the modules seen at the end of collection put
back in ``sys.modules``; the entries it replaced return after the test.
"""

import sys

import pytest

COLLECTED = {}


def pytest_collection_finish(session):
    COLLECTED.update((name, m) for name, m in sys.modules.items() if name.split(".")[0] == "afkit")


@pytest.fixture(autouse=True)
def collected_afkit(monkeypatch):
    for name, module in COLLECTED.items():
        monkeypatch.setitem(sys.modules, name, module)
