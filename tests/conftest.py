"""Shared fixtures: corpus entries and derived pipeline stages, cached per session."""

import os
import sys

import pytest

# One BLAS thread, as in perfbench/run.py: criterion 08 bounds each
# compare_algebras call by wall time, and BLAS threads contend with any
# other process on the machine.  OpenBLAS reads the setting once, when
# numpy loads, so it must be set before anything imports numpy.
if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin BLAS to one thread")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from weylkit import corpus  # noqa: E402
from weylkit.reconstruct import derive_weyl_actions, diamond_action  # noqa: E402


@pytest.fixture(scope="session")
def entry():
    """Cached corpus lookup: entry('q8') etc."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = corpus.by_name(name)
        return cache[name]

    return get


@pytest.fixture(scope="session")
def derived(entry):
    """Cached Weyl-derived ActionPackage per corpus name (with that entry's cocycle)."""
    cache = {}

    def get(name):
        if name not in cache:
            e = entry(name)
            cache[name] = derive_weyl_actions(e.G, e.S, e.omega)
        return cache[name]

    return get


@pytest.fixture(scope="session")
def diamond(derived):
    """Cached DiamondData per trivial-cocycle corpus name."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = diamond_action(derived(name))
        return cache[name]

    return get


@pytest.fixture()
def colliding():
    """The pair groupoid on units q&r and r, with S the units.

    Its Weyl arrows ('p', 'q&r#0') and ('p&q', 'r#0') are both spelled
    p&q&r#0 in a file.
    """
    units = ["q&r", "r"]
    ends = {"q&r": ("q&r", "q&r"), "r": ("r", "r"), "p": ("q&r", "r"), "p&q": ("r", "q&r")}
    compose = {
        "q&r,q&r": "q&r", "r,r": "r", "r,p": "p", "p,q&r": "p",
        "q&r,p&q": "p&q", "p&q,r": "p&q", "p,p&q": "r", "p&q,p": "q&r",
    }
    return {
        "name": "collide",
        "units": units,
        "arrows": [{"id": g, "source": s, "target": t} for g, (s, t) in ends.items()],
        "compose": compose,
        "marked_subgroupoid": units,
    }
