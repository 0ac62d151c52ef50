"""The action-package axioms on index arrays against the loop oracle.

``verify_action_package`` checks each clause as gathers over the package's
four arrays; ``oracles.verify_action_package_loop`` calls the same arrays
through maps over ids, one instance at a time.  Both must give the same
clauses, witnesses and instance counts, on healthy packages and under
every mutation of ``mutations.py`` that can be built.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylkit
from weylkit import corpus
from weylkit.dual import bundle_from_subgroupoid
from weylkit.reconstruct import derive_weyl_actions, verify_action_package

from mutations import MUTATIONS
from oracles import bundle_package, verify_action_package_loop

INPUTS = (
    list(corpus.BUILDERS)
    + [f"pair({n})" for n in range(3, 7)]
    + [f"rotation({n},{p})" for n in range(1, 9) for p in (0, 1) if p < n]
    + ["rotation(12,0)", "bundle(z2xR2)"]       # 12 characters a fibre: "u#10" sorts before "u#2"
)


def package(name):
    """The Weyl-derived package of a corpus input with its own cocycle, or the bundle package of z2xR2's S."""
    if name == "bundle(z2xR2)":
        e = corpus.by_name("z2xR2")
        return bundle_package(bundle_from_subgroupoid(e.G, e.S))
    e = corpus.pair_groupoid(int(name[5:-1])) if name.startswith("pair(") else corpus.by_name(name)
    return derive_weyl_actions(e.G, e.S, e.omega)


def mutants(pkg):
    """The package and each of its mutations that can be built.

    Some mutations need an element of order above 2 with a swap partner or
    a non-unit arrow (their ``next`` or ``min`` then finds none), and one
    reads the Weyl data.
    """
    yield "healthy", pkg
    for name, mutate in MUTATIONS.items():
        if name == "left_char_dependent" and pkg.weyl is None:
            continue
        try:
            yield name, mutate(pkg)
        except (StopIteration, ValueError):
            continue


def verdicts(report):
    return report.clauses, report.witnesses, report.instances


@pytest.mark.parametrize("name", INPUTS)
def test_array_clauses_match_the_loop_oracle(name):
    built = 0
    for mutation, pkg in mutants(package(name)):
        assert verdicts(verify_action_package(pkg)) == verdicts(verify_action_package_loop(pkg)), mutation
        built += 1
    assert built >= 6, built


O_SCRIPT = """
import sys
sys.path.insert(0, {tests!r})
from test_action_arrays import mutants, package, verdicts
from weylkit.reconstruct import verify_action_package
from oracles import verify_action_package_loop
for name in ("q8", "z2xR2", "pair(3)", "rotation(4,1)", "bundle(z2xR2)"):
    for mutation, pkg in mutants(package(name)):
        a, b = verify_action_package(pkg), verify_action_package_loop(pkg)
        print(name, mutation, verdicts(a) == verdicts(b), a.all_pass())
"""


def test_array_clauses_match_the_loop_oracle_under_python_O():
    # neither check rests on assert statements, so both still run under python -O
    src = str(Path(weylkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = O_SCRIPT.format(tests=str(Path(__file__).parent))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert len(out) >= 30 and all(line.split()[2] == "True" for line in out), out
    assert [line.split()[3] for line in out if line.split()[1] == "healthy"] == ["True"] * 5, out


def test_rotation_32_passes_every_clause():
    # 1,024 arrows, one fibre of 32 characters
    e = corpus.rotation(32, 0)
    report = verify_action_package(derive_weyl_actions(e.G, e.S, e.omega))
    assert report.all_pass(), report.witnesses
    assert report.instances["actions_commute"] == 1024 * 32 * 32
