"""The immediately-centralizing checks on index tables.

``check_immediately_centralizing`` (the Gamma-Cartan hypotheses) and
``check_imm_centralizing_action`` (the sufficient hypotheses of the
reconstruction) build powers by gathers on the compose table and on the
character product tables; their loop oracles in ``oracles.py`` cache each
element's powers in a dict and test one arrow at a time.  Both must give
the same (ok, witness).  Neither check multiplies through
``FiniteGroupoid.mul`` or a ``GroupBundle``, and no round trip builds the
class dicts of ``class_table``.
"""

import sys

import numpy as np
import pytest

import weylkit
from weylkit import corpus, groupoid
from weylkit.cocycle import is_maximal_symmetric_abelian
from weylkit.dual import CharacterBundle
from weylkit.groupoid import FiniteGroupoid
from weylkit.reconstruct import (
    check_imm_centralizing_action,
    derive_weyl_actions,
    diamond_action,
    induced_grading_on_H,
    reconstruction_iso,
    verify_reconstruction_hypotheses,
)
from weylkit.semidirect import verify_untwisting
from weylkit.weyl import (
    action_ids,
    build_weyl_groupoid,
    check_gamma_cartan_hypotheses,
    check_immediately_centralizing,
    iso_kernel_members,
    weyl_twist_cocycle,
)

from oracles import check_imm_centralizing_action_loop, check_immediately_centralizing_loop

PAIRS = [f"pair({n})" for n in range(2, 9)]
ROTATIONS = [f"rotation({n},{p})" for n in range(1, 9) for p in range(n)]


def entry(name):
    return corpus.pair_groupoid(int(name[5:-1])) if name.startswith("pair(") else corpus.by_name(name)


def markings(e):
    """The (S, T) pairs: S in the zero-graded isotropy, S in all isotropy, and two isotropy arrows in it."""
    G = e.G
    iso = frozenset(g for g in G.arrows if G.src[g] == G.tgt[g])
    # the last marking need not be closed or normal
    return [(e.S, iso_kernel_members(G, e.c)), (e.S, iso), (frozenset(sorted(iso)[:2]), iso)]


@pytest.mark.parametrize("name", list(corpus.BUILDERS) + PAIRS + ROTATIONS)
def test_immediately_centralizing_matches_the_loop(name):
    e = entry(name)
    for S, T in markings(e):
        assert check_immediately_centralizing(e.G, S, T) == check_immediately_centralizing_loop(e.G, S, T)


def test_immediately_centralizing_witnesses():
    """The first failing t in index order, at its least bound, also for a T that holds no isotropy of S."""
    q8, d4 = corpus.q8(), corpus.d4()
    for e in (q8, d4):
        everything = frozenset(e.G.arrows)
        assert check_immediately_centralizing(e.G, e.S, everything) == (False, (min(everything - e.S), 2))
        assert check_immediately_centralizing(e.G, e.S, e.S) == (True, None)
    pair = corpus.pair_groupoid(3)
    assert check_immediately_centralizing(pair.G, pair.S, pair.G.arrows) == (True, None)
    assert check_immediately_centralizing(pair.G, frozenset(), pair.G.arrows) == (True, None)


def diamonds():
    names = [n for n in corpus.BUILDERS if corpus.by_name(n).omega.is_trivial()]
    names += [f"pair({n})" for n in range(2, 7)] + [f"rotation({n},0)" for n in range(1, 9)]
    for name in names:
        e = entry(name)
        yield name, diamond_action(derive_weyl_actions(e.G, e.S))


def action_oracle(dia, image):
    K = dia.That.to_bundle()
    return check_imm_centralizing_action_loop(dia.HT, K, action_ids(dia.HT, dia.That, image, dia.x_unit), dia.x_unit)


def shuffled(dia, rng):
    """``dia.image`` with each isotropy arrow's row a random permutation of its fibre that fixes row 0."""
    image = dia.image.copy()
    for c, g in enumerate(dia.HT.arrows):
        if dia.HT.src[g] == dia.HT.tgt[g]:
            k = int((image[c] >= 0).sum())
            image[c, 1:k] = 1 + rng.permutation(k - 1)
    return image


def test_imm_centralizing_action_matches_the_loop():
    rng, outcomes = np.random.default_rng(24), set()
    for name, dia in diamonds():
        new = check_imm_centralizing_action(dia.HT, dia.That, dia.image, dia.x_unit)
        assert new == action_oracle(dia, dia.image), name
        for _ in range(4):
            image = shuffled(dia, rng)
            new = check_imm_centralizing_action(dia.HT, dia.That, image, dia.x_unit)
            assert new == action_oracle(dia, image), name
            outcomes.add(new[1] and new[1][1])
    # the shuffles fail at several bounds, and some pass
    assert {None, 2, 3} <= outcomes, outcomes


def calls_under(roots, run) -> set:
    """The code objects called, at any depth, below a call of a function whose code is in ``roots``."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            up = frame.f_back
            while up is not None and up.f_code not in roots:
                up = up.f_back
            if up is not None:
                seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def test_the_checks_multiply_through_no_groupoid_or_bundle_and_build_no_action_dict():
    reps = []

    def run():
        reps.clear()
        for name in ("rotation(6,0)", "pair(5)", "d4"):
            e = entry(name)
            rep = reconstruction_iso(e.G, e.S, e.c)
            hyp = verify_reconstruction_hypotheses(rep.dia, rep.theta, induced_grading_on_H(rep.dia.pkg, e.c))
            check_gamma_cartan_hypotheses(e.G, e.omega, e.c, e.S)
            check_immediately_centralizing(e.G, e.S, e.G.arrows)
            reps.append((rep, hyp))

    checks = {check_immediately_centralizing.__code__, check_imm_centralizing_action.__code__}
    seen = calls_under(checks, run)
    assert seen, "the profile saw no call under the checks"
    mult = {FiniteGroupoid.mul.__code__, FiniteGroupoid.mul_all.__code__,
            reps[0][0].dia.That.to_bundle().mult.__code__, reps[0][0].dia.pkg.T.mult.__code__}
    assert not seen & mult
    built = {action_ids.__code__, CharacterBundle.to_bundle.__code__}
    assert not calls_under({verify_reconstruction_hypotheses.__code__}, run) & built
    assert [hyp.witnesses.get("imm_centralizing") for _, hyp in reps] == [None, None, (("0|1", "0|0#0"), 2)]

    # the profile does see such calls, below the loop oracles
    d4 = corpus.d4()
    oracles = {check_immediately_centralizing_loop.__code__, check_imm_centralizing_action_loop.__code__}
    dia = reps[2][0].dia
    seen = calls_under(oracles, lambda: (check_immediately_centralizing_loop(d4.G, d4.S, d4.G.arrows),
                                         action_oracle(dia, dia.image)))
    assert FiniteGroupoid.mul.__code__ in seen and dia.That.to_bundle().mult.__code__ in seen


def test_no_round_trip_builds_the_class_dicts(monkeypatch):
    def refuse(class_map):
        raise AssertionError("class_table called")

    for name, module in list(sys.modules.items()):
        if name.startswith("weylkit") and hasattr(module, "class_table"):
            monkeypatch.setattr(module, "class_table", refuse)
    with pytest.raises(AssertionError):
        groupoid.class_table({})
    for name in ("rotation(6,0)", "pair(4)", "d4", "q8", "z2xR2"):
        e = entry(name)
        rep = reconstruction_iso(e.G, e.S, e.c)
        c_tilde = induced_grading_on_H(rep.dia.pkg, e.c)
        verify_reconstruction_hypotheses(rep.dia, rep.theta, c_tilde)
        GW, data = build_weyl_groupoid(e.G, e.S, e.omega)
        weyl_twist_cocycle(GW, data)
    assert verify_untwisting(corpus.rotation(4, 1).spec).all_pass()
    assert weylkit.groupoid.class_table is refuse


@pytest.mark.parametrize("name", ["pauli", "s3", "s3-ungraded", "d4", "q8", "z2xR2", "rotation(4,1)", "pair(4)"])
def test_one_hypothesis_check_validates_its_grading_once(monkeypatch, name):
    e = entry(name)
    G = e.G
    center = frozenset(g for g in e.S if all(G.mul(g, h) == G.mul(h, g) for h in G.arrows
                                             if G.src[h] == G.tgt[h] == G.src[g]))
    for S in (e.S, center | frozenset(G.units), frozenset(G.arrows)):
        calls = []
        validate = groupoid.validate_grading
        monkeypatch.setattr(groupoid, "validate_grading", lambda G, c: calls.append(c) or validate(G, c))
        report = check_gamma_cartan_hypotheses(G, e.omega, e.c, S)
        monkeypatch.undo()
        assert len(calls) == 1
        # the verdict and witness of maximality are those of the public check
        if report.contained_in_iso_kernel:
            ext = is_maximal_symmetric_abelian(G, e.omega, e.c, S)
            assert report.maximal == (ext is None) and report.witnesses.get("maximal") == ext
        else:
            assert not report.maximal and report.witnesses["maximal"] == ("n/a",)
