"""The three benchmark workloads: seeded instance mixes with known answers.

Each workload is a list of ``Op``s.  An op takes inputs built in set-up,
calls the public weylkit functions and returns a small verdict value that
is compared with the answer known from the mathematics.  Calls go through
the module objects (``reconstruct.reconstruction_iso``, not a name imported
into this file), so the tracer's replacements are seen.

Inputs are built here, in set-up, from the corpus; the ops never call
``corpus``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

from weylkit import algebra, cocycle, corpus, io, reconstruct, semidirect, weyl
from weylkit.cocycle import TwoCocycle
from weylkit.errors import ConventionMismatch, GroupoidError
from weylkit.phases import HALF, Phase

# Fixed trial count for expectation_checks; the trial seed comes from the
# workload seed.
EXPECTATION_TRIALS = 100


@dataclass
class Op:
    """One timed operation: ``run()`` must return ``expected``."""

    key: str
    run: Callable[[], Any]
    expected: Any
    doc_bytes: int = 0


def entry(name: str) -> corpus.CorpusEntry:
    if name.startswith("pair("):
        return corpus.pair_groupoid(int(name[len("pair("):-1]))
    return corpus.by_name(name)


# ---------------------------------------------------------------- roundtrip

def coset_classes(G, S) -> dict:
    """Class id (least member) -> sorted members of each coset g S_{s(g)}."""
    fibre = {u: [a for a in S if G.src[a] == u and G.tgt[a] == u] for u in G.units}
    classes = {}
    for g in G.arrows:
        members = sorted({G.compose[(g, a)] for a in fibre[G.src[g]]})
        classes[members[0]] = members
    return classes


def random_section(e: corpus.CorpusEntry, rng: random.Random) -> dict:
    """A valid section: units for unit classes, any member elsewhere."""
    section = {}
    for cid, members in coset_classes(e.G, e.S).items():
        units = [m for m in members if m in e.G.units]
        section[cid] = units[0] if units else rng.choice(members)
    return section


def roundtrip_op(name: str, e: corpus.CorpusEntry, section, expected) -> Op:
    def run():
        rep = reconstruct.reconstruction_iso(e.G, e.S, e.c, section)
        c_tilde = reconstruct.induced_grading_on_H(rep.dia.pkg, e.c)
        hyp = reconstruct.verify_reconstruction_hypotheses(
            rep.dia, rep.theta, c_tilde, roundtrip=True
        )
        nontrivial = sum(not v.is_trivial for v in rep.theta.values.values())
        k = hyp.witnesses.get("imm_centralizing", (None, None))[1]
        return (rep.sizes, rep.grading_checked, hyp.all_pass(), k,
                hyp.roundtrip_succeeded, nontrivial if section is None else None)

    return Op(f"roundtrip:{name}", run, expected)


ROUNDTRIP_INPUTS = ("z2z2", "d4", "q8", "z2xR2", "pair(6)", "pair(8)",
                    "rotation(4,0)", "rotation(6,0)", "rotation(8,0)")
# d4 and q8 keep the least-id section, under which theta is known: all
# trivial on d4, exactly one nontrivial value on q8.  Both fail the
# sufficient hypotheses at k = 2 while the round trip succeeds.
LEX_SECTION_THETA = {"d4": 0, "q8": 1}


def roundtrip(rng: random.Random) -> list:
    ops = []
    for name in ROUNDTRIP_INPUTS:
        e = entry(name)
        n = len(e.G)
        if name in LEX_SECTION_THETA:
            section = None
            expected = ((n, n), True, False, 2, True, LEX_SECTION_THETA[name])
        else:
            section = random_section(e, rng)
            expected = ((n, n), True, True, None, True, None)
        ops.append(roundtrip_op(name, e, section, expected))
    return ops


# ------------------------------------------------------------------ certify

def certify_op(key: str, doc: str, spec=None) -> Op:
    """PASS path: parse, check, hypotheses, Weyl groupoid, twist, twist check."""
    def run():
        gf = io.parse_groupoid_data(json.loads(doc))
        valid = not cocycle.check_cocycle(gf.G, gf.omega)
        hyp = weyl.check_gamma_cartan_hypotheses(gf.G, gf.omega, gf.c, gf.marked)
        GW, data = weyl.build_weyl_groupoid(gf.G, gf.marked, gf.omega)
        C = weyl.weyl_twist_cocycle(GW, data)
        twist_valid = not cocycle.check_cocycle(GW, C)
        untwisted = None if spec is None else semidirect.verify_untwisting(spec).all_pass()
        return (len(gf.G), valid, hyp.all_pass(), len(GW), twist_valid, untwisted)

    n = len(json.loads(doc)["arrows"])
    return Op(key, run, (n, True, True, n, True, None if spec is None else True),
              len(doc.encode()))


def is_cocycle_violation(G, omega, triple) -> bool:
    """Independent recomputation of d(omega) at one witness triple."""
    g, h, k = triple
    if g == h == k and g in G.units:
        return not omega.omega(g, g).is_zero
    d = (omega.omega(h, k) - omega.omega(G.mul(g, h), k)
         + omega.omega(g, G.mul(h, k)) - omega.omega(g, h))
    return not d.is_zero


def shifted_cocycle_op(key: str, doc: str) -> Op:
    def run():
        gf = io.parse_groupoid_data(json.loads(doc))
        witnesses = cocycle.check_cocycle(gf.G, gf.omega)
        return bool(witnesses) and is_cocycle_violation(gf.G, gf.omega, witnesses[0])

    return Op(key, run, True, len(doc.encode()))


def swapped_compose_op(key: str, doc: str) -> Op:
    def run():
        try:
            io.parse_groupoid_data(json.loads(doc))
        except GroupoidError:
            return "GroupoidError"
        return "parsed"

    return Op(key, run, "GroupoidError", len(doc.encode()))


def small_marked_op(key: str, doc: str) -> Op:
    def run():
        gf = io.parse_groupoid_data(json.loads(doc))
        hyp = weyl.check_gamma_cartan_hypotheses(gf.G, gf.omega, gf.c, gf.marked)
        return (hyp.maximal, "maximal" in hyp.witnesses)

    return Op(key, run, (False, True), len(doc.encode()))


def fail_documents(e: corpus.CorpusEntry, data: dict, rng: random.Random) -> dict:
    """Three seeded mutations of a PASS document, each with a known failure."""
    G = e.G
    non_units = [g for g in G.arrows if g not in G.units]

    shifted = json.loads(json.dumps(data))
    g, h = rng.choice(non_units), rng.choice(non_units)
    old = Phase.parse(shifted["cocycle"].get(f"{g},{h}", "0"))
    shifted["cocycle"][f"{g},{h}"] = str(old + HALF)

    swapped = json.loads(json.dumps(data))
    g = rng.choice(non_units)
    h1, h2 = rng.sample([h for h in non_units if G.src[g] == G.tgt[h]], 2)
    row = swapped["compose"]
    row[f"{g},{h1}"], row[f"{g},{h2}"] = row[f"{g},{h2}"], row[f"{g},{h1}"]

    # the squares of the cyclic marked fibre: a subgroup of index 2
    small = json.loads(json.dumps(data))
    small["marked_subgroupoid"] = sorted({G.mul(a, a) for a in e.S})

    return {name: json.dumps(d) for name, d in
            (("shifted", shifted), ("swapped", swapped), ("index2", small))}


def seeded_p(rng: random.Random, n: int, g: int) -> int:
    """A p in 1..n-1 with gcd(n, p) = g.

    The gcd fixes the shape of the work (block sizes, zero cocycle entries,
    document size); the seed then moves only the phase values, so runs on
    different seeds time the same amount of work.
    """
    return rng.choice([p for p in range(1, n) if math.gcd(n, p) == g])


def certify(rng: random.Random) -> list:
    ops = []
    for n in (12, 16):
        p = seeded_p(rng, n, 1)
        e = corpus.rotation(n, p)
        data = io.emit_groupoid_data(e.G, e.omega, e.c, e.S)
        # verify_untwisting costs 3 s at 144 arrows and 10 s at 256
        spec = e.spec if n == 12 else None
        ops.append(certify_op(f"certify:pass:rotation({n},p)", json.dumps(data), spec))
        if n == 16:
            docs = fail_documents(e, data, rng)
            ops.append(shifted_cocycle_op("certify:fail:cocycle-shift", docs["shifted"]))
            ops.append(swapped_compose_op("certify:fail:compose-swap", docs["swapped"]))
            ops.append(small_marked_op("certify:fail:index2-marked", docs["index2"]))
    return ops


# ------------------------------------------------------------------ algebra

def rotation_blocks(n: int, p: int) -> list:
    g = math.gcd(n, p)
    return [n // g] * (g * g)


def algebra_ops(name: str, e: corpus.CorpusEntry, blocks: list, trial_seed: int) -> list:
    GW, data = weyl.build_weyl_groupoid(e.G, e.S, e.omega)
    C = weyl.weyl_twist_cocycle(GW, data)
    blocks = sorted(blocks)

    def compare():
        report = algebra.compare_algebras(e.G, e.omega, GW, C)
        return report.passed, list(report.blocks[0])

    return [
        Op(f"algebra:wedderburn:{name}",
           lambda: algebra.wedderburn_blocks(e.G, e.omega)[0], blocks),
        Op(f"algebra:compare:{name}", compare, (True, blocks)),
        Op(f"algebra:commutant:{name}",
           lambda: algebra.commutant_check(e.G, e.omega, e.c, e.S).maximal_abelian, True),
        Op(f"algebra:expectation:{name}",
           lambda: algebra.expectation_checks(
               e.G, e.omega, e.S, trials=EXPECTATION_TRIALS, seed=trial_seed).all_pass(),
           True),
    ]


def corrupted_involution_op() -> Op:
    z2 = entry("z2z2")
    bad = TwoCocycle(z2.G, {})
    bad.values[("1|0", "1|0")] = HALF

    def run():
        try:
            algebra.expectation_checks(z2.G, bad, z2.S, trials=20, seed=0)
        except ConventionMismatch:
            return "ConventionMismatch"
        return "passed"

    return Op("algebra:fail:corrupted-involution", run, "ConventionMismatch")


def algebra_workload(rng: random.Random) -> list:
    trial_seed = rng.randrange(2**31)
    p6 = seeded_p(rng, 6, 2)   # four 3x3 blocks
    p8 = seeded_p(rng, 8, 1)   # one 8x8 block
    mix = [  # (op key, corpus name, Wedderburn block sizes)
        ("pauli", "pauli", [2]),
        ("s3", "s3", [1, 1, 2]),
        ("d4", "d4", [1, 1, 1, 1, 2]),
        ("q8", "q8", [1, 1, 1, 1, 2]),
        ("rotation(4,1)", "rotation(4,1)", rotation_blocks(4, 1)),
        ("rotation(6,p)", f"rotation(6,{p6})", rotation_blocks(6, p6)),
        ("pair(6)", "pair(6)", [6]),
        ("rotation(8,p)", f"rotation(8,{p8})", rotation_blocks(8, p8)),
    ]
    ops = []
    for key, name, blocks in mix:
        ops += algebra_ops(key, entry(name), blocks, trial_seed)
    d4 = entry("d4")
    ops.append(Op("algebra:fail:d4-small-S",
                  lambda: algebra.commutant_check(
                      d4.G, d4.omega, d4.c, frozenset(["0|0", "2|0"])).maximal_abelian,
                  False))
    ops.append(corrupted_involution_op())
    return ops


BUILDERS = {"roundtrip": roundtrip, "certify": certify, "algebra": algebra_workload}


def build(workload: str, seed: int) -> list:
    """The workload's op list; every seeded choice comes from ``seed``."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))
