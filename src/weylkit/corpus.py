"""Standard desk-scale examples used throughout the tests and the CLI.

Each entry bundles a groupoid with the subgroupoid, cocycle and grading that
make it a hypothesis-checker input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .cocycle import TwoCocycle
from .groupoid import FiniteGroupoid, Grading, build_groupoid
from .semidirect import SemidirectSpec, build_semidirect, gen_rotation


@dataclass
class CorpusEntry:
    name: str
    G: FiniteGroupoid
    S: frozenset
    omega: TwoCocycle
    c: Grading
    spec: Optional[SemidirectSpec] = None


def rotation(n: int, p: int) -> CorpusEntry:
    """Zn x Zn with the rotation cocycle theta = p/n; S = Zn x {0}."""
    spec = gen_rotation(n, p)
    G, omega, S, c = build_semidirect(spec)
    return CorpusEntry(spec.name, G, S, omega, c, spec)


def z2z2(twisted: bool = True) -> CorpusEntry:
    """Z2 x Z2; the twisted flavour carries the Pauli cocycle."""
    entry = rotation(2, 1 if twisted else 0)
    entry.name = "pauli" if twisted else "z2z2"
    return entry


def s3(grade_by_sign: bool = True) -> CorpusEntry:
    """S3 as Z3 x| Z2 (inversion action); S = A3 = Z3 x {0}."""
    spec = SemidirectSpec(
        name="s3",
        h_orders=(3,),
        k_orders=(2,),
        beta=lambda k, h: h if k[0] == 0 else ((-h[0]) % 3,),
    )
    G, omega, S, c = build_semidirect(spec)
    if not grade_by_sign:
        c = Grading(group=(1,), values={g: (0,) for g in G.arrows})
    return CorpusEntry("s3" if grade_by_sign else "s3-ungraded", G, S, omega, c, spec)


def d4() -> CorpusEntry:
    """D4 as Z4 x| Z2 (inversion action); S = the rotation subgroup."""
    spec = SemidirectSpec(
        name="d4",
        h_orders=(4,),
        k_orders=(2,),
        beta=lambda k, h: h if k[0] == 0 else ((-h[0]) % 4,),
    )
    G, omega, S, c = build_semidirect(spec)
    return CorpusEntry("d4", G, S, omega, c, spec)


_Q8_MUL = {}


def _q8_table():
    if _Q8_MUL:
        return _Q8_MUL
    # quaternion units: i*j = k, j*k = i, k*i = j, squares = -1
    symbols = ["1", "i", "j", "k"]
    prod = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
    }
    for (a, b), (sg, sym) in prod.items():
        for sa, sb in itertools.product((1, -1), (1, -1)):
            _Q8_MUL[(_q8_id(sa, a), _q8_id(sb, b))] = _q8_id(sa * sb * sg, sym)
    assert len(_Q8_MUL) == 64
    return _Q8_MUL


def _q8_id(sign, sym):
    return sym if sign == 1 else f"-{sym}"


def q8() -> CorpusEntry:
    """The quaternion group; S = <i>, grading Z2 with kernel <i>."""
    table = _q8_table()
    ids = sorted({g for g, _ in table})
    arrows = {g: ("1", "1") for g in ids}
    G = build_groupoid(["1"], arrows, lambda a, b: table[(a, b)], name="q8")
    S = frozenset(["1", "-1", "i", "-i"])
    c = Grading(group=(2,), values={g: (0,) if g in S else (1,) for g in ids})
    return CorpusEntry("q8", G, S, trivial_omega(G), c)


def trivial_omega(G: FiniteGroupoid) -> TwoCocycle:
    """The trivial cocycle on G."""
    return TwoCocycle(G, {})


def pair_groupoid(n: int) -> CorpusEntry:
    """The full equivalence relation on n points; S = units, c trivial."""
    units = [f"{a}>{a}" for a in range(n)]
    arrows = {f"{a}>{b}": (f"{b}>{b}", f"{a}>{a}") for a in range(n) for b in range(n)}

    def mul(x, y):
        a, b = x.split(">")
        b2, c = y.split(">")
        assert b == b2
        return f"{a}>{c}"

    G = build_groupoid(units, arrows, mul, name=f"pair({n})")
    c = Grading(group=(1,), values={g: (0,) for g in arrows})
    return CorpusEntry(f"pair({n})", G, frozenset(units), trivial_omega(G), c)


def z2_x_r2() -> CorpusEntry:
    """Direct product of the group bundle Z2 x {2 units} with the pair groupoid R2.

    S is the whole isotropy bundle, graded trivially.
    """
    units = [f"z0:{a}>{a}" for a in range(2)]
    arrows = {
        f"z{z}:{a}>{b}": (f"z0:{b}>{b}", f"z0:{a}>{a}")
        for z in range(2)
        for a in range(2)
        for b in range(2)
    }

    def mul(x, y):
        z1, ab = x.split(":")
        z2, bc = y.split(":")
        a, b = ab.split(">")
        b2, c = bc.split(">")
        assert b == b2
        z = (int(z1[1]) + int(z2[1])) % 2
        return f"z{z}:{a}>{c}"

    G = build_groupoid(units, arrows, mul, name="z2xR2")
    S = frozenset(g for g in arrows if G.src[g] == G.tgt[g])
    c = Grading(group=(1,), values={g: (0,) for g in arrows})
    return CorpusEntry("z2xR2", G, S, trivial_omega(G), c)


BUILDERS = {
    "pauli": lambda: z2z2(True),
    "z2z2": lambda: z2z2(False),
    "s3": s3,
    "s3-ungraded": lambda: s3(grade_by_sign=False),
    "d4": d4,
    "q8": q8,
    "z2xR2": z2_x_r2,
}


def by_name(name: str) -> CorpusEntry:
    if name in BUILDERS:
        return BUILDERS[name]()
    if name.startswith("rotation("):
        inner = name[len("rotation(") : -1]
        n, p = (int(x) for x in inner.split(","))
        return rotation(n, p)
    raise KeyError(name)
