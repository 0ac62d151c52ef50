"""JSON interchange format for groupoids, cocycles, gradings and markings.

The format is a single JSON object: name, units, arrows (id/source/target
records), a compose table keyed by "g,h", an optional cocycle table of
phase strings "a/b", an optional grading, and an optional marked
subgroupoid.  Schema problems raise SchemaError with a path to the
offending entry; mathematical problems surface from
:func:`~weylkit.groupoid.validate_arrays`, which runs on the index arrays
the tables are parsed into.

Derived groupoids have pair ids, (class, character); files spell a pair
"a&b" (see :func:`label`), and only this module does so.

Files are written from the index tables: the compose table from
``comp_matrix()``, the cocycle table from the nonzero entries of the
cocycle's numerator table, which is the cocycle.  Writing spells neither
read-only view, ``G.compose`` or ``omega.values``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cocycle import TwoCocycle, check_defined_on
from .errors import SchemaError, UndefinedPair
from .groupoid import FiniteGroupoid, Grading, arrow_index, arrow_indices, validate_arrays
from .phases import Phase


@dataclass
class GroupoidFile:
    """Parsed and validated contents of a groupoid file."""

    name: str
    G: FiniteGroupoid
    omega: TwoCocycle
    c: Optional[Grading]
    marked: Optional[frozenset]


def _expect(cond, path, message):
    if not cond:
        raise SchemaError(f"{path}: {message}")


def _is_int(x) -> bool:
    """An integer, and not a boolean (JSON true/false decode to bools, which are ints)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _split_pair(key, path):
    parts = key.split(",")
    _expect(len(parts) == 2, path, f"key {key!r} is not of the form 'g,h'")
    return parts[0], parts[1]


def _pair_entries(raw, table: str, message: str, parse: Optional[Callable] = None):
    """The entries of a JSON object keyed by "g,h": (ids g0, h0, g1, h1, ..., values, parsed).

    Values must be strings.  ``parsed`` maps each distinct value, in order
    of first use, to ``parse(value)``, or is None without ``parse``.  A bad
    key or value raises SchemaError with the path of the first entry at
    fault.
    """
    _expect(isinstance(raw, dict), table, "must be an object")
    keys, vals = list(raw), list(raw.values())
    try:
        if not (set(map(str.count, keys, itertools.repeat(","))) <= {1}
                and all(map(isinstance, vals, itertools.repeat(str)))):
            raise SchemaError(table)
        parsed = None if parse is None else {val: parse(val) for val in dict.fromkeys(vals)}
    except SchemaError:
        for key, val in raw.items():      # name the first entry at fault
            path = f"{table}/{key}"
            _split_pair(key, path)
            _expect(isinstance(val, str), path, message)
            try:
                if parse is not None:
                    parse(val)
            except SchemaError as exc:
                raise SchemaError(f"{path}: {exc}") from exc
        raise
    # every key has one comma, so the joined keys split back into pairs
    return ",".join(keys).split(",") if keys else [], vals, parsed


def _pair_indices(index: dict, ids: list):
    """Arrow indices (g, h) of the pairs spelled by ``ids``, -1 for an unknown id."""
    return arrow_indices(index, ids, len(ids)).reshape(-1, 2).T


def parse_groupoid_data(data: dict) -> GroupoidFile:
    """Validate a decoded JSON object and build the groupoid it describes."""
    _expect(isinstance(data, dict), "/", "top level must be an object")
    name = data.get("name", "G")
    _expect(isinstance(name, str), "/name", "must be a string")

    units = data.get("units")
    _expect(isinstance(units, list) and units, "/units", "must be a nonempty list")
    for i, u in enumerate(units):
        _expect(isinstance(u, str), f"/units/{i}", "unit ids must be strings")

    raw_arrows = data.get("arrows")
    _expect(isinstance(raw_arrows, list) and raw_arrows, "/arrows", "must be a nonempty list")
    arrows = {}
    for i, rec in enumerate(raw_arrows):
        path = f"/arrows/{i}"
        _expect(isinstance(rec, dict), path, "must be an object")
        for key in ("id", "source", "target"):
            _expect(isinstance(rec.get(key), str), f"{path}/{key}", "must be a string")
        _expect("," not in rec["id"], f"{path}/id", "arrow ids must not contain commas")
        _expect(rec["id"] not in arrows, f"{path}/id", f"duplicate arrow id {rec['id']!r}")
        arrows[rec["id"]] = (rec["source"], rec["target"])

    ids, composites, _ = _pair_entries(
        data.get("compose"), "/compose", "composite must be an arrow id string")
    index = arrow_index(arrows)
    gi, hi = _pair_indices(index, ids)
    ki = arrow_indices(index, composites, len(composites))
    entry = lambda j: (tuple(ids[2 * j:2 * j + 2]), composites[j])
    G = validate_arrays(units, arrows, gi, hi, ki, entry, name=name)

    ids, vals, parsed = _pair_entries(
        data.get("cocycle", {}), "/cocycle", "phase must be a string 'a/b'", Phase.parse)
    gi, hi = _pair_indices(G.index, ids)
    defined = (gi >= 0) & (hi >= 0) & (G.comp_matrix()[gi, hi] >= 0)
    if not defined.all():
        j = int(np.argmin(defined))
        raise UndefinedPair(*ids[2 * j:2 * j + 2])
    code = {val: i for i, val in enumerate(parsed)}
    codes = np.fromiter(map(code.__getitem__, vals), dtype=np.int64, count=len(vals))
    omega = TwoCocycle._from_codes(G, gi, hi, codes, list(parsed.values()))

    c = None
    raw_grading = data.get("grading")
    if raw_grading is not None:
        _expect(isinstance(raw_grading, dict), "/grading", "must be an object")
        group = raw_grading.get("group")
        _expect(
            isinstance(group, list) and all(_is_int(n) and n >= 0 for n in group),
            "/grading/group",
            "must be a list of nonnegative cyclic orders",
        )
        raw_values = raw_grading.get("values")
        _expect(isinstance(raw_values, dict), "/grading/values", "must be an object")
        grading_values = {}
        for gid, vec in raw_values.items():
            path = f"/grading/values/{gid}"
            _expect(gid in arrows, path, "unknown arrow id")
            _expect(
                isinstance(vec, list) and len(vec) == len(group)
                and all(map(_is_int, vec)),
                path,
                f"must be a list of {len(group)} integers",
            )
            grading_values[gid] = tuple(vec)
        missing = set(arrows) - set(grading_values)
        _expect(not missing, "/grading/values", f"missing arrows: {sorted(missing)[:4]}")
        c = Grading(group=tuple(group), values=grading_values)

    marked = None
    raw_marked = data.get("marked_subgroupoid")
    if raw_marked is not None:
        _expect(isinstance(raw_marked, list), "/marked_subgroupoid", "must be a list")
        for i, gid in enumerate(raw_marked):
            _expect(gid in arrows, f"/marked_subgroupoid/{i}", f"unknown arrow id {gid!r}")
        marked = frozenset(raw_marked)

    return GroupoidFile(name=name, G=G, omega=omega, c=c, marked=marked)


def load_groupoid(path: str) -> GroupoidFile:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    return parse_groupoid_data(data)


def label(a) -> str:
    """The file spelling of an id: a string as it is, a pair (a, b) as "label(a)&label(b)"."""
    return a if isinstance(a, str) else "&".join(map(label, a))


def emit_groupoid_data(
    G: FiniteGroupoid,
    omega: Optional[TwoCocycle] = None,
    c: Optional[Grading] = None,
    marked=None,
    name: Optional[str] = None,
) -> dict:
    """Serialize to the interchange dict with deterministic ordering.

    Ids are written by :func:`label`; two arrows with the same spelling, or
    a spelling with a comma, raise SchemaError.  Pairs are written in
    ascending arrow-index order, which is sorted-id order: the compose table
    from the pair codes and ``comp_matrix()``, the cocycle table from the
    nonzero numerators of its table.  Each label and each distinct phase is
    spelled once and shared, a cocycle entry sharing its pair's compose key,
    and neither ``G.compose`` nor ``omega.values`` is built.  A cocycle
    defined on another groupoid raises SchemaError.
    """
    lab, spelled = [], {}
    for g in G.arrows:
        text = label(g)
        if "," in text:
            raise SchemaError(f"arrow id {text!r} contains a comma and cannot be serialized")
        if spelled.setdefault(text, g) != g:
            raise SchemaError(f"arrows {spelled[text]!r} and {g!r} are both spelled {text!r}")
        lab.append(text)
    s, t = G.endpoint_indices()
    codes = np.sort(G._pairs)
    gi, hi = np.divmod(codes, len(lab))
    head = [text + "," for text in lab]
    keys = list(map(str.__add__, map(head.__getitem__, gi.tolist()), map(lab.__getitem__, hi.tolist())))
    data = {
        "name": name or G.name,
        "units": [lab[G.index[u]] for u in G.units],
        "arrows": [
            {"id": text, "source": lab[a], "target": lab[b]} for text, a, b in zip(lab, s.tolist(), t.tolist())
        ],
        "compose": dict(zip(keys, map(lab.__getitem__, G.comp_matrix()[gi, hi].tolist()))),
    }
    if omega is not None and not omega.is_trivial():
        check_defined_on(G, omega)
        om, _, den = omega._int_table()
        gi, hi = om.nonzero()
        # each entry's key is the compose key of its pair, one string for both tables
        at = np.searchsorted(codes, gi * len(lab) + hi)
        nums, code = np.unique(om[gi, hi], return_inverse=True)
        phases = [str(Phase(v, den)) for v in nums.tolist()]
        data["cocycle"] = dict(zip(map(keys.__getitem__, at.tolist()), map(phases.__getitem__, code.tolist())))
    if c is not None:
        data["grading"] = {
            "group": list(c.group),
            "values": {text: list(c.value(g)) for text, g in zip(lab, G.arrows)},
        }
    if marked is not None:
        data["marked_subgroupoid"] = sorted(map(label, marked))
    return data


def save_groupoid(path: str, G, omega=None, c=None, marked=None, name=None) -> None:
    data = emit_groupoid_data(G, omega, c, marked, name)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
