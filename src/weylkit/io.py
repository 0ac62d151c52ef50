"""JSON interchange format for groupoids, cocycles, gradings and markings.

The format is a single JSON object: name, units, arrows (id/source/target
records), a compose table keyed by "g,h", an optional cocycle table of
phase strings "a/b", an optional grading, and an optional marked
subgroupoid.  Schema problems raise SchemaError with a path to the
offending entry; mathematical problems surface via validate_groupoid.

Derived groupoids have pair ids, (class, character); files spell a pair
"a&b" (see :func:`label`), and only this module does so.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable, Optional

from .cocycle import TwoCocycle
from .errors import SchemaError
from .groupoid import FiniteGroupoid, Grading, validate_groupoid
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


def _split_pair(key, path):
    parts = key.split(",")
    _expect(len(parts) == 2, path, f"key {key!r} is not of the form 'g,h'")
    return parts[0], parts[1]


def _pair_table(raw, table: str, message: str, parse: Optional[Callable] = None) -> dict:
    """A JSON object keyed by "g,h" as a dict keyed by (g, h).

    Values must be strings; ``parse``, if given, maps each distinct string
    once, and equal strings share its result.  A bad key or value raises
    SchemaError with the path of the first entry at fault.
    """
    _expect(isinstance(raw, dict), table, "must be an object")
    pairs = list(map(tuple, map(str.split, raw, itertools.repeat(","))))
    vals = list(raw.values())
    try:
        if not (set(map(len, pairs)) <= {2} and all(map(isinstance, vals, itertools.repeat(str)))):
            raise SchemaError(table)
        if parse is not None:
            parsed = {val: parse(val) for val in dict.fromkeys(vals)}
            vals = map(parsed.__getitem__, vals)
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
    return dict(zip(pairs, vals))


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

    compose = _pair_table(data.get("compose"), "/compose", "composite must be an arrow id string")
    G = validate_groupoid(units, arrows, compose, name=name)

    values = _pair_table(data.get("cocycle", {}), "/cocycle", "phase must be a string 'a/b'", Phase.parse)
    omega = TwoCocycle(G, values)

    c = None
    raw_grading = data.get("grading")
    if raw_grading is not None:
        _expect(isinstance(raw_grading, dict), "/grading", "must be an object")
        group = raw_grading.get("group")
        _expect(
            isinstance(group, list) and all(isinstance(n, int) and n >= 0 for n in group),
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
                and all(isinstance(x, int) for x in vec),
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
    a spelling with a comma, raise SchemaError.
    """
    lab, spelled = {}, {}
    for g in G.arrows:
        lab[g] = text = label(g)
        if "," in text:
            raise SchemaError(f"arrow id {text!r} contains a comma and cannot be serialized")
        if spelled.setdefault(text, g) != g:
            raise SchemaError(f"arrows {spelled[text]!r} and {g!r} are both spelled {text!r}")
    data = {
        "name": name or G.name,
        "units": [lab[u] for u in G.units],
        "arrows": [
            {"id": lab[g], "source": lab[G.src[g]], "target": lab[G.tgt[g]]} for g in G.arrows
        ],
        "compose": {
            f"{lab[g]},{lab[h]}": lab[k] for (g, h), k in sorted(G.compose.items())
        },
    }
    if omega is not None and omega.values:
        data["cocycle"] = {
            f"{label(g)},{label(h)}": str(ph) for (g, h), ph in sorted(omega.values.items())
        }
    if c is not None:
        data["grading"] = {
            "group": list(c.group),
            "values": {lab[g]: list(c.value(g)) for g in G.arrows},
        }
    if marked is not None:
        data["marked_subgroupoid"] = sorted(map(label, marked))
    return data


def save_groupoid(path: str, G, omega=None, c=None, marked=None, name=None) -> None:
    data = emit_groupoid_data(G, omega, c, marked, name)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
