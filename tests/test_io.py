"""JSON interchange: serialization round trip and schema validation."""

import json

import pytest

from weylkit import corpus
from weylkit.errors import SchemaError
from weylkit.io import (
    emit_groupoid_data,
    label,
    load_groupoid,
    parse_groupoid_data,
    save_groupoid,
)
from weylkit.weyl import build_weyl_groupoid


def _emit(e):
    return emit_groupoid_data(e.G, e.omega, e.c, e.S, e.name)


@pytest.mark.parametrize("name", ["pauli", "s3", "q8", "z2xR2"])
def test_parse_emit_roundtrip(entry, name):
    data = _emit(entry(name))
    gf = parse_groupoid_data(data)
    assert emit_groupoid_data(gf.G, gf.omega, gf.c, gf.marked, gf.name) == data
    assert gf.G.compose == entry(name).G.compose
    assert gf.omega.values == entry(name).omega.values
    assert gf.marked == entry(name).S


def test_trivial_cocycle_omitted(entry):
    data = _emit(entry("q8"))
    assert "cocycle" not in data
    gf = parse_groupoid_data(data)
    assert gf.omega.is_trivial()


def test_save_and_load(tmp_path, entry):
    e = entry("pauli")
    path = tmp_path / "pauli.json"
    save_groupoid(str(path), e.G, e.omega, e.c, e.S, e.name)
    gf = load_groupoid(str(path))
    assert gf.name == "pauli" and len(gf.G) == 4
    assert gf.c.value("0|1") == (1,)


def test_load_missing_file():
    with pytest.raises(SchemaError, match="cannot read"):
        load_groupoid("/nonexistent/file.json")


def test_load_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_groupoid(str(path))


def _base(entry):
    return _emit(entry("pauli"))


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("units"), "/units"),
        (lambda d: d.pop("arrows"), "/arrows"),
        (lambda d: d["arrows"].append({"id": 1}), "/arrows/4"),
        (lambda d: d["arrows"].append(dict(d["arrows"][0])), "duplicate"),
        (lambda d: d.__setitem__("compose", ["x"]), "/compose"),
        (lambda d: d["compose"].__setitem__("a;b", "c"), "not of the form"),
        (lambda d: d["cocycle"].__setitem__("0|1,0|0", "2/0"), "/cocycle"),
        (lambda d: d["grading"].__setitem__("group", [-1]), "/grading/group"),
        (lambda d: d["grading"]["values"].__setitem__("0|0", [1, 2]), "/grading/values/0|0"),
        (lambda d: d["grading"]["values"].pop("0|0"), "missing arrows"),
        (lambda d: d.__setitem__("marked_subgroupoid", ["nope"]), "/marked_subgroupoid/0"),
    ],
)
def test_schema_errors_have_paths(entry, mutate, fragment):
    data = json.loads(json.dumps(_base(entry)))
    mutate(data)
    with pytest.raises(SchemaError) as exc:
        parse_groupoid_data(data)
    assert fragment in str(exc.value)


def test_comma_in_arrow_id_rejected_on_emit():
    fake = type("G", (), {
        "arrows": ("a,b",), "units": (), "src": {}, "tgt": {},
        "compose": {}, "name": "bad",
    })()
    with pytest.raises(SchemaError):
        emit_groupoid_data(fake)
    # sanity: real corpus ids serialize fine
    emit_groupoid_data(corpus.pair_groupoid(2).G)


def test_equal_phase_strings_share_one_phase(entry):
    data = _emit(entry("rotation(4,1)"))
    gf = parse_groupoid_data(data)
    strings = set(data["cocycle"].values())
    assert len({id(ph) for ph in gf.omega.values.values()}) == len(strings) < len(data["cocycle"])
    assert {str(ph) for ph in gf.omega.values.values()} == strings


def test_table_errors_name_the_first_entry_at_fault(entry):
    data = _emit(entry("pauli"))
    first, *rest = list(data["cocycle"])
    data["cocycle"][first] = "1/0"
    data["cocycle"]["a;b"] = "1/2"
    with pytest.raises(SchemaError, match=f"/cocycle/{first}: bad phase string '1/0'"):
        parse_groupoid_data(data)
    data = _emit(entry("pauli"))
    key = list(data["compose"])[2]
    data["compose"][key] = 7
    data["compose"]["x,y,z"] = "0|0"
    with pytest.raises(SchemaError, match=f"/compose/{key}: composite must be an arrow id string"):
        parse_groupoid_data(data)


def test_pairs_sharing_a_spelling_are_refused_on_emit(colliding):
    gf = parse_groupoid_data(colliding)
    GW, _ = build_weyl_groupoid(gf.G, gf.marked, gf.omega)
    assert ("p", "q&r#0") in GW.src and ("p&q", "r#0") in GW.src
    with pytest.raises(SchemaError) as exc:
        emit_groupoid_data(GW)
    assert "('p', 'q&r#0')" in str(exc.value) and "('p&q', 'r#0')" in str(exc.value)


def test_label_spells_pairs_and_keeps_strings():
    assert label("0|1") == "0|1"
    assert label(("0|1", "0|0#1")) == "0|1&0|0#1"
    assert label((("1|0", "0|0#1"), "0|0#0")) == "1|0&0|0#1&0|0#0"


@pytest.mark.parametrize(
    "mutate, path",
    [
        (lambda d: d["grading"].__setitem__("group", [True]), "/grading/group"),
        (lambda d: d["grading"].update(group=[True], values={g: [False] for g in d["grading"]["values"]}),
         "/grading/group"),
        (lambda d: d["grading"]["values"].__setitem__("0|1", [True]), "/grading/values/0|1"),
    ],
)
def test_booleans_are_not_grading_integers(entry, mutate, path):
    data = json.loads(json.dumps(_base(entry)))
    mutate(data)
    with pytest.raises(SchemaError, match=f"^{path}: must be a list of"):
        parse_groupoid_data(data)
