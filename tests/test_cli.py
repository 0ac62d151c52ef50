"""Command-line driver: exit-code contract and end-to-end subcommand runs."""

import json

import pytest

from weylkit.cli import main
from weylkit.io import load_groupoid


@pytest.fixture()
def pauli_file(tmp_path):
    path = tmp_path / "pauli.json"
    assert main(["gen", "pauli", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture()
def q8_file(tmp_path):
    path = tmp_path / "q8.json"
    assert main(["gen", "q8", "-o", str(path)]) == 0
    return str(path)


def test_validate_pass(pauli_file):
    assert main(["validate", pauli_file]) == 0


def test_validate_missing_composite_is_math_failure(tmp_path, pauli_file):
    data = json.loads(open(pauli_file).read())
    key = next(k for k in data["compose"] if not k.startswith("0|0"))
    del data["compose"][key]
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(data))
    assert main(["validate", str(bad)]) == 1


def test_validate_malformed_phase_is_schema_error(tmp_path, pauli_file):
    data = json.loads(open(pauli_file).read())
    key = next(iter(data["cocycle"]))
    data["cocycle"][key] = "2/0"
    bad = tmp_path / "badphase.json"
    bad.write_text(json.dumps(data))
    assert main(["validate", str(bad)]) == 2


def test_missing_file_is_schema_error():
    assert main(["validate", "/no/such/file.json"]) == 2


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate", "x.json"]) == 2


def test_hypotheses(pauli_file, tmp_path):
    assert main(["hypotheses", pauli_file]) == 0
    s3u = tmp_path / "s3u.json"
    assert main(["gen", "s3-ungraded", "-o", str(s3u)]) == 0
    assert main(["hypotheses", str(s3u)]) == 1


def test_weyl_and_twist_outputs(pauli_file, tmp_path):
    weyl_out = tmp_path / "pauli.weyl.json"
    assert main(["weyl", pauli_file, "-o", str(weyl_out)]) == 0
    gf = load_groupoid(str(weyl_out))
    assert len(gf.G) == 4

    twist_out = tmp_path / "pauli.twist.json"
    assert main(["twist", pauli_file, "-o", str(twist_out)]) == 0
    assert main(["validate", str(twist_out)]) == 0


def test_expectation_and_actions(pauli_file):
    assert main(["expectation", pauli_file, "--trials", "20"]) == 0
    assert main(["actions", pauli_file]) == 0


def test_boxtimes_and_roundtrip(q8_file, tmp_path):
    box = tmp_path / "q8.box.json"
    assert main(["boxtimes", q8_file, "-o", str(box)]) == 0
    assert main(["validate", str(box)]) == 0
    gf = load_groupoid(str(box))
    assert len(gf.G) == 8
    assert main(["roundtrip", q8_file]) == 0


def test_algebra_and_compare(pauli_file, tmp_path):
    assert main(["algebra", pauli_file]) == 0
    twist_out = tmp_path / "pauli.twist.json"
    assert main(["twist", pauli_file, "-o", str(twist_out)]) == 0
    assert main(["algebra", pauli_file, "--compare", str(twist_out)]) == 0
    # deliberate mismatch: the untwisted algebra is commutative
    flat = tmp_path / "z2z2.json"
    assert main(["gen", "z2z2", "-o", str(flat)]) == 0
    assert main(["algebra", pauli_file, "--compare", str(flat)]) == 1


def test_gen_rotation_params(tmp_path):
    out = tmp_path / "rot.json"
    assert main(["gen", "rotation", "3", "1", "-o", str(out)]) == 0
    assert load_groupoid(str(out)).name == "rotation(3,1)"
    assert main(["gen", "rotation", "3", "-o", str(out)]) == 2
    assert main(["gen", "nonsense", "-o", str(out)]) == 2


def test_gen_pair(tmp_path):
    out = tmp_path / "pair.json"
    assert main(["gen", "pair", "3", "-o", str(out)]) == 0
    assert len(load_groupoid(str(out)).G) == 9


def test_seed_env_override(pauli_file, monkeypatch, capsys):
    monkeypatch.setenv("WEYLKIT_SEED", "42")
    assert main(["algebra", pauli_file, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 42


def test_json_format(pauli_file, capsys):
    assert main(["validate", pauli_file, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cocycle_valid"] is True and report["arrows"] == 4


def test_marked_subgroupoid_flag(tmp_path, q8_file):
    assert main(["hypotheses", q8_file, "--subgroupoid", "marked"]) == 0
    data = json.loads(open(q8_file).read())
    del data["marked_subgroupoid"]
    stripped = tmp_path / "q8-nomark.json"
    stripped.write_text(json.dumps(data))
    assert main(["hypotheses", str(stripped), "--subgroupoid", "marked"]) == 2


def test_roundtrip_and_boxtimes_refuse_a_nontrivial_cocycle(pauli_file):
    # the reconstruction pipeline is valid only for a trivial cocycle
    assert main(["roundtrip", pauli_file]) == 1
    assert main(["boxtimes", pauli_file]) == 1


def test_separator_ids_are_schema_errors(pauli_file, tmp_path):
    # Weyl arrow ids contain '&' and '#'; the file stays readable, but
    # building a Weyl groupoid on top of it would garble the derived ids
    weyl_out = tmp_path / "pauli.weyl.json"
    assert main(["weyl", pauli_file, "-o", str(weyl_out)]) == 0
    assert main(["validate", str(weyl_out)]) == 0
    for command in ("weyl", "twist", "actions", "roundtrip"):
        assert main([command, str(weyl_out)]) == 2, command


def test_bad_section_file_is_schema_error(q8_file, tmp_path, capsys):
    # Q8 / <i> has two classes, named by their least members
    path = tmp_path / "section.json"
    good = {"-1": "1", "-j": "j"}

    def run(command, section):
        path.write_text(json.dumps(section))
        return main([command, q8_file, "--section", "file", "--section-file", str(path)])

    assert run("roundtrip", good) == 0
    for bad in (
        {"-1": "1"},                       # misses a class
        {"-1": "1", "-j": "i"},            # value outside its class
        {"-1": "i", "-j": "j"},            # unit class sent to a non-unit
        {**good, "x": "1"},                # unknown class
        ["1", "j"],                        # not a mapping
    ):
        for command in ("weyl", "boxtimes", "roundtrip"):
            assert run(command, bad) == 2, (command, bad)
    assert "Traceback" not in capsys.readouterr().err


def test_non_integer_seed_is_schema_error(pauli_file, monkeypatch):
    monkeypatch.setenv("WEYLKIT_SEED", "x")
    assert main(["algebra", pauli_file]) == 2
