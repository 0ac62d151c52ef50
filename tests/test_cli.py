"""Command-line driver: exit-code contract and end-to-end subcommand runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylkit
from weylkit.cli import main
from weylkit.io import load_groupoid
from weylkit.phases import HALF, Phase


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


def test_algebra_refuses_a_grading_that_is_no_homomorphism(tmp_path, capsys):
    # the commutant is taken inside the kernel of c, so c must be a homomorphism
    path = tmp_path / "d4.json"
    assert main(["gen", "d4", "-o", str(path)]) == 0
    data = json.loads(path.read_text())
    data["grading"]["values"]["0|1"] = [0]
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["algebra", str(path), "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert "not a homomorphism; witness pair ('0|1', '1|0')" in err


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate", "x.json"]) == 2


def test_hypotheses(pauli_file, tmp_path):
    assert main(["hypotheses", pauli_file]) == 0
    s3u = tmp_path / "s3u.json"
    assert main(["gen", "s3-ungraded", "-o", str(s3u)]) == 0
    assert main(["hypotheses", str(s3u)]) == 1


def test_hypotheses_report_a_marked_set_that_is_no_bundle(tmp_path, capsys):
    path = tmp_path / "pair3.json"
    assert main(["gen", "pair", "3", "-o", str(path)]) == 0
    data = json.loads(path.read_text())
    data["marked_subgroupoid"] = [a["id"] for a in data["arrows"]]
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["hypotheses", str(path), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["group_bundle"] is False and report["witnesses"]["props_bundle"] == "0>1"
    assert main(["hypotheses", str(path)]) == 1
    out, err = capsys.readouterr()
    assert "group_bundle: False" in out and "failure" not in out + err


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


def test_actions_json_counts_clause_instances(q8_file, capsys):
    assert main(["actions", q8_file, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["instances"]) == set(report["clauses"])
    assert all(n > 0 for n in report["instances"].values())


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


def test_weyl_files_are_inputs_of_the_weyl_commands(pauli_file, tmp_path):
    # Weyl arrow ids are spelled with '&' and '#'; derived arrows are pairs
    # in memory, so a Weyl groupoid file is an input like any other
    weyl_out = tmp_path / "pauli.weyl.json"
    assert main(["weyl", pauli_file, "-o", str(weyl_out)]) == 0
    assert main(["validate", str(weyl_out)]) == 0
    for command in ("weyl", "twist", "actions", "roundtrip"):
        assert main([command, str(weyl_out)]) in (0, 1), command


def test_colliding_spellings_are_schema_errors(colliding, tmp_path, capsys):
    path = tmp_path / "collide.json"
    path.write_text(json.dumps(colliding))
    assert main(["weyl", str(path)]) == 2
    err = capsys.readouterr().err
    assert "('p', 'q&r#0')" in err and "('p&q', 'r#0')" in err


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


def test_section_file_is_read_without_section_file_flag(q8_file, tmp_path, capsys):
    # a given --section-file is read whether or not --section file is also given
    path = tmp_path / "section.json"
    path.write_text(json.dumps({"-1": "1", "-j": "j", "x": "1"}))   # an unknown class
    for command in ("weyl", "boxtimes", "roundtrip"):
        assert main([command, q8_file, "--section-file", str(path)]) == 2, command
        assert "unknown class x" in capsys.readouterr().err
    path.write_text(json.dumps({"-1": "1", "-j": "j"}))
    assert main(["boxtimes", q8_file, "--section-file", str(path)]) == 0
    assert main(["boxtimes", q8_file, "--section", "lex"]) == 0


def test_section_file_flag_without_a_file_is_schema_error(q8_file, capsys):
    for command in ("weyl", "boxtimes", "roundtrip"):
        assert main([command, q8_file, "--section", "file"]) == 2, command
        err = capsys.readouterr().err
        assert "--section-file" in err and "Traceback" not in err


def test_non_integer_seed_is_schema_error(pauli_file, monkeypatch):
    monkeypatch.setenv("WEYLKIT_SEED", "x")
    assert main(["algebra", pauli_file]) == 2


def test_negative_seed_is_schema_error(pauli_file, monkeypatch, capsys):
    assert main(["algebra", pauli_file, "--seed", "-5"]) == 2
    assert main(["algebra", pauli_file, "--compare", pauli_file, "--seed", "-5"]) == 2
    assert main(["expectation", pauli_file, "--seed", "-1"]) == 2
    monkeypatch.setenv("WEYLKIT_SEED", "-3")
    assert main(["algebra", pauli_file]) == 2
    assert main(["expectation", pauli_file]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_trials_below_one_are_schema_errors(pauli_file, capsys):
    for trials in ("0", "-3"):
        assert main(["expectation", pauli_file, "--trials", trials]) == 2, trials
    assert capsys.readouterr().out == ""


def test_tol_outside_the_unit_interval_is_schema_error(pauli_file, capsys):
    for tol in ("0", "-1", "nan", "inf", "1e3", "1"):
        assert main(["algebra", pauli_file, "--tol", tol]) == 2, tol
        assert main(["algebra", pauli_file, "--compare", pauli_file, "--tol", tol]) == 2, tol
    err = capsys.readouterr().err
    assert "separating" not in err and "Traceback" not in err
    assert main(["algebra", pauli_file, "--tol", "1e-6"]) == 0


def test_a_tolerance_that_merges_blocks_is_a_math_failure(tmp_path, capsys):
    # at tol 0.9 no sample's eigenvalues on d4 fall in as many clusters as the center's dimension
    path = tmp_path / "d4.json"
    assert main(["gen", "d4", "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["algebra", str(path), "--tol", "0.9"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("failure: no separating central element") and "Traceback" not in err


def test_validate_oversized_denominators_is_schema_error(tmp_path):
    path = tmp_path / "d4.json"
    assert main(["gen", "d4", "-o", str(path)]) == 0
    data = json.loads(path.read_text())
    arrows = [a["id"] for a in data["arrows"] if a["id"] not in data["units"]]
    data["cocycle"] = {f"{g},{g}": f"1/{p}" for g, p in zip(arrows, (1000003, 1000033, 1000037, 1000039))}
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 2


def _run_cli(args, hash_seed):
    src = str(Path(weylkit.__file__).parents[1])
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = "import sys\nfrom weylkit.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    out = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True)
    return out.returncode, out.stdout, out.stderr


def test_failing_reports_do_not_depend_on_the_hash_seed(tmp_path):
    files = {}
    for name in ("rotation(4,1)", "q8", "s3"):
        path = tmp_path / "base.json"
        assert main(["gen", *name.replace("(", " ").replace(",", " ").rstrip(")").split(),
                     "-o", str(path)]) == 0
        data = json.loads(path.read_text())
        if name == "q8":       # two composites swapped in one row
            row = data["compose"]
            row["i,j"], row["i,-j"] = row["i,-j"], row["i,j"]
        elif name == "s3":     # marked with every arrow: not abelian, not in the kernel
            data["marked_subgroupoid"] = [a["id"] for a in data["arrows"]]
        else:                  # one cocycle entry shifted by 1/2
            data["cocycle"]["1|1,2|3"] = str(Phase.parse(data["cocycle"]["1|1,2|3"]) + HALF)
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(data))
    codes = set()
    for path in files.values():
        for command in ("validate", "hypotheses"):
            args = [command, str(path), "--format", "json"]
            first = _run_cli(args, "1")
            assert first == _run_cli(args, "2"), args
            codes.add(first[0])
    assert codes == {0, 1}
    # pair(4) marked with its units and six arrows that are no isotropy: the
    # expectation check names the first of them in arrow-index order
    path = tmp_path / "pair4.json"
    assert main(["gen", "pair", "4", "-o", str(path)]) == 0
    data = json.loads(path.read_text())
    data["marked_subgroupoid"] = data["units"] + ["2>3", "1>3", "1>2", "0>3", "0>2", "0>1"]
    path.write_text(json.dumps(data))
    runs = {_run_cli(["expectation", str(path)], seed) for seed in ("1", "3", "4")}
    assert runs == {(1, b"", b"failure: member 0>1 is not isotropy\n")}


@pytest.mark.parametrize("table, path", [("group", "/grading/group"), ("values", "/grading/values/0|1")])
def test_boolean_grading_entries_are_schema_errors(pauli_file, tmp_path, capsys, table, path):
    data = json.loads(open(pauli_file).read())
    if table == "group":
        data["grading"]["group"] = [True]
    else:
        data["grading"]["values"]["0|1"] = [True]
    bad = tmp_path / "boolean.json"
    bad.write_text(json.dumps(data))
    assert '": [true]' in bad.read_text()
    capsys.readouterr()
    assert main(["validate", str(bad)]) == 2
    assert f"schema error: {path}: must be a list of" in capsys.readouterr().err
