"""The benchmark's own tests, at small size.

    python3 -m pytest perfbench -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_weylkit()

import tracer  # noqa: E402
import workloads  # noqa: E402
from weylkit import corpus, reconstruct  # noqa: E402

RUN_PY = str(BENCH_DIR / "run.py")


def roundtrip_ops(names=("z2z2", "d4", "q8", "z2xR2"), seed=0):
    return [op for op in workloads.build("roundtrip", seed)
            if op.key.split(":")[1] in names]


def traced(ops):
    t = tracer.Tracer()
    t.install()
    try:
        result = run.measure(ops, 0, random.Random(0), t)
    finally:
        t.uninstall()
    return t, result


def test_known_answers_hold_on_small_roundtrips():
    result = run.measure(roundtrip_ops(), 0, random.Random(0))
    assert result["attempted"] == 4
    assert result["mismatches"] == []


def test_wrong_oracle_raises_failed_frac(capsys):
    ops = roundtrip_ops(("z2z2", "d4"))
    ops[0].expected = ((4, 4), False, True, None, True, None)  # wrong on purpose
    ops.append(workloads.Op("boom", lambda: 1 / 0, 0))
    result = run.measure(ops, 0, random.Random(0))
    assert result["attempted"] == 3
    assert {key for key, *_ in result["mismatches"]} == {"roundtrip:z2z2", "boom"}

    args = SimpleNamespace(workload="roundtrip", seed=0, seconds=0, trace=0)
    run.report({"verdict_s_p50": 0.5}, {"verdict_s_p50": "s"}, result,
               run.provenance(args, result))
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False
    assert (last["failed"], last["attempted"]) == (2, 3)


def test_spans_nest_and_reach_inner_calls():
    t, result = traced(roundtrip_ops(("d4",)))
    assert result["mismatches"] == []
    (op,) = t.ops
    spans = op["spans"]
    assert spans[0][0] == "op" and spans[0][1] is None
    for i, (_, parent, start, end) in enumerate(spans[1:], 1):
        assert parent is not None and parent < i
        assert spans[parent][2] <= start <= end <= spans[parent][3]

    def ancestors(i):
        names = []
        while spans[i][1] is not None:
            i = spans[i][1]
            names.append(spans[i][0])
        return names

    chains = [[s[0]] + ancestors(i) for i, s in enumerate(spans)]
    assert ["groupoid.build_groupoid", "weyl.build_weyl_groupoid",
            "reconstruct.derive_weyl_actions", "reconstruct.reconstruction_iso",
            "op"] in chains
    # the originals are back once the tracer is removed
    assert not hasattr(reconstruct.reconstruction_iso, "__wrapped__")


def test_self_times_sum_to_op_wall_time():
    t, _ = traced(roundtrip_ops())
    for op in t.ops:
        own = tracer.self_times(op["spans"])
        root = op["spans"][0][3] - op["spans"][0][2]
        assert sum(own) == pytest.approx(root, abs=1e-9)
        # the root span opens before and closes after the timed region
        assert op["wall_s"] <= root <= op["wall_s"] + 1e-3 + 0.01 * op["wall_s"]


def test_counts_and_layer_metrics_cover_every_name():
    t, _ = traced(roundtrip_ops(("q8",)))
    metrics = tracer.layer_metrics(t.ops)
    assert set(metrics) == set(tracer.per_layer_names()) - {"trace.overhead_frac"}
    assert metrics["reconstruct.reconstruction_iso.calls"] == 1
    assert metrics["groupoid.arrows_validated"] > 0
    assert metrics["phases.Phase.instances"] > 0
    assert metrics["dual.Character.instances"] > 0
    assert metrics["io.document_bytes"] == 0


def test_fail_documents_give_their_known_failures():
    e = corpus.rotation(4, 1)
    data = workloads.io.emit_groupoid_data(e.G, e.omega, e.c, e.S)
    docs = workloads.fail_documents(e, data, random.Random(3))
    ops = [
        workloads.certify_op("pass", json.dumps(data)),
        workloads.shifted_cocycle_op("shift", docs["shifted"]),
        workloads.swapped_compose_op("swap", docs["swapped"]),
        workloads.small_marked_op("index2", docs["index2"]),
    ]
    result = run.measure(ops, 0, random.Random(0))
    assert result["mismatches"] == []


def test_sections_are_seeded_and_valid():
    e = workloads.entry("rotation(4,0)")
    a = workloads.random_section(e, random.Random(7))
    assert a == workloads.random_section(e, random.Random(7))
    classes = workloads.coset_classes(e.G, e.S)
    assert set(a) == set(classes)
    for cid, rep in a.items():
        assert rep in classes[cid]
        assert (rep in e.G.units) == any(m in e.G.units for m in classes[cid])


def test_names_match_benchmark_json_and_predictions():
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == tracer.per_layer_names()
    e2e = {m["name"] for m in bench["end_to_end"]}
    assert e2e == {"verdict_s_p50", "verdict_s_p90", "verdicts_per_s", "setup_s", "peak_rss_mb"}
    names = {w["name"] for w in bench["workloads"]}
    assert names == set(workloads.BUILDERS)

    layers = json.loads((BENCH_DIR / "layers.json").read_text())
    assert layers["held_out_seed"] not in range(0, 100)
    per_layer = set(tracer.per_layer_names())
    for p in layers["predictions"]:
        for name in p["layer_metrics"]:
            assert name in per_layer or any(n.startswith(name) for n in per_layer), name
        for w, metrics in p["moves"].items():
            assert w in names and set(metrics) <= e2e
        assert set(p["flat"]) <= names


@pytest.mark.parametrize("flag", ["-O", None])
def test_refuses_optimize_and_missing_sources(flag, tmp_path):
    if flag:
        cmd = [sys.executable, "-O", RUN_PY]
        cwd = BENCH_DIR.parent
    else:  # a directory with only BENCHMARK.json and the benchmark
        shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
        cmd = [sys.executable, str(tmp_path / "perfbench" / "run.py")]
        cwd = tmp_path
    proc = subprocess.run(cmd + ["--workload", "roundtrip", "--seed", "0", "--seconds", "0.1"],
                          capture_output=True, text=True, cwd=cwd, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
