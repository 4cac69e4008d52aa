"""Tests of the benchmark itself: tiny workloads, negative controls, tooling.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import compare
import oracle
import proc
import workloads
from oracle import Params
from spans import NullTracer, Tracer

# A full-period toy: packed multiplier 5 + 12*16 = 197 = 1 (mod 4), b odd.
TOY = Params(a=5, b=3, m=16, s=12, carry=True)
SPEC = json.loads((proc.ROOT / "BENCHMARK.json").read_text())


def failed_ops(checks):
    return {c.op for c in checks if not c.ok}


def test_oracle_matches_reference_outputs():
    assert oracle.inverse(oracle.REFERENCE) == (205, 1497)
    assert oracle.packed_multiplier(oracle.REFERENCE) == 3146757
    assert oracle.orbit(oracle.REFERENCE, 0, 0, 2) == [(1731, 0), (1170, 1382)]
    states = oracle.orbit(oracle.REFERENCE, 0, 0, 2)
    assert oracle.cli_text("real", states[:1], 2048) == b"1 1731/4194304 0.00041270256042480469\n"
    assert oracle.cli_text("z", states, 2048) == b"1731\n2831506\n"
    assert oracle.retrace((0, 0), states) == [(1731, 0), (0, 0)]
    assert oracle.full_period(oracle.REFERENCE) and oracle.full_period(TOY)
    assert not oracle.full_period(TOY._replace(b=2))


def test_oracle_carry_off_is_the_plain_two_word_map():
    p = Params(a=3, b=1, m=7, s=2, carry=False)
    x, y = 4, 5
    assert oracle.orbit(p, x, y, 1) == [((3 * 4 + 1) % 7, (3 * 5 + 2 * 4) % 7)]


def test_verify_reference_tiny_passes_and_corrupted_d_is_flagged():
    w = workloads.WORKLOADS["verify-reference"]
    inp = w.inputs(7, params=TOY)
    tr = Tracer("t")
    assert failed_ops(w.check(inp, w.unit(inp, tr))) == set()
    assert tr.totals()["verification.roundtrip_sweep"][2][0]["peak_alloc_mib"] > 0
    c, d = inp.inverse
    bad = replace(inp, inverse=(c, (d + 1) % TOY.m))
    assert failed_ops(w.check(bad, w.unit(bad, NullTracer()))) == {"roundtrip_sweep", "paper_reproduction"}


def test_cli_stream_tiny_passes_and_corrupted_output_is_flagged():
    w = workloads.WORKLOADS["cli-stream"]
    inp = w.inputs(3, lines=40)
    out = w.unit(inp, NullTracer())
    assert failed_ops(w.check(inp, out)) == set()
    assert [c.op for c in inp.calls[:4]] == ["generate_state", "generate_z", "generate_real", "reverse_state"]
    assert "--no-carry" in inp.calls[4].args and inp.sets[1][0].m % 2 == 1
    # The reverse call must end at the generate seed.
    seed = inp.sets[0][1]
    assert out[3].stdout.splitlines()[-1] == f"40 {seed[0]} {seed[1]}".encode()
    tampered = out[3]._replace(stdout=out[3].stdout[:-2] + b"9\n")
    checks = w.check(inp, out[:3] + [tampered] + out[4:])
    assert failed_ops(checks) == {"reverse_state"}
    assert "line" in next(c.detail for c in checks if not c.ok)


def test_library_mixed_tiny_passes_and_corrupted_d_is_flagged():
    w = workloads.WORKLOADS["library-mixed"]
    inp = w.inputs(5, steps=30, sequence=50, samples=20, derives=2)
    assert {s.params.carry for s in inp.sets} == {True, False}
    assert any(s.params.m % 2 for s in inp.sets)
    out = w.unit(inp, NullTracer())
    assert failed_ops(w.check(inp, out)) == set()
    rl = workloads.lib()
    s = inp.sets[1]
    P, C = workloads.lib_types(s.params)
    inv, fw, bw, gs, _, rt = out[1]
    wrong = rl.InverseParams(inv.c, (inv.d + 1) % s.params.m)
    rs = rl.reverse_sequence(gs[-1], inp.sequence, P, wrong, C)
    checks = w.check(inp, out[:1] + [(inv, fw, bw, gs, rs, rt)] + out[2:])
    assert failed_ops(checks) == {"reverse_sequence"}


def test_traced_units_and_probes_give_every_per_layer_metric():
    tr = Tracer("t")
    checks = []
    inputs = {
        "verify-reference": workloads.WORKLOADS["verify-reference"].inputs(1, params=TOY),
        "cli-stream": workloads.WORKLOADS["cli-stream"].inputs(1, lines=20),
        "library-mixed": workloads.WORKLOADS["library-mixed"].inputs(1, steps=10, sequence=10, samples=5, derives=2),
    }
    for name, w in workloads.WORKLOADS.items():
        with tr.span("bench." + name):
            checks += w.check(inputs[name], w.unit(inputs[name], tr))
    with tr.span("bench.probes"):
        checks += workloads.probe_rund(1, tr, steps=100)
        checks += workloads.probe_generator(inputs["cli-stream"].sets, tr, steps=20)
        checks += workloads.probe_paper_alloc(tr)
    assert failed_ops(checks) == set()
    metrics = workloads.layer_metrics(tr, 0.5)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["verification.paper_reproduction.peak_alloc_mib"] > 32  # two 2**22-entry int64 tables
    assert metrics["cli.lines"] == 8 * 20
    for name in metrics:
        workloads.target_of(name)
    layers = tr.self_times()
    assert set(layers) == {"bench", "verification", "cli", "generator", "congruence", "rund"}


def test_self_time_subtracts_children():
    tr = Tracer("t")
    with tr.span("bench.root"):
        with tr.span("generator.a", count=3):
            pass
        with tr.span("generator.a", count=2):
            pass
    root, a1, a2 = tr.spans
    assert a1.parent == 0 and a2.parent == 0 and root.parent is None
    st = tr.self_times()
    assert abs(st["bench"] - (root.duration - a1.duration - a2.duration)) < 1e-12
    assert tr.totals()["generator.a"][1] == 5


def test_judge_rules():
    m = {"name": "wall_s", "better": "lower", "bound": 0.1}
    base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    assert compare.judge_metric(m, base, [v * 0.8 for v in base])["verdict"] == "gain"
    assert compare.judge_metric(m, base, [v * 1.2 for v in base])["verdict"] == "regression"
    assert compare.judge_metric(m, base, list(base))["verdict"] == "within bound"
    noisy = [1.0, 1.5, 0.7, 1.2, 0.8, 1.4, 0.9, 1.1, 0.6, 1.3]
    assert compare.judge_metric(m, noisy, [v * 0.97 for v in noisy])["verdict"] == "unresolved"
    higher = {"name": "states_per_s", "better": "higher", "bound": 0.1}
    assert compare.judge_metric(higher, base, [v * 1.2 for v in base])["verdict"] == "gain"


def test_run_refuses_a_directory_without_the_source():
    bare = proc.ROOT / "bench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(proc.ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(proc.ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "library-mixed", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
