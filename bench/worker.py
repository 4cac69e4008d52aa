"""One measured run of one workload, in a fresh interpreter.

Started by run.py; prints its raw measurements as one JSON line.

Untraced (``--trace 0``): repeat the workload's unit until ``--seconds``
have passed, checking every unit's outputs; report each unit's wall
time.

Traced (``--trace 1``): one untraced unit of the workload, then one
traced unit of every workload on the same seed (the run's own first)
and the layer probes, so every layer is reported. The tracing overhead
is the traced minus the untraced time of the workload's own unit.
Spans are written to ``--spans`` when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import json
import time

import workloads
from spans import NullTracer, Tracer

# Hard stop for the timed loop, well inside the 180 s a run may take.
MAX_TIMED_S = 120.0


def settle() -> None:
    """Start each unit from the same heap: no garbage left by the last one.

    Everything alive before the unit (modules, the workload's inputs and
    expected outputs) is frozen out of later collections, so the
    collections a unit triggers scan what the unit itself allocated.
    """
    gc.collect()
    gc.freeze()


def untraced(w, seed: int, seconds: float) -> dict:
    inp = w.inputs(seed)
    walls, checks, child_rss = [], [], []
    null = NullTracer()
    start = time.perf_counter()
    while True:
        settle()
        t0 = time.perf_counter()
        out = w.unit(inp, null)
        walls.append(time.perf_counter() - t0)
        checks += w.check(inp, out)
        child_rss += [r.hwm_mib for r in out if isinstance(r, workloads.proc.Result)]
        del out
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed >= MAX_TIMED_S:
            break
    return {"walls": walls, "work": w.work(inp), "checks": checks, "child_rss_mib": max(child_rss, default=None)}


def traced(w, seed: int, run_id: str, spans_path: str) -> dict:
    tr = Tracer(run_id)
    inputs = {name: other.inputs(seed) for name, other in workloads.WORKLOADS.items()}
    settle()
    t0 = time.perf_counter()
    out = w.unit(inputs[w.name], NullTracer())
    untraced_s = time.perf_counter() - t0
    checks = w.check(inputs[w.name], out)
    del out
    order = [w] + [other for other in workloads.WORKLOADS.values() if other is not w]
    for other in order:
        settle()
        with tr.span("bench." + other.name):
            out = other.unit(inputs[other.name], tr)
        checks += other.check(inputs[other.name], out)
        del out
    traced_s = tr.totals()["bench." + w.name][0]
    cli = workloads.WORKLOADS["cli-stream"]
    with tr.span("bench.probes"):
        checks += workloads.probe_rund(seed, tr)
        checks += workloads.probe_generator(cli.param_sets(seed), tr)
        checks += workloads.probe_paper_alloc(tr)
    tr.write(spans_path)
    return {
        "layer": workloads.layer_metrics(tr, traced_s - untraced_s),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "self_times": tr.self_times(),
        "checks": checks,
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args()
    w = workloads.WORKLOADS[args.workload]
    if args.trace:
        result = traced(w, args.seed, args.run_id, args.spans)
    else:
        result = untraced(w, args.seed, args.seconds)
    checks = result.pop("checks")
    failures = [c._asdict() for c in checks if not c.ok]
    result.update(attempted=len(checks), failed=len(failures), failures=failures[:5])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
