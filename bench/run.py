"""revlcg benchmark: one command, one workload, one seed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It measures the checkout's own
``src/`` (never an installed revlcg) and checks every output against
the benchmark's oracle. The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the metrics are
BENCHMARK.json's ``end_to_end`` list untraced and its ``per_layer``
list traced. Lines above it give the same figures for a reader, with
``failed_ratio`` and the run's provenance. A full record goes to
``bench/out/``.

Set-up is measured here, in fresh interpreters, before the workload's
own fresh interpreter (worker.py) is started and reaped with
``os.wait4`` for its peak RSS. At most two processes are busy at once:
the benchmark and one child.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_REPEATS = 9  # timed set-ups per run, after one untimed warm-up


def git_facts() -> tuple:
    """(commit, dirty) of the checkout, or (None, None) when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None, None
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return commit, bool(status.strip())


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "revlcg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


# Run in a fresh interpreter, like every child: importing revlcg here
# would raise the peak RSS that the worker and CLI children inherit.
PROVENANCE_CODE = """
import json, sys
import numpy, revlcg
out = {"numpy": numpy.__version__, "revlcg": revlcg.__version__, "file": revlcg.__file__, "inverse": []}
for a, b, m in json.loads(sys.argv[1]):
    inv = revlcg.derive_inverse(revlcg.LcgParams(a, b, m))
    out["inverse"].append([inv.c, inv.d])
print(json.dumps(out))
"""


def provenance(w, seed: int) -> dict:
    """Versions, machine, code identity and every parameter set of the run.

    Raises SystemExit when the children would import revlcg from
    anywhere but the checkout's src/.
    """
    import oracle
    import proc

    sets = w.param_sets(seed)
    r = proc.run(["-c", PROVENANCE_CODE, json.dumps([[p.a, p.b, p.m] for p, _ in sets])])
    if r.returncode != 0:
        raise SystemExit(f"error: cannot import revlcg from {proc.SRC}:\n{r.stderr.decode(errors='replace')}")
    lib = json.loads(r.stdout)
    if proc.SRC.resolve() not in Path(lib["file"]).resolve().parents:
        raise SystemExit(f"error: children import revlcg from {lib['file']}, outside {proc.SRC}")
    commit, dirty = git_facts()
    params = [
        {
            **p._asdict(), "c": c, "d": d,
            "packed_multiplier": oracle.packed_multiplier(p) if p.carry else None,
            "x0": start[0], "y0": start[1],
        }
        for (p, start), (c, d) in zip(sets, lib["inverse"])
    ]
    return {
        "workload": w.name, "seed": seed,
        "python": platform.python_version(), "numpy": lib["numpy"], "revlcg": lib["revlcg"],
        "cpu_count": os.cpu_count(), "git_commit": commit, "git_dirty": dirty,
        "src_sha256": src_digest(), "params": params,
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "revlcg" / "__init__.py").is_file():
        print(f"error: no revlcg source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(BENCH))
    import proc
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    prov = provenance(w, args.seed)
    checks = []
    setup = []
    if not args.trace:
        for i in range(SETUP_REPEATS + 1):
            seconds, check = w.setup(args.seed)
            checks.append(check)
            if i:
                setup.append(seconds)

    OUT.mkdir(exist_ok=True)
    run_id = f"{w.name}-{args.seed}-{args.trace}-{os.getpid()}-{time.time_ns()}"
    stem = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}"
    worker = proc.run(
        [
            str(BENCH / "worker.py"), "--workload", w.name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--run-id", run_id, "--spans", f"{stem}.spans.jsonl",
        ],
        timeout_s=170.0,
    )
    if worker.returncode != 0:
        sys.stderr.write(worker.stderr.decode(errors="replace"))
        print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    res = json.loads(worker.stdout.decode().splitlines()[-1])
    failures = [c._asdict() for c in checks if not c.ok] + res["failures"]
    attempted = len(checks) + res["attempted"]
    failed = sum(not c.ok for c in checks) + res["failed"]

    print(f"revlcg benchmark: workload={w.name} seed={args.seed} trace={args.trace}")
    print("provenance: " + json.dumps(prov))
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if args.trace:
        values = res["layer"]
        for name, value in values.items():
            print(f"  {name:48s} {value:14.6g} {units.get(name, '?'):8s} -> {workloads.target_of(name)}")
        print("self time by layer (s): " + ", ".join(f"{k}={v:.4f}" for k, v in sorted(res["self_times"].items())))
        print(
            f"tracing overhead: {res['traced_s']:.4f} s traced - {res['untraced_s']:.4f} s untraced"
            f" = {res['traced_s'] - res['untraced_s']:+.4f} s"
        )
    else:
        walls = res["walls"]
        wall = statistics.median(walls)
        q1, q3 = quartiles(walls)
        s1, s3 = quartiles(setup)
        values = {
            "wall_s": wall,
            "states_per_s": res["work"] / wall,
            "setup_s": statistics.median(setup),
            # cli-stream: the largest CLI child's own peak. Otherwise the
            # worker's ru_maxrss, which is its own: this process stays smaller.
            "peak_rss_mib": res["child_rss_mib"] or worker.maxrss_mib,
        }
        print(f"  wall_s        {wall:.6f} s    median of {len(walls)} units, q1 {q1:.6f} q3 {q3:.6f}")
        print(f"  states_per_s  {values['states_per_s']:.1f} 1/s  {res['work']} states or lines per unit")
        print(f"  setup_s       {values['setup_s']:.6f} s    median of {len(setup)} set-ups, q1 {s1:.6f} q3 {s3:.6f}")
        print(f"  peak_rss_mib  {values['peak_rss_mib']:.2f} MiB")
    print(f"  failed_ratio  {failed}/{attempted} = {failed / attempted:.6g}")
    for f in failures[:5]:
        print(f"FAILED {f['op']}: {f['detail']}", file=sys.stderr)

    if set(values) != set(units):
        print(f"error: measured {sorted(values)} but BENCHMARK.json lists {sorted(units)}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"provenance": prov, "result": result, "failed_ratio": failed / attempted, "failures": failures[:5]}
    record.update({k: v for k, v in res.items() if k not in ("failures", "attempted", "failed")})
    if not args.trace:
        record["setup_samples"] = setup
    (stem.parent / f"{stem.name}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
