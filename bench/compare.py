"""Compare two checkouts with the benchmark, by the rules for claiming a change.

    python3 bench/compare.py pairs --base DIR --change DIR --workload NAME [--workload NAME ...]
                                   [--pairs 10] [--first-seed 1] --out FILE
    python3 bench/compare.py judge FILE

``pairs`` runs each workload on both checkouts, untraced, in pairs that
share a seed; which side runs first alternates from pair to pair. Both
sides use the base's BENCHMARK.json command and run length. Every run
is appended to FILE as it finishes, with the provenance line it printed.

``judge`` reports, per workload and end-to-end metric, each side's
median and quartiles, the pairs the change won (ties count for
neither) and one verdict:

- ``unresolved``: the base's own spread (q3 - q1, as a share of its
  median) is wider than the metric's bound, and not every change run
  reads better than every base run;
- ``gain``: the change wins at least 9/10 of the pairs, its median is
  better by more than the base's q3 - q1, and it fails no more checks;
- ``regression``: the change's median is worse than the base's by more
  than the bound;
- ``within bound`` otherwise.

It exits 1 if any verdict is ``regression`` or a side failed a check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{cmd} in {root} exited {done.returncode}:\n{done.stderr}")
    prov = next((json.loads(l.split(": ", 1)[1]) for l in lines if l.startswith("provenance: ")), None)
    return {"result": json.loads(lines[-1]), "provenance": prov}


def cmd_pairs(args) -> int:
    base, change = Path(args.base).resolve(), Path(args.change).resolve()
    spec = json.loads((base / "BENCHMARK.json").read_text())
    out = Path(args.out)
    record = {"base": base.name, "change": change.name, "spec": spec, "runs": []}
    for workload in args.workload:
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = [("base", base), ("change", change)]
            if i % 2:
                order.reverse()
            for position, (side, root) in enumerate(order):
                run = run_once(root, spec, workload, seed)
                record["runs"].append({"workload": workload, "pair": i, "seed": seed, "side": side,
                                       "position": position, **run})
                out.write_text(json.dumps(record, indent=1) + "\n")
                m = run["result"]["metrics"]
                print(f"{workload} pair {i} seed {seed} {side}: "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in m.items()), flush=True)
    return 0


def judge_metric(metric: dict, base: list[float], change: list[float]) -> dict:
    """Apply the pair rules to one metric; base[i] and change[i] share a seed."""
    lower = metric["better"] == "lower"

    def better(a: float, b: float) -> bool:
        return a < b if lower else a > b

    b1, bm, b3 = statistics.quantiles(base, n=4)
    c1, cm, c3 = statistics.quantiles(change, n=4)
    wins = sum(better(c, b) for b, c in zip(base, change))
    worse_by = (cm - bm) / bm if lower else (bm - cm) / bm
    spread = (b3 - b1) / bm
    all_better = all(better(c, b) for c in change for b in base)
    if spread > metric["bound"] and not all_better:
        verdict = "unresolved"
    elif wins >= 0.9 * len(base) and better(cm, bm) and abs(cm - bm) > b3 - b1:
        verdict = "gain"
    elif worse_by > metric["bound"]:
        verdict = "regression"
    else:
        verdict = "within bound"
    return {
        "base": (b1, bm, b3), "change": (c1, cm, c3), "wins": wins, "pairs": len(base),
        "worse_by": worse_by, "base_spread": spread, "change_spread": (c3 - c1) / cm, "verdict": verdict,
    }


def cmd_judge(args) -> int:
    record = json.loads(Path(args.file).read_text())
    spec = record["spec"]
    status = 0
    for workload in dict.fromkeys(r["workload"] for r in record["runs"]):
        runs = [r for r in record["runs"] if r["workload"] == workload]
        sides = {s: sorted((r for r in runs if r["side"] == s), key=lambda r: r["pair"]) for s in ("base", "change")}
        pairs = sorted({r["pair"] for r in sides["base"]} & {r["pair"] for r in sides["change"]})
        failed = {s: sum(r["result"]["failed"] for r in sides[s] if r["pair"] in pairs) for s in sides}
        print(f"{workload}: {len(pairs)} pairs, failed checks base={failed['base']} change={failed['change']}")
        if failed["base"] or failed["change"]:
            status = 1
        if len(pairs) < 2:
            print("  too few complete pairs to judge")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {
                s: [r["result"]["metrics"][name]["value"] for r in sides[s] if r["pair"] in pairs] for s in sides
            }
            j = judge_metric(metric, values["base"], values["change"])
            if j["verdict"] == "gain" and failed["change"] > failed["base"]:
                j["verdict"] = "within bound (gain void: more failed checks)"
            if j["verdict"] == "regression":
                status = 1
            b1, bm, b3 = j["base"]
            c1, cm, c3 = j["change"]
            print(
                f"  {name:14s} base {bm:.6g} [{b1:.6g}, {b3:.6g}] spread {j['base_spread']:.2%}"
                f" | change {cm:.6g} [{c1:.6g}, {c3:.6g}] spread {j['change_spread']:.2%}"
                f" | worse by {j['worse_by']:+.2%} (bound {metric['bound']:.0%})"
                f" | change won {j['wins']}/{j['pairs']} | {j['verdict']}"
            )
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("pairs", help="run alternating base/change pairs")
    p.add_argument("--base", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", required=True)
    j = sub.add_parser("judge", help="apply the pair rules to a pairs file")
    j.add_argument("file")
    args = ap.parse_args()
    return cmd_pairs(args) if args.cmd == "pairs" else cmd_judge(args)


if __name__ == "__main__":
    sys.exit(main())
