"""The benchmark's workloads, the layer probes and the output checks.

Each workload turns a seed into inputs, runs a fixed amount of work per
``unit`` and checks every output of a unit against ``oracle``. Spans
go around the public revlcg calls only; nothing inside revlcg is
instrumented. Workloads:

- ``verify-reference``: the four exhaustive checks at the reference
  size (m = 2048, 2**22 states), orbit seed from the workload seed.
  The paper's headline; never touches the CLI.
- ``cli-stream``: ``python -m revlcg generate`` in all three formats
  and a ``reverse`` that retraces the generate endpoint, at the
  reference parameters and at one seeded odd-modulus ``--no-carry``
  set. The user's streaming path; no exhaustive verification.
- ``library-mixed``: ``derive_inverse``, ``CoupledGenerator``, the
  sequence helpers and ``roundtrip_sample`` on seeded parameter sets
  including odd moduli and carry off. The only workload that reaches
  ``congruence`` and the sequence loops; no process start, no
  formatting.
"""

from __future__ import annotations

import functools
import random
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import oracle
import proc
from oracle import Params


@functools.cache
def lib():
    """revlcg from the checkout's src/, refusing any other copy.

    Imported on first use, not with this module: a child's ru_maxrss
    starts at its parent's RSS, so the processes that spawn the CLI must
    stay small for the CLI's peak RSS to be its own.
    """
    sys.path.insert(0, str(proc.SRC))
    import revlcg

    where = Path(revlcg.__file__).resolve()
    if proc.SRC.resolve() not in where.parents:
        raise SystemExit(f"revlcg was imported from {where}, outside {proc.SRC}")
    return revlcg


class Check(NamedTuple):
    op: str
    ok: bool
    detail: str = ""


def lib_types(p: Params):
    rl = lib()
    return rl.LcgParams(p.a, p.b, p.m), rl.CouplingSpec(p.s, p.carry)


def seeded_state(rng: random.Random, m: int) -> tuple[int, int]:
    return rng.randrange(m), rng.randrange(m)


def cli_args(command: str, p: Params, seed: tuple[int, int], n: int, fmt: str) -> list[str]:
    return [
        "-m", "revlcg", command,
        "--a", str(p.a), "--b", str(p.b), "--m", str(p.m), "--s", str(p.s),
        "--carry" if p.carry else "--no-carry",
        "--x0", str(seed[0]), "--y0", str(seed[1]),
        "--n", str(n), "--format", fmt,
    ]


SETUP_CODE = """
import time
t0 = time.perf_counter()
import revlcg
inv = revlcg.derive_inverse(revlcg.LcgParams({a}, {b}, {m}))
t1 = time.perf_counter()
print(t1 - t0, inv.c, inv.d, revlcg.__file__)
"""


def library_setup(p: Params) -> tuple[float, Check]:
    """``import revlcg`` plus ``derive_inverse`` in a fresh interpreter."""
    r = proc.run(["-c", SETUP_CODE.format(a=p.a, b=p.b, m=p.m)])
    fields = r.stdout.decode().split()
    ok = (
        r.returncode == 0
        and len(fields) == 4
        and (int(fields[1]), int(fields[2])) == oracle.inverse(p)
        and proc.SRC.resolve() in Path(fields[3]).resolve().parents
    )
    seconds = float(fields[0]) if ok else r.wall_s
    return seconds, Check("setup", ok, r.stdout.decode() + r.stderr.decode()[-500:])


# Seeded odd moduli, at least 1537 like the reference's 2048 so that the
# step arithmetic works on the same int sizes whatever the seed.
ODD_M = (1537, 4097, 2)


# ---------------------------------------------------------------- verify-reference


@dataclass(frozen=True)
class VerifyInputs:
    params: Params
    seed_state: tuple[int, int]
    inverse: tuple[int, int]  # (c, d) handed to roundtrip_sweep and paper_reproduction


class VerifyReference:
    name = "verify-reference"

    def param_sets(self, seed: int, params: Params = oracle.REFERENCE):
        return [(params, seeded_state(random.Random(seed), params.m))]

    def inputs(self, seed: int, params: Params = oracle.REFERENCE) -> VerifyInputs:
        if not oracle.full_period(params):
            raise ValueError(f"{params} has no full period; the verdicts would be unknown")
        [(_, start)] = self.param_sets(seed, params)
        return VerifyInputs(params, start, oracle.inverse(params))

    def work(self, inp: VerifyInputs) -> int:
        return 4 * inp.params.m ** 2

    def setup(self, seed: int):
        return library_setup(self.param_sets(seed)[0][0])

    def unit(self, inp: VerifyInputs, tr):
        rl = lib()
        p, states = inp.params, inp.params.m ** 2
        P, C = lib_types(p)
        S = rl.CoupledState(*inp.seed_state)
        c, d = inp.inverse
        K = rl.RundConstants(a=p.a, b=p.b, m=p.m, s=p.s, c=c, d=d, imax=states)
        with tr.span("verification.roundtrip_sweep", states, alloc=True):
            sweep = rl.roundtrip_sweep(P, C, inverse=rl.InverseParams(c, d))
        with tr.span("verification.orbit_period", states):
            period = rl.orbit_period(S, P, C)
        with tr.span("verification.equidistribution_check", states):
            equi = rl.equidistribution_check(P, C, S)
        with tr.span("verification.paper_reproduction", states):
            paper = rl.paper_reproduction(K)
        return sweep, period, equi, paper

    def check(self, inp: VerifyInputs, out) -> list[Check]:
        sweep, period, equi, paper = out
        states = inp.params.m ** 2
        return [
            Check("roundtrip_sweep", sweep.states_checked == states and sweep.mismatches == 0, repr(sweep)),
            Check("orbit_period", period.period == states and period.reached_full_period, repr(period)),
            Check("equidistribution_check", equi.covered == equi.total == states and equi.complete, repr(equi)),
            Check(
                "paper_reproduction",
                paper.comparisons == states - 1 and paper.mismatches == 0 and paper.passed,
                repr(paper),
            ),
        ]


# ---------------------------------------------------------------- cli-stream


@dataclass(frozen=True)
class CliCall:
    op: str  # cli span name: generate_state, generate_z, generate_real, reverse_state
    args: list[str]
    expected: bytes
    lines: int


@dataclass(frozen=True)
class CliInputs:
    sets: list[tuple[Params, tuple[int, int]]]
    calls: list[CliCall]


class CliStream:
    name = "cli-stream"
    # Lines per call, 8 calls per unit: streaming, not process start,
    # takes most of a call.
    LINES = 50_000
    # The set-up probe's call is the first call cut to this many lines:
    # still more than one 8 KiB stdout block, so the first byte comes
    # from the first block written, as it does in the full call.
    SETUP_LINES = 2_000

    def param_sets(self, seed: int):
        rng = random.Random(seed)
        odd = oracle.random_params(rng, rng.randrange(*ODD_M), carry=False)
        return [(oracle.REFERENCE, seeded_state(rng, oracle.REFERENCE.m)), (odd, seeded_state(rng, odd.m))]

    def inputs(self, seed: int, lines: int = LINES) -> CliInputs:
        sets = self.param_sets(seed)
        return CliInputs(sets, [call for p, start in sets for call in self.calls(p, start, lines)])

    @staticmethod
    def calls(p: Params, start: tuple[int, int], lines: int, formats=("state", "z", "real")) -> list[CliCall]:
        """generate in each format, then a reverse from the generate endpoint."""
        forward = oracle.orbit(p, *start, lines)
        out = [
            CliCall(f"generate_{fmt}", cli_args("generate", p, start, lines, fmt), oracle.cli_text(fmt, forward, p.m), lines)
            for fmt in formats
        ]
        back = oracle.cli_text("state", oracle.retrace(start, forward), p.m)
        return out + [CliCall("reverse_state", cli_args("reverse", p, forward[-1], lines, "state"), back, lines)]

    def work(self, inp: CliInputs) -> int:
        return sum(call.lines for call in inp.calls)

    def setup(self, seed: int):
        """Spawn to first stdout byte of the workload's first CLI call."""
        p, start = self.param_sets(seed)[0]
        call = self.calls(p, start, self.SETUP_LINES, formats=("state",))[0]
        r = proc.run(call.args)
        return r.first_byte_s, self.check_call(call, r)

    def unit(self, inp: CliInputs, tr):
        results = []
        for call in inp.calls:
            with tr.span("cli." + call.op, call.lines) as extra:
                r = proc.run(call.args)
                extra["first_byte_s"] = r.first_byte_s
            results.append(r)
        return results

    @staticmethod
    def check_call(call: CliCall, r: proc.Result) -> Check:
        if r.returncode != 0 or r.stderr:
            return Check(call.op, False, f"exit {r.returncode}: {r.stderr.decode(errors='replace')[-500:]}")
        if r.stdout != call.expected:
            return Check(call.op, False, oracle.first_difference(call.expected, r.stdout))
        return Check(call.op, True)

    def check(self, inp: CliInputs, out) -> list[Check]:
        return [self.check_call(call, r) for call, r in zip(inp.calls, out)]


# ---------------------------------------------------------------- library-mixed


@dataclass(frozen=True)
class LibSet:
    params: Params
    start: tuple[int, int]
    forward: list[tuple[int, int]]  # oracle orbit, max(steps, sequence) long
    inverse: tuple[int, int]


@dataclass(frozen=True)
class LibInputs:
    sets: list[LibSet]
    steps: int  # CoupledGenerator.forward/backward calls per set
    sequence: int  # generate_sequence / reverse_sequence length per set
    samples: int  # roundtrip_sample states per set
    derives: int  # derive_inverse calls per set
    rng_seed: int  # roundtrip_sample's sampling seed


class LibraryMixed:
    name = "library-mixed"

    def param_sets(self, seed: int):
        rng = random.Random(seed)
        chosen = [
            oracle.REFERENCE,
            oracle.random_params(rng, rng.randrange(*ODD_M), carry=True),
            oracle.random_params(rng, rng.randrange(*ODD_M), carry=False),
            oracle.random_params(rng, rng.choice((2048, 4096)), carry=False),
        ]
        return [(p, seeded_state(rng, p.m)) for p in chosen]

    def inputs(self, seed: int, steps=10_000, sequence=40_000, samples=5_000, derives=500) -> LibInputs:
        n = max(steps, sequence)
        sets = [
            LibSet(p, start, oracle.orbit(p, *start, n), oracle.inverse(p)) for p, start in self.param_sets(seed)
        ]
        return LibInputs(sets, steps, sequence, samples, derives, rng_seed=seed)

    def work(self, inp: LibInputs) -> int:
        return len(inp.sets) * (2 * inp.steps + 2 * inp.sequence + inp.samples)

    def setup(self, seed: int):
        return library_setup(self.param_sets(seed)[0][0])

    def unit(self, inp: LibInputs, tr):
        rl = lib()
        derive_inverse = rl.derive_inverse
        out = []
        for s in inp.sets:
            P, C = lib_types(s.params)
            seed = rl.CoupledState(*s.start)
            with tr.span("congruence.derive_inverse", inp.derives):
                for _ in range(inp.derives):
                    inv = derive_inverse(P)
            with tr.span("generator.CoupledGenerator.forward", inp.steps):
                gen = rl.CoupledGenerator(P, C, seed)
                fw = [gen.forward() for _ in range(inp.steps)]
            with tr.span("generator.CoupledGenerator.backward", inp.steps):
                bw = [gen.backward() for _ in range(inp.steps)]
            with tr.span("generator.generate_sequence", inp.sequence):
                gs = rl.generate_sequence(seed, inp.sequence, P, C)
            with tr.span("generator.reverse_sequence", inp.sequence):
                rs = rl.reverse_sequence(gs[-1], inp.sequence, P, inv, C)
            with tr.span("verification.roundtrip_sample", inp.samples):
                rt = rl.roundtrip_sample(P, C, samples=inp.samples, rng_seed=inp.rng_seed)
            out.append((inv, fw, bw, gs, rs, rt))
        return out

    def check(self, inp: LibInputs, out) -> list[Check]:
        checks = []
        for s, (inv, fw, bw, gs, rs, rt) in zip(inp.sets, out):
            fw_exp, seq_exp = s.forward[: inp.steps], s.forward[: inp.sequence]
            tag = f"@{s.params}"
            checks += [
                Check("derive_inverse", (inv.c, inv.d) == s.inverse, f"{inv} {tag}"),
                Check("CoupledGenerator.forward", fw == fw_exp, tag),
                Check("CoupledGenerator.backward", bw == oracle.retrace(s.start, fw_exp), tag),
                Check("generate_sequence", gs == seq_exp, tag),
                Check("reverse_sequence", rs == oracle.retrace(s.start, seq_exp), tag),
                Check(
                    "roundtrip_sample",
                    rt.states_checked == inp.samples and rt.mismatches == 0,
                    f"{rt!r} {tag}",
                ),
            ]
        return checks


WORKLOADS = {w.name: w for w in (VerifyReference(), CliStream(), LibraryMixed())}


# ---------------------------------------------------------------- layer probes
#
# A traced run reports every layer. Layers that no workload calls
# directly (the rund steps, the scalar generator steps, real_decimal)
# are timed by these probes on seeded orbit slices.

PROBE_STEPS = 50_000

# VmHWM is the peak RSS of this process's own memory since exec;
# ru_maxrss would start at the spawning process's RSS.
PAPER_ALLOC_CODE = """
import revlcg
def hwm_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
before = hwm_kib()
report = revlcg.paper_reproduction()
print((hwm_kib() - before) / 1024, report.passed)
"""


def probe_rund(seed: int, tr, steps: int = PROBE_STEPS) -> list[Check]:
    """rund_forward_step/rund_backward_step over a seeded slice of the reference orbit."""
    rl = lib()
    k = rl.RUND
    start = seeded_state(random.Random(seed), k.m)
    fwd, bwd = rl.rund_forward_step, rl.rund_backward_step
    x, y = start
    with tr.span("rund.rund_forward_step", steps):
        for _ in range(steps):
            x, y = fwd(x, y, k)
    end = (x, y)
    with tr.span("rund.rund_backward_step", steps):
        for _ in range(steps):
            x, y = bwd(x, y, k)
    return [
        Check("rund_forward_step", end == oracle.orbit(oracle.REFERENCE, *start, steps)[-1]),
        Check("rund_backward_step", (x, y) == start),
    ]


def probe_generator(sets, tr, steps: int = PROBE_STEPS // 2) -> list[Check]:
    """Scalar forward_step/backward_step/real_decimal on each parameter set."""
    rl = lib()
    checks = []
    for p, start in sets:
        P, C = lib_types(p)
        inv = rl.derive_inverse(P)
        expected = oracle.orbit(p, *start, steps)
        forward_step, backward_step, real_decimal = rl.forward_step, rl.backward_step, rl.real_decimal
        state = rl.CoupledState(*start)
        with tr.span("generator.forward_step", steps):
            for _ in range(steps):
                state = forward_step(state, P, C)
        end = tuple(state)
        with tr.span("generator.backward_step", steps):
            for _ in range(steps):
                state = backward_step(state, P, inv, C)
        states = [rl.CoupledState(*s) for s in expected]
        with tr.span("generator.real_decimal", steps):
            reals = [real_decimal(s, p.m) for s in states]
        want = oracle.cli_text("real", expected, p.m).decode().splitlines()
        checks += [
            Check("forward_step", end == expected[-1], f"@{p}"),
            Check("backward_step", tuple(state) == tuple(start), f"@{p}"),
            Check("real_decimal", reals == [line.rsplit(" ", 1)[1] for line in want], f"@{p}"),
        ]
    return checks


def probe_paper_alloc(tr) -> list[Check]:
    """Peak memory paper_reproduction adds, as peak-RSS growth of a fresh interpreter.

    tracemalloc is not used here: it slows the pure-Python orbit walks
    of paper_reproduction about 30-fold (4.8 s to 149 s on a 2-vCPU
    x86-64 VM with Python 3.11), past the time a run may take.
    """
    with tr.span("bench.paper_alloc_child") as extra:
        r = proc.run(["-c", PAPER_ALLOC_CODE])
        fields = r.stdout.decode().split()
        ok = r.returncode == 0 and fields[1:] == ["True"]
        extra["peak_alloc_mib"] = float(fields[0]) if ok else 0.0
    return [Check("paper_reproduction_alloc", ok, r.stderr.decode(errors="replace")[-500:])]


# ---------------------------------------------------------------- per-layer metrics

# Per-layer metric -> the end-to-end metric and workload it should move.
LAYER_TARGETS = {
    "verification.": "wall_s on verify-reference",
    "verification.roundtrip_sweep.peak_alloc_mib": "peak_rss_mib on verify-reference",
    "verification.paper_reproduction.peak_alloc_mib": "peak_rss_mib on verify-reference",
    "rund.": "wall_s on verify-reference",
    "cli.": "wall_s and setup_s on cli-stream",
    "generator.forward_step": "wall_s on cli-stream",
    "generator.backward_step": "wall_s on cli-stream",
    "generator.real_decimal": "wall_s on cli-stream",
    "generator.generate_sequence": "wall_s on library-mixed",
    "generator.reverse_sequence": "wall_s on library-mixed",
    "congruence.": "wall_s and setup_s on library-mixed",
    "trace.": "traced minus untraced wall_s of the workload's unit",
}


def target_of(metric: str) -> str:
    return max(((k, v) for k, v in LAYER_TARGETS.items() if metric.startswith(k)), key=lambda kv: len(kv[0]))[1]


VERIFY_CALLS = ("paper_reproduction", "orbit_period", "equidistribution_check", "roundtrip_sweep")
CLI_CALLS = ("generate_state", "generate_z", "generate_real", "reverse_state")


def layer_metrics(tr, overhead_s: float) -> dict[str, float]:
    """Every per-layer metric, from the spans of one traced run."""
    tot = tr.totals()

    def per(name: str, scale: float) -> float:
        secs, count, _ = tot[name]
        return secs / count * scale

    out = {f"verification.{c}.s": tot["verification." + c][0] for c in VERIFY_CALLS}
    out["verification.states_checked"] = sum(tot["verification." + c][1] for c in VERIFY_CALLS)
    out["verification.roundtrip_sweep.peak_alloc_mib"] = max(
        e["peak_alloc_mib"] for e in tot["verification.roundtrip_sweep"][2]
    )
    out["verification.paper_reproduction.peak_alloc_mib"] = tot["bench.paper_alloc_child"][2][0]["peak_alloc_mib"]
    for step in ("rund_forward_step", "rund_backward_step"):
        out[f"rund.{step}.ns"] = per("rund." + step, 1e9)
    cli_secs = 0.0
    first_bytes = []
    for c in CLI_CALLS:
        secs, _, extras = tot["cli." + c]
        out[f"cli.{c}.s"] = secs
        cli_secs += secs
        first_bytes += [e["first_byte_s"] for e in extras]
    lines = sum(tot["cli." + c][1] for c in CLI_CALLS)
    out["cli.first_byte.s"] = statistics.median(first_bytes)
    # Streaming cost per line once the child's first output has arrived.
    out["cli.ns_per_line"] = (cli_secs - sum(first_bytes)) / lines * 1e9
    out["cli.lines"] = lines
    for step in ("forward_step", "backward_step", "real_decimal"):
        out[f"generator.{step}.ns"] = per("generator." + step, 1e9)
    for seq in ("generate_sequence", "reverse_sequence"):
        out[f"generator.{seq}.ns_per_state"] = per("generator." + seq, 1e9)
    out["congruence.derive_inverse.us"] = per("congruence.derive_inverse", 1e6)
    out["trace.overhead_s"] = overhead_s
    return out

