"""Command-line front end.

Subcommands: ``derive`` prints the reversal constants for a parameter
triple, ``generate`` and ``reverse`` stream sequence records as plain
text, ``verify`` runs one of the verification checks and reports via
the exit code.

Exit codes: 0 success / verification passed, 1 verification failed,
2 usage or parameter error, 141 stdout closed by its reader (as in
``revlcg generate --n 1000000 | head -1``; 128 + SIGPIPE, the status a
shell reports for a process that signal ended). Output is
deterministic byte for byte for identical flags.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NamedTuple, Optional

from .congruence import InverseParams, LcgParams, NotInvertibleError, derive_inverse
from .generator import (
    CoupledState,
    CouplingSpec,
    _require_coupling,
    _require_state,
    backward_step,
    forward_step,
    pack_state,
    real_decimal,
)
from .rund import RUND, RundConstants
from .verification import (
    SWEEP_MAX_M,
    equidistribution_check,
    hull_dobell_check,
    orbit_period,
    paper_reproduction,
    roundtrip_sample,
    roundtrip_sweep,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141

# `verify paper` walks imax = m**2 steps twice; cap it at the reference size.
PAPER_MAX_M = RUND.m


class SequenceRecord(NamedTuple):
    """One emitted step: 1-based index, state words, packed value, decimal output."""

    n: int
    x: int
    y: int
    z: int
    r: str


def _record(n: int, state: CoupledState, m: int) -> SequenceRecord:
    return SequenceRecord(n, state.x, state.y, pack_state(state, m), real_decimal(state, m))


def _format_record(rec: SequenceRecord, fmt: str, m: int) -> str:
    if fmt == "state":
        return f"{rec.n} {rec.x} {rec.y}"
    if fmt == "z":
        return f"{rec.z}"
    return f"{rec.n} {rec.z}/{m * m} {rec.r}"


def _add_params_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=int, default=RUND.a, help="multiplier (default %(default)s)")
    p.add_argument("--b", type=int, default=RUND.b, help="increment (default %(default)s)")
    p.add_argument("--m", type=int, default=RUND.m, help="modulus (default %(default)s)")


def _add_coupling_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--s", type=int, default=RUND.s, help="coupling slope (default %(default)s)")
    p.add_argument(
        "--carry",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="feed the x-update carry into the y channel",
    )


def _add_seed_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x0", type=int, default=0, help="seed x word (default %(default)s)")
    p.add_argument("--y0", type=int, default=0, help="seed y word (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revlcg",
        description="Time-reversible coupled congruential generator: "
        "derive the reversal, generate sequences, run them backwards, verify exhaustively.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_derive = sub.add_parser("derive", help="derive the reversed-recursion constants (c, d)")
    _add_params_args(p_derive)

    p_gen = sub.add_parser("generate", help="emit n forward steps, one record per line")
    _add_params_args(p_gen)
    _add_coupling_args(p_gen)
    _add_seed_args(p_gen)
    p_gen.add_argument("--n", type=int, required=True, help="number of steps")
    p_gen.add_argument(
        "--format",
        choices=("state", "z", "real"),
        default="state",
        help="state: 'n x y'; z: packed value; real: 'n z/m**2 decimal'",
    )

    p_rev = sub.add_parser("reverse", help="emit n backward steps, one record per line")
    _add_params_args(p_rev)
    _add_coupling_args(p_rev)
    _add_seed_args(p_rev)
    p_rev.add_argument("--n", type=int, required=True, help="number of steps")
    p_rev.add_argument("--format", choices=("state", "z", "real"), default="state")

    p_ver = sub.add_parser("verify", help="run a verification check; exit 0 iff it passes")
    p_ver.add_argument(
        "which",
        choices=("roundtrip", "period", "equidist", "hulldobell", "paper"),
        help="which check to run",
    )
    _add_params_args(p_ver)
    _add_coupling_args(p_ver)
    _add_seed_args(p_ver)
    p_ver.add_argument("--c", type=int, default=None, help="override the derived inverse multiplier")
    p_ver.add_argument("--d", type=int, default=None, help="override the derived inverse increment")
    p_ver.add_argument("--limit", type=int, default=None, help="step limit for the period walk")
    p_ver.add_argument(
        "--samples",
        type=int,
        default=None,
        help="roundtrip only: check this many random states instead of all m**2",
    )
    p_ver.add_argument(
        "--report",
        choices=("kv", "text"),
        default="kv",
        help="report style (default %(default)s)",
    )
    return parser


def _params(args: argparse.Namespace) -> LcgParams:
    return LcgParams(args.a, args.b, args.m)


def _coupling(args: argparse.Namespace) -> CouplingSpec:
    return CouplingSpec(args.s, args.carry)


def _seed(args: argparse.Namespace) -> CoupledState:
    return CoupledState(args.x0, args.y0)


def _inverse(args: argparse.Namespace, params: LcgParams) -> InverseParams:
    derived = derive_inverse(params)
    c = derived.c if args.c is None else args.c
    d = derived.d if args.d is None else args.d
    return InverseParams(c, d)


def cmd_derive(args: argparse.Namespace) -> int:
    inv = derive_inverse(_params(args))
    print(f"c={inv.c} d={inv.d}")
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    params, coupling = _params(args), _coupling(args)
    if args.n < 0:
        raise ValueError(f"--n must be non-negative, got {args.n}")
    state = _seed(args)
    _require_state(state, params.m)
    _require_coupling(params, coupling)
    out = sys.stdout
    for n in range(1, args.n + 1):
        state = forward_step(state, params, coupling)
        out.write(_format_record(_record(n, state, params.m), args.format, params.m) + "\n")
    return EXIT_OK


def cmd_reverse(args: argparse.Namespace) -> int:
    params, coupling = _params(args), _coupling(args)
    if args.n < 0:
        raise ValueError(f"--n must be non-negative, got {args.n}")
    inverse = derive_inverse(params)
    state = _seed(args)
    _require_state(state, params.m)
    _require_coupling(params, coupling)
    out = sys.stdout
    for n in range(1, args.n + 1):
        state = backward_step(state, params, inverse, coupling)
        out.write(_format_record(_record(n, state, params.m), args.format, params.m) + "\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    params, coupling = _params(args), _coupling(args)
    if args.which == "roundtrip":
        inverse = _inverse(args, params)
        if args.samples is not None:
            report = roundtrip_sample(params, coupling, samples=args.samples, inverse=inverse)
        else:
            report = roundtrip_sweep(params, coupling, inverse=inverse)
    elif args.which == "period":
        if args.limit is None and params.m > SWEEP_MAX_M:
            raise ValueError(
                f"verify period walks up to m**2 steps; pass --limit or keep m <= {SWEEP_MAX_M}"
            )
        report = orbit_period(_seed(args), params, coupling, limit=args.limit)
    elif args.which == "equidist":
        report = equidistribution_check(params, coupling, _seed(args))
    elif args.which == "hulldobell":
        report = hull_dobell_check(params)
    else:  # paper
        if params.m > PAPER_MAX_M:
            raise ValueError(
                f"verify paper walks m**2 steps twice; refusing m > {PAPER_MAX_M}"
            )
        if not coupling.carry_enabled:
            raise ValueError("the reproduction run always couples the carry; drop --no-carry")
        _require_coupling(params, coupling)
        derived = derive_inverse(params)
        constants = RundConstants(
            a=params.a,
            b=params.b,
            m=params.m,
            s=coupling.s,
            c=derived.c if args.c is None else args.c,
            d=derived.d if args.d is None else args.d,
            imax=params.m * params.m,
        )
        report = paper_reproduction(constants)
    print(report.kv_line() if args.report == "kv" else report.as_text())
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "derive": cmd_derive,
        "generate": cmd_generate,
        "reverse": cmd_reverse,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Quiet stop, no traceback. Pointing stdout at devnull keeps the
        # interpreter's final flush from failing on the closed pipe again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except NotInvertibleError as exc:
        print(f"not invertible: gcd(a,m)={exc.gcd}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
