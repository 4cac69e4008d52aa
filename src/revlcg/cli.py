"""Command-line front end.

Subcommands: ``derive`` prints the reversal constants for a parameter
triple, ``generate`` and ``reverse`` stream sequence records as plain
text, ``verify`` runs one of the verification checks and reports via
the exit code.

``generate`` and ``reverse`` take the same flags and share one loop,
``_stream``. It validates the seed and builds the coupled map
(``generator._CoupledMap``) once, takes ``_BLOCK_LINES`` (1024) packed
states at a time from the map's ``walk``, the kernel
``generate_sequence`` and ``reverse_sequence`` also wrap, and renders
each block from those ints with a single ``write``. A block that small
keeps the peak memory near that of the bare import, and its text fits
one pipe buffer. The walk steps the packed single-word LCG when the
carry is on and going forward, and the map's own steps otherwise, so a
backward stream still checks every step's non-negativity offset. Only
``verify`` imports :mod:`revlcg.verification`, so ``derive``,
``generate`` and ``reverse`` start without loading numpy. No record
or report is a dataclass, so no command loads ``dataclasses``, and
only ``verify``, through numpy, loads ``inspect``.

Exit codes: 0 success / verification passed, 1 verification failed,
2 usage or parameter error, 141 stdout closed by its reader (as in
``revlcg generate --n 1000000 | head -1``; 128 + SIGPIPE, the status a
shell reports for a process that signal ended). Output is
deterministic byte for byte for identical flags.
"""

from __future__ import annotations

# The package modules before argparse: `import revlcg` loads none of
# them, and a child that compiled argparse first peaked higher. Over 12
# fresh `generate --n 50000` children each on Python 3.11.7, the median
# VmHWM read 15.23 (state) and 15.36 MiB (real) that way and 15.04 and
# 15.15 MiB this way.
from .congruence import (
    InverseParams,
    LcgParams,
    NotInvertibleError,
    ParameterError,
    derive_inverse,
)
from .generator import REAL_CONTEXT, CoupledState, CouplingSpec, _CoupledMap, _require_state
from .rund import RUND, RundConstants

import argparse
import os
import sys
from decimal import Decimal
from functools import partial
from typing import Optional

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141

# generate/reverse write this many lines per write call. A block's ints,
# its lines and its joined text are alive at once: a 50 000-line
# `generate --format real` peaked about 1.9-2.0 MiB VmHWM above a bare
# `import revlcg.cli` with 8192-line blocks, and about 0.5 MiB above it
# with 1024. And a block of the widest lines, `real` at MAX_MODULUS, at
# most len(str(n)) + 52 bytes each, fits one 64 KiB pipe buffer for
# n < 10**10.
_BLOCK_LINES = 1024


def _add_params_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=int, default=RUND.a, help="multiplier (default %(default)s)")
    p.add_argument("--b", type=int, default=RUND.b, help="increment (default %(default)s)")
    p.add_argument("--m", type=int, default=RUND.m, help="modulus (default %(default)s)")


def _add_coupling_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--s", type=int, default=RUND.s, help=f"coupling slope (default {RUND.s})")
    p.add_argument(
        "--carry",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="feed the x-update carry into the y channel",
    )


def _add_seed_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x0", type=int, default=0, help="seed x word (default 0)")
    p.add_argument("--y0", type=int, default=0, help="seed y word (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revlcg",
        description="Time-reversible coupled congruential generator: "
        "derive the reversal, generate sequences, run them backwards, verify exhaustively.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_derive = sub.add_parser("derive", help="derive the reversed-recursion constants (c, d)")
    _add_params_args(p_derive)

    for name, direction in (("generate", "forward"), ("reverse", "backward")):
        p_walk = sub.add_parser(name, help=f"emit n {direction} steps, one record per line")
        _add_params_args(p_walk)
        _add_coupling_args(p_walk)
        _add_seed_args(p_walk)
        p_walk.add_argument("--n", type=int, required=True, help="number of steps")
        p_walk.add_argument(
            "--format",
            choices=("state", "z", "real"),
            default="state",
            help="state: 'n x y'; z: packed value; real: 'n z/m**2 decimal'",
        )

    p_ver = sub.add_parser("verify", help="run a verification check; exit 0 iff it passes")
    p_ver.add_argument(
        "which",
        choices=("roundtrip", "period", "equidist", "hulldobell", "paper"),
        help="which check to run",
    )
    _add_params_args(p_ver)
    _add_coupling_args(p_ver)
    _add_seed_args(p_ver)
    # None tells a flag that was not given from one that was; cmd_verify
    # applies the same defaults itself
    p_ver.set_defaults(s=None, carry=None, x0=None, y0=None)
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


def _inverse(args: argparse.Namespace, params: LcgParams) -> InverseParams:
    derived = derive_inverse(params)
    c = derived.c if args.c is None else args.c
    d = derived.d if args.d is None else args.d
    return InverseParams(c, d)


def cmd_derive(args: argparse.Namespace) -> int:
    inv = derive_inverse(_params(args))
    print(f"c={inv.c} d={inv.d}")
    return EXIT_OK


def _render(fmt: str, m: int, n0: int, zs: list[int]) -> str:
    """The lines of one block of packed states; ``n0`` is the 1-based index of the first."""
    if fmt == "state":
        return "".join([f"{n} {z % m} {z // m}\n" for n, z in enumerate(zs, n0)])
    if fmt == "z":
        return "".join([f"{z}\n" for z in zs])
    # Same context, hence the same digits, as generator.real_decimal; str()
    # of a Decimal costs about half its empty-spec format().
    tail, den, divide = f"/{m * m} ", Decimal(m * m), REAL_CONTEXT.divide
    return "".join([f"{n} {z}{tail}{divide(z, den)!s}\n" for n, z in enumerate(zs, n0)])


def _stream(args: argparse.Namespace, backward: bool) -> int:
    """Write the states after 1 .. n steps from the seed, in blocks."""
    params, coupling = _params(args), CouplingSpec(args.s, args.carry)
    if args.n < 0:
        raise ParameterError(f"--n must be non-negative, got {args.n}")
    inverse = derive_inverse(params) if backward else None
    x, y = _require_state((args.x0, args.y0), params.m)
    cmap, m = _CoupledMap(params, coupling, inverse), params.m
    for n0 in range(1, args.n + 1, _BLOCK_LINES):
        zs = cmap.walk(x, y, min(_BLOCK_LINES, args.n + 1 - n0), backward)
        x, y = zs[-1] % m, zs[-1] // m
        sys.stdout.write(_render(args.format, m, n0, zs))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .verification import (
        equidistribution_check,
        hull_dobell_check,
        orbit_period,
        paper_reproduction,
        roundtrip_sample,
        roundtrip_sweep,
    )

    # Of the check-specific flags, each check reads only these; any other given is refused.
    reads = {
        "roundtrip": ("s", "carry", "c", "d", "samples"),
        "period": ("s", "carry", "limit", "x0", "y0"),
        "equidist": ("s", "carry", "x0", "y0"),
        "hulldobell": (),
        "paper": ("s", "carry", "c", "d"),
    }[args.which]
    unread = [
        "--no-carry" if value is False else f"--{flag}"
        for flag in ("s", "carry", "c", "d", "limit", "samples", "x0", "y0")
        if (value := getattr(args, flag)) is not None and flag not in reads
    ]
    if unread:
        raise ParameterError(f"verify {args.which} does not read {', '.join(unread)}")
    params = _params(args)
    coupling = CouplingSpec(
        RUND.s if args.s is None else args.s, True if args.carry is None else args.carry
    )
    seed = CoupledState(args.x0 or 0, args.y0 or 0)
    if args.which == "roundtrip":
        inverse = _inverse(args, params)
        if args.samples is not None:
            report = roundtrip_sample(params, coupling, samples=args.samples, inverse=inverse)
        else:
            report = roundtrip_sweep(params, coupling, inverse=inverse)
    elif args.which == "period":
        report = orbit_period(seed, params, coupling, limit=args.limit)
    elif args.which == "equidist":
        report = equidistribution_check(params, coupling, seed)
    elif args.which == "hulldobell":
        report = hull_dobell_check(params)
    else:  # paper
        if not coupling.carry_enabled:
            raise ParameterError("the reproduction run always couples the carry; drop --no-carry")
        cmap = _CoupledMap(params, coupling)  # the slope is reported before the inverse
        inverse = _inverse(args, params)
        k = (cmap.a, cmap.b, cmap.m, cmap.s, inverse.c, inverse.d, cmap.m * cmap.m)
        report = paper_reproduction(RundConstants(*k))
    print(report.kv_line() if args.report == "kv" else report.as_text())
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "derive": cmd_derive,
        "generate": partial(_stream, backward=False),
        "reverse": partial(_stream, backward=True),
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
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
