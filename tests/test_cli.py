import io
import json
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revlcg import (
    MAX_MODULUS,
    CoupledState,
    CouplingSpec,
    InvariantError,
    LcgParams,
    ParameterError,
    backward_step,
    derive_inverse,
    forward_step,
    pack_state,
    real_decimal,
)
from revlcg import cli, generator

GOLDEN = Path(__file__).parent / "golden" / "rund_first_64.txt"
README = Path(__file__).parents[1] / "README.md"


def run_process(*args):
    """``python -m revlcg ARGS`` in a child process."""
    return subprocess.run(
        [sys.executable, "-m", "revlcg", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def run_cli(capsys):
    """``revlcg ARGS`` in process: ``cli.main``'s exit code and what it wrote.

    The result has the ``returncode``, ``stdout`` and ``stderr`` of
    :func:`run_process`, without the start-up cost of a child process.
    """

    def run(*args):
        capsys.readouterr()
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(["revlcg", *args], code, out, err)

    return run


class TestDerive:
    def test_reference_constants(self, run_cli):
        res = run_cli("derive", "--a", "1029", "--b", "1731", "--m", "2048")
        assert res.returncode == 0
        assert res.stdout == "c=205 d=1497\n"

    def test_identity(self, run_cli):
        res = run_cli("derive", "--a", "1", "--b", "0", "--m", "16")
        assert res.returncode == 0
        assert res.stdout == "c=1 d=0\n"

    def test_not_invertible(self, run_cli):
        res = run_cli("derive", "--a", "4", "--b", "1", "--m", "8")
        assert res.returncode == 2
        assert "not invertible: gcd(a,m)=4" in res.stderr


class TestGenerate:
    def test_two_steps_default_params(self, run_cli):
        res = run_cli("generate", "--n", "2")
        assert res.returncode == 0
        assert res.stdout == "1 1731 0\n2 1170 1382\n"

    def test_zero_steps(self, run_cli):
        res = run_cli("generate", "--n", "0")
        assert res.returncode == 0
        assert res.stdout == ""

    def test_packed_format(self, run_cli):
        res = run_cli("generate", "--n", "2", "--format", "z")
        assert res.stdout == "1731\n2831506\n"

    def test_real_format(self, run_cli):
        res = run_cli("generate", "--n", "1", "--format", "real")
        assert res.stdout == "1 1731/4194304 0.00041270256042480469\n"

    def test_out_of_range_seed(self, run_cli):
        res = run_cli("generate", "--n", "1", "--x0", "4096")
        assert res.returncode == 2
        assert res.stderr != ""

    def test_matches_golden_file(self):
        # the one test of the `python -m revlcg` entry point itself
        res = run_process("generate", "--n", "64")
        assert res.stdout == GOLDEN.read_text()

    def test_deterministic_output(self, run_cli):
        first = run_cli("generate", "--n", "32", "--format", "real")
        second = run_cli("generate", "--n", "32", "--format", "real")
        assert first.stdout == second.stdout


class TestReverse:
    def test_two_steps_back(self, run_cli):
        res = run_cli("reverse", "--n", "2", "--x0", "1170", "--y0", "1382")
        assert res.returncode == 0
        assert res.stdout == "1 1731 0\n2 0 0\n"

    def test_zero_steps(self, run_cli):
        res = run_cli("reverse", "--n", "0")
        assert res.returncode == 0
        assert res.stdout == ""

    @pytest.mark.parametrize("n", [3, 257, 10_000])
    def test_pipe_roundtrip(self, run_cli, n):
        # feed the forward endpoint into reverse; the backward stream must be
        # the forward stream reversed, ending at the seed
        fwd = run_cli("generate", "--n", str(n), "--x0", "7", "--y0", "9").stdout.splitlines()
        _, x, y = fwd[-1].split()
        back = run_cli("reverse", "--n", str(n), "--x0", x, "--y0", y).stdout.splitlines()
        fwd_states = [line.split()[1:] for line in fwd]
        back_states = [line.split()[1:] for line in back]
        assert back_states[: n - 1] == fwd_states[: n - 1][::-1]
        assert back_states[-1] == ["7", "9"]


class TestVerify:
    def test_period_full_scale(self, run_cli):
        res = run_cli("verify", "period")
        assert res.returncode == 0
        assert res.stdout == "period=4194304 full=true\n"

    def test_paper_full_scale(self, run_cli):
        res = run_cli("verify", "paper")
        assert res.returncode == 0
        assert res.stdout == "comparisons=4194303 mismatches=0 pass=true\n"

    def test_paper_toy_corrupted(self, run_cli):
        good = run_cli("verify", "paper", "--m", "16", "--a", "5", "--b", "3", "--s", "2")
        assert good.returncode == 0
        bad = run_cli(
            "verify", "paper", "--m", "16", "--a", "5", "--b", "3", "--s", "2", "--c", "7"
        )
        assert bad.returncode == 1
        assert bad.stdout == "comparisons=255 mismatches=254 pass=false first_mismatch_n=1\n"

    def test_roundtrip_toy(self, run_cli):
        res = run_cli("verify", "roundtrip", "--m", "8", "--a", "5", "--b", "3", "--s", "2")
        assert res.returncode == 0
        assert res.stdout == "states_checked=64 mismatches=0\n"

    def test_roundtrip_corrupted_increment(self, run_cli):
        res = run_cli("verify", "roundtrip", "--d", "1498")
        assert res.returncode == 1
        assert "mismatches=4194304" in res.stdout

    def test_roundtrip_sampled(self, run_cli):
        res = run_cli("verify", "roundtrip", "--m", "1000003", "--a", "999983",
                      "--b", "17", "--s", "55", "--samples", "200")
        assert res.returncode == 0
        assert res.stdout == "states_checked=200 mismatches=0\n"

    @pytest.mark.parametrize("which", ["roundtrip", "paper"])
    def test_out_of_range_inverse_is_a_usage_error(self, run_cli, which):
        # used to end in an OverflowError traceback and exit 1, "failed"
        res = run_cli("verify", which, "--c", "99999999999999999999")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == "error: c must lie in [0, 2048), got 99999999999999999999\n"

    def test_roundtrip_oversized_refused(self, run_cli):
        res = run_cli("verify", "roundtrip", "--m", "8192")
        assert res.returncode == 2
        assert "roundtrip_sample" in res.stderr

    def test_paper_above_the_reference_size(self, run_cli):
        # the derived (c, d) at m = 4096 is (2253, 3545)
        res = run_cli("verify", "paper", "--m", "4096")
        assert res.returncode == 0
        assert res.stdout == "comparisons=16777215 mismatches=0 pass=true\n"

    def test_paper_oversized_refused(self, run_cli):
        res = run_cli("verify", "paper", "--m", "8192")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == (
            "error: paper_reproduction enumerates m**2 = 67108864 states, too large for m > 4096\n"
        )

    def test_paper_rejects_no_carry(self, run_cli):
        res = run_cli("verify", "paper", "--no-carry")
        assert res.returncode == 2
        assert "carry" in res.stderr

    def test_period_oversized_needs_limit(self, run_cli):
        res = run_cli("verify", "period", "--m", "1000003", "--a", "999983",
                      "--b", "17", "--s", "55")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == (
            "error: orbit_period walks 500002500003 states, more than 16777216; "
            "pass limit (--limit)\n"
        )
        limited = run_cli("verify", "period", "--m", "1000003", "--a", "999983",
                          "--b", "17", "--s", "55", "--limit", "1000")
        assert limited.returncode == 1
        assert limited.stdout == "period=unknown full=false\n"

    @pytest.mark.parametrize(
        "report, out",
        [
            ("kv", "period=2097151 full=false\n"),
            ("text", "orbit period: 2097151\nfull period (m**2): no\nstates visited: 2097151\n"),
        ],
    )
    def test_period_above_desk_scale_answers_a_short_orbit(self, run_cli, report, out):
        # m = MAX_MODULUS with no --limit: the orbit, not m, sets the walk
        res = run_cli("verify", "period", "--m", "2097151", "--a", "1", "--b", "1",
                      "--s", "0", "--no-carry", "--report", report)
        assert res.returncode == 1
        assert res.stdout == out
        assert res.stderr == ""

    def test_equidist_toy(self, run_cli):
        res = run_cli(
            "verify", "equidist", "--m", "4", "--a", "1", "--b", "1", "--s", "0", "--no-carry"
        )
        assert res.returncode == 1
        assert res.stdout == "covered=4 total=16 complete=false first_missing=4\n"

    def test_hulldobell_default(self, run_cli):
        res = run_cli("verify", "hulldobell")
        assert res.returncode == 0
        assert res.stdout == "b_coprime_m=true a1_prime_factors=true a1_mod_4=true all=true\n"

    def test_hulldobell_failing(self, run_cli):
        res = run_cli("verify", "hulldobell", "--a", "2", "--b", "1", "--m", "8")
        assert res.returncode == 1
        assert "all=false" in res.stdout

    def test_text_report(self, run_cli):
        res = run_cli("verify", "hulldobell", "--report", "text")
        assert res.returncode == 0
        assert "all conditions: satisfied" in res.stdout

    def test_period_toy_not_full(self, run_cli):
        res = run_cli(
            "verify", "period", "--m", "4", "--a", "1", "--b", "1", "--s", "0", "--no-carry"
        )
        assert res.returncode == 1
        assert res.stdout == "period=4 full=false\n"


class TestClosedStdout:
    def test_reader_closing_the_pipe_stops_quietly(self):
        # `revlcg generate --n 1000000 | head -1`
        proc = subprocess.Popen(
            [sys.executable, "-m", "revlcg", "generate", "--n", "1000000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        try:
            returncode = proc.wait(timeout=60)
        finally:
            proc.kill()
        assert first == b"1 1731 0\n"
        assert proc.stderr.read() == b""
        proc.stderr.close()
        assert returncode == 141


class TestUsageErrors:
    def test_unknown_command(self, run_cli):
        res = run_cli("frobnicate")
        assert res.returncode == 2

    def test_missing_n(self, run_cli):
        res = run_cli("generate")
        assert res.returncode == 2

    def test_negative_n(self, run_cli):
        res = run_cli("generate", "--n", "-3")
        assert res.returncode == 2

    def test_bad_modulus(self, run_cli):
        res = run_cli("derive", "--a", "1", "--b", "0", "--m", "1")
        assert res.returncode == 2


# Argument lists over every subcommand and flag. Words reach the int64
# edges; --n, --limit and --samples stay at or below 1000 and --m at or
# below 64 unless out of range, so no check walks a desk-scale orbit.
# Each value is mostly in range, so that most runs get past the parser.
NOT_AN_INT = st.sampled_from(["", "x", "1.5", "0x10"])
NEGATIVE = [-(2**63) - 1, -(2**63), -1]
EDGES = NEGATIVE + [2**63 - 1, 2**63, MAX_MODULUS, MAX_MODULUS + 1]
BAD_MODULI = NEGATIVE + [0, 1, MAX_MODULUS + 1, 2**63 - 1, 2**63]
WORDS = ("--a", "--b", "--s", "--x0", "--y0")
# each command's flags: None for a word, the largest count, or the choices
FLAGS = {
    "derive": {"--a": None, "--b": None},
    "generate": {**dict.fromkeys(WORDS), "--n": 1000, "--format": ["state", "z", "real", "kv"]},
    "verify": {
        **dict.fromkeys(WORDS + ("--c", "--d")), "--limit": 1000, "--samples": 1000,
        "--report": ["kv", "text", "json"],
    },
}
FLAGS["reverse"] = FLAGS["generate"]
CHECKS = ["roundtrip", "period", "equidist", "hulldobell", "paper"]
USUAL = ("--a", "--b", "--s", "--n")


@st.composite
def cli_args(draw):
    def value(stop, edges):
        # in [0, stop) nine times in ten, else an edge or not an int
        kind = draw(st.integers(0, 19))
        if kind == 19:
            return draw(NOT_AN_INT)
        return str(draw(st.sampled_from(edges) if kind == 18 else st.integers(0, stop - 1)))

    out_of_range = draw(st.integers(0, 9)) == 9
    m = draw(st.sampled_from(BAD_MODULI) if out_of_range else st.integers(2, 64))
    command = draw(st.sampled_from(sorted(FLAGS)))
    args = [command, "--m", str(m)]
    if command == "verify":
        args.append(draw(st.sampled_from(CHECKS)))
    if command != "derive":
        args += draw(st.sampled_from([[], [], ["--carry"], ["--no-carry"]]))
    # the defaults of --a, --b and --s lie past m, and --n is required, so
    # each is given nine times in ten; of the rest, at most two, since a
    # verify check refuses a flag it does not read
    flags = [flag for flag in USUAL if flag in FLAGS[command] and draw(st.integers(0, 9)) < 9]
    rest = [flag for flag in FLAGS[command] if flag not in USUAL]
    flags += draw(st.lists(st.sampled_from(rest), max_size=2, unique=True)) if rest else []
    for flag in flags:
        kind = FLAGS[command][flag]
        if isinstance(kind, list):
            args += [flag, draw(st.sampled_from(kind))]
        elif kind is None:
            args += [flag, value(64 if out_of_range else m, [m, *EDGES])]
        else:
            args += [flag, value(kind + 1, NEGATIVE)]
    return args


@settings(max_examples=300, deadline=None)
@given(cli_args())
def test_generated_arguments_exit_0_1_or_2(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2)
    assert code != 2 or err.getvalue()


TOY_FLAGS = ["--m", "16", "--a", "5", "--b", "3", "--s", "2"]


class TestUnreadFlags:
    """A ``verify`` check refuses the check-specific flags it does not read."""

    @pytest.mark.parametrize(
        "argv, unread",
        [
            (["paper", "--x0", "5", "--y0", "7"], "paper does not read --x0, --y0"),
            (["roundtrip", "--limit", "0"], "roundtrip does not read --limit"),
            (["period", "--samples", "-3"], "period does not read --samples"),
            (
                ["hulldobell", "--c", "3", "--limit", "5", "--samples", "4"],
                "hulldobell does not read --c, --limit, --samples",
            ),
            (["equidist", "--c", "3"], "equidist does not read --c"),
            (["paper", *TOY_FLAGS, "--x0", "0"], "paper does not read --x0"),
            (["--d", "1", "period", *TOY_FLAGS], "period does not read --d"),
            (["hulldobell", "--s", "99999", "--no-carry"],
             "hulldobell does not read --s, --no-carry"),
            (["hulldobell", "--carry"], "hulldobell does not read --carry"),
            (["hulldobell", "--s", "1536", "--c", "3"], "hulldobell does not read --s, --c"),
        ],
        ids=["paper-seed", "roundtrip-limit", "period-samples", "hulldobell-three",
             "equidist-c", "paper-x0-zero", "flag-before-check", "hulldobell-coupling",
             "hulldobell-carry", "hulldobell-default-slope"],
    )
    def test_unread_flag_is_a_usage_error(self, run_cli, argv, unread):
        res = run_cli("verify", *argv)
        assert (res.returncode, res.stdout, res.stderr) == (2, "", f"error: verify {unread}\n")

    @pytest.mark.parametrize(
        "argv, stdout",
        [
            (["period", *TOY_FLAGS, "--x0", "3", "--y0", "4", "--limit", "300"],
             "period=256 full=true\n"),
            (["equidist", *TOY_FLAGS, "--x0", "0", "--y0", "15"],
             "covered=256 total=256 complete=true\n"),
            (["roundtrip", *TOY_FLAGS, "--c", "13", "--d", "9", "--samples", "9"],
             "states_checked=9 mismatches=0\n"),
            (["paper", *TOY_FLAGS, "--c", "13", "--d", "9"],
             "comparisons=255 mismatches=0 pass=true\n"),
            (["roundtrip", *TOY_FLAGS, "--no-carry"], "states_checked=256 mismatches=0\n"),
            (["period", *TOY_FLAGS, "--carry"], "period=256 full=true\n"),
        ],
        ids=["period", "equidist", "roundtrip", "paper", "roundtrip-no-carry", "period-carry"],
    )
    def test_read_flags_are_taken(self, run_cli, argv, stdout):
        res = run_cli("verify", *argv)
        assert (res.returncode, res.stdout, res.stderr) == (0, stdout, "")

    def test_help_names_the_default_slope(self, run_cli):
        # verify leaves --s unset, to see whether it was given, and its help
        # still names the default that generate's does
        for cmd in ("generate", "verify"):
            lines = run_cli(cmd, "--help").stdout.splitlines()
            assert "  --s S                 coupling slope (default 1536)" in lines


def readme_examples():
    """(argv, stdout) of each ``$ revlcg ...`` example in the README's CLI section."""
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples, current = [], None
    for line in section.splitlines():
        if line.startswith("$ revlcg "):
            current = [line.removeprefix("$ revlcg "), ""]
            examples.append(current)
        elif current and line and not line.startswith("```"):
            current[1] += line + "\n"
        else:
            current = None
    return [pytest.param(shlex.split(cmd, comments=True), out, id=cmd) for cmd, out in examples]


class TestReadmeExamples:
    def test_section_has_examples(self):
        assert len(readme_examples()) >= 7

    @pytest.mark.parametrize("argv, stdout", readme_examples())
    def test_example_output(self, run_cli, argv, stdout):
        res = run_cli(*argv)
        assert (res.stdout, res.stderr) == (stdout, "")


class TestErrorMapping:
    def test_internal_value_error_is_not_a_usage_error(self, monkeypatch):
        def broken(args):
            raise ValueError("a defect, not bad input")

        monkeypatch.setattr(cli, "cmd_derive", broken)
        with pytest.raises(ValueError, match="a defect"):
            cli.main(["derive"])

    def test_parameter_error_is_a_usage_error(self, monkeypatch, capsys):
        def refuse(args):
            raise ParameterError("bad flag")

        monkeypatch.setattr(cli, "cmd_derive", refuse)
        assert cli.main(["derive"]) == 2
        assert capsys.readouterr().err == "error: bad flag\n"


# (params, coupling, seed) for the in-process stream tests: the reference
# generator, and an odd modulus with the carry on and off.
STREAM_CASES = [
    (LcgParams(1029, 1731, 2048), CouplingSpec(1536), CoupledState(7, 9)),
    (LcgParams(4, 7, 15), CouplingSpec(3), CoupledState(2, 11)),
    (LcgParams(4, 7, 15), CouplingSpec(3, carry_enabled=False), CoupledState(14, 0)),
]
BLOCK = 4


def expected_lines(states, fmt, m):
    if fmt == "state":
        return "".join(f"{n} {s.x} {s.y}\n" for n, s in enumerate(states, 1))
    if fmt == "z":
        return "".join(f"{pack_state(s, m)}\n" for s in states)
    return "".join(
        f"{n} {pack_state(s, m)}/{m * m} {real_decimal(s, m)}\n" for n, s in enumerate(states, 1)
    )


def repeated(step, seed, n):
    states = [seed]
    for _ in range(n):
        states.append(step(states[-1]))
    return states[1:]


class TestStreamBlocks:
    """In-process ``cli.main`` against repeated public steps, across block edges.

    The public ``forward_step`` / ``backward_step`` are the reference:
    the sequence helpers share the CLI's stepper, so they could not
    catch a fault in it.
    """

    @pytest.mark.parametrize("fmt", ["state", "z", "real"])
    @pytest.mark.parametrize(
        "params, coupling, seed", STREAM_CASES, ids=["reference", "odd-m", "odd-m-no-carry"]
    )
    def test_matches_library_sequences(self, monkeypatch, capsys, params, coupling, seed, fmt):
        flags = [
            "--a", str(params.a), "--b", str(params.b), "--m", str(params.m),
            "--s", str(coupling.s), "--carry" if coupling.carry_enabled else "--no-carry",
            "--x0", str(seed.x), "--y0", str(seed.y), "--format", fmt,
        ]
        inverse = derive_inverse(params)
        # a small block, then the shipped one
        for block in (BLOCK, cli._BLOCK_LINES):
            monkeypatch.setattr(cli, "_BLOCK_LINES", block)
            for n in (0, 1, block - 1, block, block + 1, 2 * block + 3):
                assert cli.main(["generate", "--n", str(n), *flags]) == 0
                forward = repeated(lambda s: forward_step(s, params, coupling), seed, n)
                assert capsys.readouterr().out == expected_lines(forward, fmt, params.m)
                assert cli.main(["reverse", "--n", str(n), *flags]) == 0
                backward = repeated(lambda s: backward_step(s, params, inverse, coupling), seed, n)
                assert capsys.readouterr().out == expected_lines(backward, fmt, params.m)

    def test_each_write_fits_a_pipe_buffer(self, monkeypatch):
        # The widest lines, `real` at MAX_MODULUS: each write is one block
        # of at most _BLOCK_LINES lines and one 64 KiB pipe buffer.
        params, coupling, seed = LcgParams(5, 3, MAX_MODULUS), CouplingSpec(1), CoupledState(0, 0)
        block = cli._BLOCK_LINES
        n = 2 * block + 1
        writes = []
        monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
        flags = [
            "--a", str(params.a), "--b", str(params.b), "--m", str(params.m),
            "--s", str(coupling.s), "--format", "real",
        ]
        assert cli.main(["generate", "--n", str(n), *flags]) == 0
        assert len(writes) == -(-n // block)
        for text in writes:
            assert text.count("\n") <= block
            assert len(text.encode()) <= 65536
        forward = repeated(lambda s: forward_step(s, params, coupling), seed, n)
        assert "".join(writes) == expected_lines(forward, "real", MAX_MODULUS)

    def test_reverse_keeps_the_slack_check(self, monkeypatch):
        # A backward step whose offset goes negative is a defect and must
        # still stop the stream, not print a wrong state.
        def negative_slack(cmap, x, y):
            return x, y, -1

        monkeypatch.setattr(generator._CoupledMap, "backward", negative_slack)
        with pytest.raises(InvariantError):
            cli.main(["reverse", "--n", "3"])


# Runs `python -m revlcg ARGS` in this interpreter and reports, on stderr,
# the exit status and which of the heavy modules were imported along the way.
NUMPY_PROBE = """
import json, runpy, sys
sys.argv = ["revlcg", *sys.argv[1:]]
try:
    runpy.run_module("revlcg", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    status = exc.code
heavy = [name for name in ("dataclasses", "inspect", "numpy") if name in sys.modules]
print(json.dumps([status, heavy]), file=sys.stderr)
"""


def numpy_probe(*args):
    res = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, *args], capture_output=True, text=True
    )
    return json.loads(res.stderr.splitlines()[-1])


class TestStartWithoutNumpy:
    @pytest.mark.parametrize(
        "args",
        [("generate", "--n", "3"), ("reverse", "--n", "3"), ("derive",)],
        ids=["generate", "reverse", "derive"],
    )
    def test_streaming_commands_leave_numpy_out(self, args):
        # nor dataclasses and inspect, which took about half of `import revlcg`
        assert numpy_probe(*args) == [0, []]

    def test_verify_loads_numpy(self):
        # control: the probe does see numpy when a command needs it; the
        # reports are records, so not even verify loads dataclasses
        status, heavy = numpy_probe("verify", "hulldobell")
        assert status == 0 and "numpy" in heavy and "dataclasses" not in heavy


TOY = ["--m", "16", "--a", "5", "--b", "3", "--s", "2"]
LARGE = ["--m", "1000003", "--a", "999983", "--b", "17", "--s", "55"]
IDENTITY_X = ["--m", "4", "--a", "1", "--b", "1", "--s", "0", "--no-carry"]
NOT_BIJECTIVE = ["--m", "8", "--a", "2", "--b", "1", "--s", "0", "--no-carry"]
UNDETERMINED = (
    "(the seed never recurred; the map is not bijective or the limit is too small)\n"
)

# (verify arguments, exit code, kv stdout, text stdout): every branch of
# every report, passing and failing.
VERIFY_RENDERINGS = [
    pytest.param(
        ["period", *TOY], 0,
        "period=256 full=true\n",
        "orbit period: 256\nfull period (m**2): yes\nstates visited: 256\n",
        id="period-full",
    ),
    pytest.param(
        ["period", *IDENTITY_X], 1,
        "period=4 full=false\n",
        "orbit period: 4\nfull period (m**2): no\nstates visited: 4\n",
        id="period-not-full",
    ),
    pytest.param(
        ["period", *NOT_BIJECTIVE], 1,
        "period=unknown full=false\n",
        "orbit period: undetermined after 65 steps\n" + UNDETERMINED,
        id="period-undetermined-not-bijective",
    ),
    pytest.param(
        ["period", *LARGE, "--limit", "1000"], 1,
        "period=unknown full=false\n",
        "orbit period: undetermined after 1000 steps\n" + UNDETERMINED,
        id="period-undetermined-limit",
    ),
    pytest.param(
        ["equidist", *TOY], 0,
        "covered=256 total=256 complete=true\n",
        "packed values covered: 256 of 256\nequidistribution: exact\n",
        id="equidist-complete",
    ),
    pytest.param(
        ["equidist", *IDENTITY_X], 1,
        "covered=4 total=16 complete=false first_missing=4\n",
        "packed values covered: 4 of 16\nfirst missing packed value: 4\n"
        "equidistribution: FAILED\n",
        id="equidist-missing",
    ),
    pytest.param(
        ["equidist", *NOT_BIJECTIVE], 1,
        "covered=4 total=64 complete=false first_duplicate=7 first_missing=2\n",
        "packed values covered: 4 of 64\nfirst duplicated packed value: 7\n"
        "first missing packed value: 2\nequidistribution: FAILED\n",
        id="equidist-duplicate-and-missing",
    ),
    pytest.param(
        ["roundtrip", "--m", "8", "--a", "5", "--b", "3", "--s", "2"], 0,
        "states_checked=64 mismatches=0\n",
        "states checked: 64\nround-trip mismatches: 0\n",
        id="roundtrip-clean",
    ),
    pytest.param(
        ["roundtrip", *TOY, "--d", "0"], 1,
        "states_checked=256 mismatches=256 first_mismatch_x=0 first_mismatch_y=0\n",
        "states checked: 256\nround-trip mismatches: 256\nfirst mismatching state: (0, 0)\n",
        id="roundtrip-corrupted-d",
    ),
    pytest.param(
        ["roundtrip", *LARGE, "--samples", "200", "--c", "5"], 1,
        "states_checked=200 mismatches=200 first_mismatch_x=885440 first_mismatch_y=403958\n",
        "states checked: 200\nround-trip mismatches: 200\n"
        "first mismatching state: (885440, 403958)\n",
        id="roundtrip-sampled-corrupted-c",
    ),
    pytest.param(
        ["hulldobell"], 0,
        "b_coprime_m=true a1_prime_factors=true a1_mod_4=true all=true\n",
        "gcd(b, m) = 1: satisfied\n"
        "a - 1 divisible by every prime factor of m: satisfied\n"
        "a - 1 divisible by 4 when 4 divides m: satisfied\n"
        "all conditions: satisfied\n",
        id="hulldobell-pass",
    ),
    pytest.param(
        ["hulldobell", "--a", "2", "--b", "1", "--m", "8"], 1,
        "b_coprime_m=true a1_prime_factors=false a1_mod_4=false all=false\n",
        "gcd(b, m) = 1: satisfied\n"
        "a - 1 divisible by every prime factor of m: VIOLATED\n"
        "a - 1 divisible by 4 when 4 divides m: VIOLATED\n"
        "all conditions: VIOLATED\n",
        id="hulldobell-violated",
    ),
    pytest.param(
        ["hulldobell", "--a", "3", "--b", "2", "--m", "8"], 1,
        "b_coprime_m=false a1_prime_factors=true a1_mod_4=false all=false\n",
        "gcd(b, m) = 1: VIOLATED\n"
        "a - 1 divisible by every prime factor of m: satisfied\n"
        "a - 1 divisible by 4 when 4 divides m: VIOLATED\n"
        "all conditions: VIOLATED\n",
        id="hulldobell-mixed",
    ),
    pytest.param(
        ["paper", *TOY], 0,
        "comparisons=255 mismatches=0 pass=true\n",
        "comparisons: 255\nmismatches: 0\nreproduction: pass\n",
        id="paper-toy",
    ),
    pytest.param(
        ["paper", *TOY, "--c", "7"], 1,
        "comparisons=255 mismatches=254 pass=false first_mismatch_n=1\n",
        "comparisons: 255\nmismatches: 254\nfirst mismatch at n = 1\nreproduction: FAIL\n",
        id="paper-toy-corrupted-c",
    ),
    pytest.param(
        ["paper", "--c", "204"], 1,
        "comparisons=4194303 mismatches=4194302 pass=false first_mismatch_n=1\n",
        "comparisons: 4194303\nmismatches: 4194302\nfirst mismatch at n = 1\nreproduction: FAIL\n",
        id="paper-corrupted-c",
    ),
    pytest.param(
        ["paper", "--d", "1498"], 1,
        "comparisons=4194303 mismatches=4194303 pass=false first_mismatch_n=1\n",
        "comparisons: 4194303\nmismatches: 4194303\nfirst mismatch at n = 1\nreproduction: FAIL\n",
        id="paper-corrupted-d",
    ),
]


class TestVerifyRendering:
    """Exact ``verify`` output and exit code, in process, in both report styles."""

    @pytest.mark.parametrize("report", ["kv", "text"])
    @pytest.mark.parametrize("argv, code, kv, text", VERIFY_RENDERINGS)
    def test_output_and_exit_code(self, capsys, argv, code, kv, text, report):
        assert cli.main(["verify", *argv, "--report", report]) == code
        assert capsys.readouterr() == (kv if report == "kv" else text, "")
