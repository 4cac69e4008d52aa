import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden" / "rund_first_64.txt"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "revlcg", *args],
        capture_output=True,
        text=True,
    )


class TestDerive:
    def test_reference_constants(self):
        res = run_cli("derive", "--a", "1029", "--b", "1731", "--m", "2048")
        assert res.returncode == 0
        assert res.stdout == "c=205 d=1497\n"

    def test_identity(self):
        res = run_cli("derive", "--a", "1", "--b", "0", "--m", "16")
        assert res.returncode == 0
        assert res.stdout == "c=1 d=0\n"

    def test_not_invertible(self):
        res = run_cli("derive", "--a", "4", "--b", "1", "--m", "8")
        assert res.returncode == 2
        assert "not invertible: gcd(a,m)=4" in res.stderr


class TestGenerate:
    def test_two_steps_default_params(self):
        res = run_cli("generate", "--n", "2")
        assert res.returncode == 0
        assert res.stdout == "1 1731 0\n2 1170 1382\n"

    def test_zero_steps(self):
        res = run_cli("generate", "--n", "0")
        assert res.returncode == 0
        assert res.stdout == ""

    def test_packed_format(self):
        res = run_cli("generate", "--n", "2", "--format", "z")
        assert res.stdout == "1731\n2831506\n"

    def test_real_format(self):
        res = run_cli("generate", "--n", "1", "--format", "real")
        assert res.stdout == "1 1731/4194304 0.00041270256042480469\n"

    def test_out_of_range_seed(self):
        res = run_cli("generate", "--n", "1", "--x0", "4096")
        assert res.returncode == 2
        assert res.stderr != ""

    def test_matches_golden_file(self):
        res = run_cli("generate", "--n", "64")
        assert res.stdout == GOLDEN.read_text()

    def test_deterministic_output(self):
        first = run_cli("generate", "--n", "32", "--format", "real")
        second = run_cli("generate", "--n", "32", "--format", "real")
        assert first.stdout == second.stdout


class TestReverse:
    def test_two_steps_back(self):
        res = run_cli("reverse", "--n", "2", "--x0", "1170", "--y0", "1382")
        assert res.returncode == 0
        assert res.stdout == "1 1731 0\n2 0 0\n"

    def test_zero_steps(self):
        res = run_cli("reverse", "--n", "0")
        assert res.returncode == 0
        assert res.stdout == ""

    @pytest.mark.parametrize("n", [3, 257, 10_000])
    def test_pipe_roundtrip(self, n):
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
    def test_period_full_scale(self):
        res = run_cli("verify", "period")
        assert res.returncode == 0
        assert res.stdout == "period=4194304 full=true\n"

    def test_paper_full_scale(self):
        res = run_cli("verify", "paper")
        assert res.returncode == 0
        assert res.stdout == "comparisons=4194303 mismatches=0 pass=true\n"

    def test_paper_toy_corrupted(self):
        good = run_cli("verify", "paper", "--m", "16", "--a", "5", "--b", "3", "--s", "2")
        assert good.returncode == 0
        bad = run_cli(
            "verify", "paper", "--m", "16", "--a", "5", "--b", "3", "--s", "2", "--c", "7"
        )
        assert bad.returncode == 1
        assert bad.stdout == "comparisons=255 mismatches=254 pass=false first_mismatch_n=1\n"

    def test_roundtrip_toy(self):
        res = run_cli("verify", "roundtrip", "--m", "8", "--a", "5", "--b", "3", "--s", "2")
        assert res.returncode == 0
        assert res.stdout == "states_checked=64 mismatches=0\n"

    def test_roundtrip_corrupted_increment(self):
        res = run_cli("verify", "roundtrip", "--d", "1498")
        assert res.returncode == 1
        assert "mismatches=4194304" in res.stdout

    def test_roundtrip_sampled(self):
        res = run_cli("verify", "roundtrip", "--m", "1000003", "--a", "999983",
                      "--b", "17", "--s", "55", "--samples", "200")
        assert res.returncode == 0
        assert res.stdout == "states_checked=200 mismatches=0\n"

    def test_roundtrip_oversized_refused(self):
        res = run_cli("verify", "roundtrip", "--m", "8192")
        assert res.returncode == 2
        assert "roundtrip_sample" in res.stderr

    def test_paper_rejects_no_carry(self):
        res = run_cli("verify", "paper", "--no-carry")
        assert res.returncode == 2
        assert "carry" in res.stderr

    def test_period_oversized_needs_limit(self):
        res = run_cli("verify", "period", "--m", "1000003", "--a", "999983",
                      "--b", "17", "--s", "55")
        assert res.returncode == 2
        assert "--limit" in res.stderr
        limited = run_cli("verify", "period", "--m", "1000003", "--a", "999983",
                          "--b", "17", "--s", "55", "--limit", "1000")
        assert limited.returncode == 1
        assert limited.stdout == "period=unknown full=false\n"

    def test_equidist_toy(self):
        res = run_cli(
            "verify", "equidist", "--m", "4", "--a", "1", "--b", "1", "--s", "0", "--no-carry"
        )
        assert res.returncode == 1
        assert res.stdout == "covered=4 total=16 complete=false first_missing=4\n"

    def test_hulldobell_default(self):
        res = run_cli("verify", "hulldobell")
        assert res.returncode == 0
        assert res.stdout == "b_coprime_m=true a1_prime_factors=true a1_mod_4=true all=true\n"

    def test_hulldobell_failing(self):
        res = run_cli("verify", "hulldobell", "--a", "2", "--b", "1", "--m", "8")
        assert res.returncode == 1
        assert "all=false" in res.stdout

    def test_text_report(self):
        res = run_cli("verify", "hulldobell", "--report", "text")
        assert res.returncode == 0
        assert "all conditions: satisfied" in res.stdout

    def test_period_toy_not_full(self):
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
    def test_unknown_command(self):
        res = run_cli("frobnicate")
        assert res.returncode == 2

    def test_missing_n(self):
        res = run_cli("generate")
        assert res.returncode == 2

    def test_negative_n(self):
        res = run_cli("generate", "--n", "-3")
        assert res.returncode == 2

    def test_bad_modulus(self):
        res = run_cli("derive", "--a", "1", "--b", "0", "--m", "1")
        assert res.returncode == 2
