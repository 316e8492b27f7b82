import hashlib
import json
import re
import shlex
import signal
from contextlib import contextmanager
from pathlib import Path

import pytest

from orthoreps import cli
from orthoreps.arith import BoundInputs, compute_M
from orthoreps.cli import run
from orthoreps.induced import TameParameters

README = Path(__file__).resolve().parents[1] / "README.md"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class Stalled(Exception):
    pass


@contextmanager
def one_second(what):
    """Raise Stalled if the block is still running after 1 s."""
    def stall(signum, frame):
        raise Stalled(f"{what} still running after 1 s")

    previous = signal.signal(signal.SIGALRM, stall)
    signal.alarm(1)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# induce arguments that validation refuses, with the message each gets
INVALID_INDUCE = [
    (("--p", "1000000007", "--t", "4", "--n", "4"), "t must be prime, got 4"),
    (("--p", "1000000007", "--t", "3", "--n", "5"), "n must be even and >= 2, got 5"),
    (("--p", "1000000000000000000", "--t", "3", "--n", "4"),
     "p must be an odd prime, got 1000000000000000000"),
    (("--p", "8589934609", "--t", "58057635973", "--n", "4", "--lambda", "1000000000000000009"),
     "lambda=1000000000000000009 must be a prime = 1 (mod p=8589934609)"),
    # 4 times two primes near 10^17: has_order would factor n by Pollard rho
    (("--p", "5", "--t", "3", "--n", "40000000000000422400000000000012636"),
     "t=3 does not have order exactly n=40000000000000422400000000000012636 mod p=5"),
]
INVALID_INDUCE_IDS = ["t not prime", "n odd", "p not prime", "lambda not 1 mod p",
                      "n not dividing p - 1"]


class TestTheorem1Command:
    def test_pass_names_d34(self, capsys):
        code, out, _ = invoke(capsys, "theorem1", "--pi", "17")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"]
        case = payload["cases"][0]
        assert case["pi"] == 17 and case["n"] == 68
        (orth,) = case["orthogonal"]
        assert orth["family"] == "D" and orth["rank"] == 34
        assert orth["factors"][0]["weight"][0] == 1
        assert orth["dim"] == "68"

    def test_out_of_range_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "theorem1", "--pi", "13")
        assert code == 1
        assert "17 <= pi <= 73" in err

    def test_verification_failure_exits_2(self, capsys, monkeypatch):
        import orthoreps.cli as cli
        import orthoreps.steinberg as steinberg

        real = steinberg.verify_theorem1(17)
        broken = type(real)(
            pi=real.pi,
            n=real.n,
            passed=False,
            orthogonal=real.orthogonal,
            symplectic_has_c_natural=real.symplectic_has_c_natural,
            symplectic_has_a1_power=real.symplectic_has_a1_power,
            report=real.report,
        )
        monkeypatch.setattr(cli.steinberg, "verify_theorem1", lambda pi: broken)
        code, out, _ = invoke(capsys, "theorem1", "--pi", "17")
        assert code == 2
        assert json.loads(out)["passed"] is False


class TestClassifyCommand:
    def test_n2_empty_orthogonal(self, capsys):
        code, out, _ = invoke(capsys, "classify", "--n", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["orthogonal"] == []
        assert payload["exclusions"]
        assert payload["min_char"] == 20

    def test_odd_n_rejected(self, capsys):
        code, _, err = invoke(capsys, "classify", "--n", "7")
        assert code == 1
        assert "even" in err

    def test_mode_flag(self, capsys):
        code, out, _ = invoke(capsys, "classify", "--n", "4", "--mode", "all")
        assert code == 0
        assert json.loads(out)["mode"] == "all_products"


class TestPrimesCommand:
    def test_first_pair(self, capsys):
        code, out, _ = invoke(capsys, "primes", "--n", "4", "--M", "2", "--count", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["M"] == "2" and payload["M_mode"] == "override"
        (pair,) = payload["pairs"]
        assert (pair["p"], pair["t"]) == ("5", "3")
        assert "L0_splitting" not in pair["checks"]
        assert "primality_policy" in payload

    def test_auto_m(self, capsys):
        code, out, _ = invoke(capsys, "primes", "--n", "2", "--auto-M", "1,1",
                              "--count", "1", "--limit", "3000")
        assert code == 0
        payload = json.loads(out)
        assert payload["M"] == "385" and payload["M_mode"] == "auto"
        if payload["pairs"]:
            assert int(payload["pairs"][0]["p"]) > 385

    @pytest.mark.parametrize("M, limit", [("2", "-5"), ("100", "50")])
    def test_limit_at_or_below_m_rejected(self, capsys, M, limit):
        # No t > M fits under the limit, so there is nothing to scan.
        code, out, err = invoke(capsys, "primes", "--n", "4", "--M", M, "--limit", limit)
        assert (code, out) == (1, "")
        assert err == f"orthoreps primes: error: search limit must exceed M = {M}, got {limit}\n"


class TestInduceCommand:
    def test_verdicts(self, capsys):
        code, out, _ = invoke(capsys, "induce", "--p", "5", "--t", "3", "--n", "4",
                              "--lambda", "11")
        assert code == 0
        payload = json.loads(out)
        assert payload["zeta"] == 3
        v = payload["verdicts"]
        assert v["tame_relation"] and v["gram_preserved"]
        assert v["commutant_dimension"] == 1
        assert v["tau_projective_order"] == 5

    def test_lambda_beyond_int64_products(self, capsys):
        # lambda^2 > 2^63: every verdict must still be exact
        code, out, _ = invoke(capsys, "induce", "--p", "8589934609", "--t", "58057635973",
                              "--n", "4", "--lambda", "240518169053")
        assert code == 0
        assert json.loads(out)["verdicts"] == {
            "tame_relation": True,
            "gram_preserved": True,
            "commutant_dimension": 1,
            "tau_projective_order": 8589934609,
            "phi_projective_order": 4,
        }

    def test_lambda_above_2_63(self, capsys):
        # 2^63 + 123 is a prime = 1 (mod 5); tau holds its powers of zeta as Python ints
        lam = 9223372036854775931
        code, out, _ = invoke(capsys, "induce", "--p", "5", "--t", "3", "--n", "4",
                              "--lambda", str(lam))
        assert code == 0
        payload = json.loads(out)
        zeta = payload["zeta"]
        assert payload["lambda"] == lam and pow(zeta, 5, lam) == 1 != zeta
        assert min(pow(zeta, j, lam) for j in range(1, 5)) == zeta
        assert payload["verdicts"] == {
            "tame_relation": True,
            "gram_preserved": True,
            "commutant_dimension": 1,
            "tau_projective_order": 5,
            "phi_projective_order": 4,
        }

    @pytest.mark.parametrize("argv,message", INVALID_INDUCE, ids=INVALID_INDUCE_IDS)
    def test_invalid_input_exits_before_any_search(self, capsys, argv, message):
        # the default-lambda walk, the zeta scan or factoring n would each run for minutes here
        with one_second(f"induce {' '.join(argv)}"):
            code, out, err = invoke(capsys, "induce", *argv)
        assert code == 1 and out == ""
        assert message in err

    @pytest.mark.parametrize("argv,message", INVALID_INDUCE, ids=INVALID_INDUCE_IDS)
    def test_tame_parameters_refuse_before_any_search(self, argv, message):
        # the record itself holds the check, so building it directly refuses the same inputs
        kwargs = {flag[2:]: int(value) for flag, value in zip(argv[::2], argv[1::2])}
        kwargs["lam"] = kwargs.pop("lambda", None)
        with one_second(f"TameParameters({kwargs})"):
            with pytest.raises(ValueError, match=re.escape(message)):
                TameParameters(**kwargs)

    def test_lambda_just_below_2_63(self, capsys):
        # zeta comes from a generator of the order-5 subgroup, not a scan of
        # about lambda/5 candidates
        lam = 9223372036854775421  # the largest prime = 1 (mod 5) below 2^63
        code, out, _ = invoke(capsys, "induce", "--p", "5", "--t", "3", "--n", "4",
                              "--lambda", str(lam))
        assert code == 0
        payload = json.loads(out)
        zeta = payload["zeta"]
        assert payload["lambda"] == lam and zeta == 2210855924043678662
        assert min(pow(zeta, j, lam) for j in range(1, 5)) == zeta
        assert all(v for v in payload["verdicts"].values())
        assert payload["verdicts"]["tau_projective_order"] == 5

    @pytest.mark.parametrize("argv,digest", [
        (("5", "3", "4", "11"),
         "cff1931c17024fa76b56aee2276f5746c2aab36527c012e168920f4ee8ce3275"),
        (("13", "2", "12"), "a981a99dc74f462e5091fa6e470ae4ed2d235d692a85e43f540f0b6270807dab"),
        (("7", "17", "6"), "17b3da3ac5a3c0469fda2a6780fa5e29d8d3de8d0687111998e7c5a303f0c3e6"),
        (("137", "101", "68"), "589e012be71f6c492fc5bd2a2b986bb173db5cc3a5a66716d06a1f5514083509"),
        (("8589934609", "58057635973", "4", "240518169053"),
         "38ce58620881b3ececf0572b6eb4d72fb369a15f6ae76d0b7cfcd781c0380e13"),
        (("5", "3", "4", "9223372036854775421"),
         "9b35cf582682349fe68f4567a39cbf4d652c0f40a004a4e0afdcb1b33b85d61b"),
    ])
    def test_json_bytes_pinned(self, capsys, argv, digest):
        # sha256 of the full JSON the model printed when tau, phi and the
        # Gram form were dense int64 arrays
        flags = ("--p", "--t", "--n", "--lambda")
        code, out, _ = invoke(capsys, "induce", *(x for pair in zip(flags, argv) for x in pair))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_invalid_order_rejected(self, capsys):
        code, _, err = invoke(capsys, "induce", "--p", "5", "--t", "11", "--n", "4")
        assert code == 1 and "order" in err


@pytest.mark.parametrize("command,digest", [
    ("theorem1 --all", "d3242f32559f99e1657d34dbbdce0e062f9991b4bb9de825828009f8734803ae"),
    ("classify --n 68 --mode orbit", "181a61fc6cf5711bee45a9b18025529ceb2be49aefdaa3fa11a347b8343ce096"),
    ("classify --n 68 --mode all", "782542a0497a20f62ca0e066ac0ef1465ea11568f1a82eaeaefb41409e141568"),
    ("classify --n 70 --mode all", "2fae53789629ef6c8a2c5e9b351a7c9f79115e611500bc92548d6c0a19c9c500"),
    ("classify --n 290 --mode all", "33cb9c9a59c41500054def5d09ba2fd0eec0b07fefe08cb15e0fa9dc01361e7c"),
    ("classify --n 292 --mode orbit", "5750bcfa9f35b0b56e060bf21184c6e4f44b300ed31a8d1ca29c5032bb928235"),
    ("classify --n 292 --mode all", "e05ec9c3e4cc4bc451df7d55c8ef00171d334bf505afbf7b632b961bcdd18db6"),
])
def test_classification_json_bytes_pinned(capsys, command, digest):
    # sha256 of the JSON recorded for the same command in benchmark/reference.json
    code, out, _ = invoke(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


EMPTY = hashlib.sha256(b"").hexdigest()


CLI_PINS = [
    ("enumerate --family B --rank 2 --bound 100 --format table", 0,
     "0f85be905e6b2c744976d83b9e8d28beea093b03a32132d5c9e45de5669c45c1", EMPTY),
    ("enumerate --family E --rank 6 --bound 100 --format table", 0,
     "c4e5a993d46deef4e3fff2082c95bffc4b3b7e007d1121438b0eb498f39ac032", EMPTY),
    ("enumerate --family B --rank 2 --bound 100", 0,
     "2e804511977dd9cd411f6b72f7558a9a554256924561cbe91a4da6c95f5bba21", EMPTY),
    ("classify --n 68 --format table", 0,
     "0382fab5131264c0432d35930b14c6012e336108bcbd07935c8f16341671f636", EMPTY),
    ("classify --n 72 --mode all --format table", 0,
     "b178ecf2d7b6b4fd298c624e3029612575f47e810264cb974329cd2c412f78d2", EMPTY),
    ("theorem1 --pi 17 --format table", 0,
     "e7a49fbf69a0f4ceb47b22c10724a747244e2aea414bd89922b89023557c9168", EMPTY),
    ("primes --n 4 --M 2 --count 3 --format table", 0,
     "113ec7225e48a491df535637b1795007d07b3dfb29f79270dd07eb6d31782d07", EMPTY),
    ("primes --n 4 --M 100 --count 5 --limit 150 --format table", 0,  # the partial-result line
     "831eb64e0358b3936647f9445cbf44de3755c6e73020669b9ca7f570a81a593c", EMPTY),
    ("induce --p 5 --t 3 --n 4 --format table", 0,
     "419edba70b3a022674e297bcc5f66be19ef1a6126f1f850037c95d0df55d53d1", EMPTY),
    ("bound --n 10 --k 1 --cond 1 --format table", 0,
     "1e7860df05f7d5e457abb5ccc65dad433ad9da61e525a3f062d1687f6c1634be", EMPTY),
    ("bound --n 10 --k 1 --cond 1", 0,
     "1145bdc7225dc4eddd4b467d3013cdcae6d92a68d717abd1b519348929ae413f", EMPTY),
    ("classify --n 4 --frobnicate", 1,
     EMPTY, "81b6e4994904af588d52ca73faf64805b8021f707bad992e152f72c60fad3d25"),
    ("transmogrify", 1,
     EMPTY, "55ebf4d209732464b0215df0720dbd125097056fb2756744e18bf464cc9e23fd"),
    ("classify", 1,
     EMPTY, "9b0bdd2c7c1f4952e5d30882365d12e098d379ab8e4ed9ec40b7aa60d874ade6"),
    ("theorem1 --pi 17 --all", 1,
     EMPTY, "159ad26bb20d647c97c47fc535b475e831ef45c493a11cf72f6ff2f9da57c63e"),
    ("classify --n x", 1,
     EMPTY, "5c6fb7b71ee6744e20e61c7d3d3e0bb19b94c685fc2ccd52ba44bde8402ef69a"),
    ("classify --n 7 --format table", 1,
     EMPTY, "ec9b764c16e8aac3512691abd823d635439021fa992f6072da1249dfef846fb0"),
    ("classify --help", 0,
     "04c32db92e3a6747b3e2619772c26d2a3fa5646d2b2703c0c9c0385149191ebc", EMPTY),
]


@pytest.mark.parametrize("command,code,out_digest,err_digest", CLI_PINS,
                         ids=[case[0] for case in CLI_PINS])
def test_cli_bytes_pinned(capsys, monkeypatch, command, code, out_digest, err_digest):
    # sha256 of stdout and stderr for the table output, the usage and
    # validation errors and --help; argparse wraps usage to $COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    got_code, out, err = invoke(capsys, *command.split())
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == out_digest
    assert hashlib.sha256(err.encode()).hexdigest() == err_digest


class TestBoundCommand:
    def test_value(self, capsys):
        code, out, _ = invoke(capsys, "bound", "--n", "10", "--k", "1", "--cond", "1")
        assert code == 0
        assert json.loads(out)["M"] == "4790016000001"


class TestEnumerateCommand:
    def test_jsonl(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "--family", "B", "--rank", "2",
                              "--bound", "5")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["dim"] for r in rows] == ["1", "4", "5"]
        assert rows[1]["fs"] == -1

    def test_table_format(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "--family", "B", "--rank", "2",
                              "--bound", "5", "--format", "table")
        assert code == 0
        assert out.splitlines()[0].startswith("type")


class TestCliContract:
    def test_unknown_flag_exits_1(self, capsys):
        code, _, _ = invoke(capsys, "classify", "--n", "4", "--frobnicate")
        assert code == 1

    def test_unknown_command_exits_1(self, capsys):
        code, _, _ = invoke(capsys, "transmogrify")
        assert code == 1

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = invoke(capsys, "classify", "--n", "12")
        _, second, _ = invoke(capsys, "classify", "--n", "12")
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = invoke(capsys, "bound", "--n", "2", "--k", "1", "--cond", "1",
                              "--output", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["M"] == "385"

    def test_output_into_missing_directory_exits_1(self, capsys, tmp_path):
        path = tmp_path / "missing" / "out.json"
        code, out, err = invoke(capsys, "bound", "--n", "2", "--k", "1", "--cond", "1",
                                "--output", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("orthoreps bound: error: ") and str(path) in err

    def test_timeout_is_raised_not_reported(self, capsys, monkeypatch):
        # TimeoutError is an OSError, but it is a caller's time limit (a
        # SIGALRM handler), not a failed command.
        def stalled(args):
            raise TimeoutError("time limit")

        monkeypatch.setitem(cli._HANDLERS, "bound", stalled)
        with pytest.raises(TimeoutError, match="time limit"):
            run(["bound", "--n", "2", "--k", "1", "--cond", "1"])
        assert capsys.readouterr().err == ""

    def test_memory_error_is_one_line(self, capsys, monkeypatch):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setitem(cli._HANDLERS, "induce", exhausted)
        code, out, err = invoke(capsys, "induce", "--p", "5", "--t", "3", "--n", "4")
        assert (code, out) == (1, "")
        assert err == "orthoreps induce: error: out of memory\n"

    def test_m_above_the_int_string_limit(self, capsys):
        # M has 4,306 digits here, above Python's default limit of 4,300.
        code, out, err = invoke(capsys, "bound", "--n", "1554", "--k", "1", "--cond", "1")
        assert (code, err) == (0, "")
        M = compute_M(BoundInputs(n=1554, k=1, N=1))
        assert json.loads(out)["M"] == str(M) and len(str(M)) == 4306

    # The regime of a report follows from n, and exception records are
    # built in Python: neither is a command-line input.
    @pytest.mark.parametrize("command", [
        "enumerate --family B --rank 2 --bound 5 --exceptions x.csv",
        "classify --n 68 --min-char 69",
    ])
    def test_removed_options_unrecognized(self, capsys, command):
        code, out, err = invoke(capsys, *command.split())
        assert (code, out) == (1, "")
        option = command.split()[-2]
        assert f"error: unrecognized arguments: {option} " in err


def readme_commands():
    """Every line of README's sh blocks that begins with `orthoreps `."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("orthoreps ")]


def test_readme_examples_run(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    for command in readme_commands():
        argv = shlex.split(command, comments=True)[1:]
        assert run(argv) == 0, command
        capsys.readouterr()
