import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st


def run_cli(*argv, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "betahole.cli", *argv],
        capture_output=True,
        text=True,
        env=None if env is None else {**os.environ, **env},
    )
    return proc


def payload(proc):
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["schema"] == "betahole/1"
    return data


class TestClassifyCommand:
    def test_star_example(self):
        data = payload(run_cli("classify", "--alpha", "111010(110)"))
        assert data["chain"] == ["011"]
        assert data["position"] == "star"
        assert data["beta"]["lo"].startswith("1.90970455441902")
        assert data["tau"]["seq"] == "0(101)"

    def test_windows_example(self):
        data = payload(run_cli("windows", "--alpha", "(1110101100)"))
        assert [w["vk"] for w in data["windows"]] == ["01011", "01"]
        assert all(w["maximal"] for w in data["windows"])

    def test_entropy_golden_mean(self):
        data = payload(run_cli("entropy", "--alpha", "(1)", "--lower", "(01)"))
        assert data["h"]["lo"].startswith("0.48121182505960")
        assert data["dim"]["lo"].startswith("0.69424191363061")
        assert data["transitive"] is True

    def test_deterministic_output(self):
        a = run_cli("classify", "--alpha", "111010(110)").stdout
        b = run_cli("classify", "--alpha", "111010(110)").stdout
        assert a == b

    def test_round_trips_grammar(self):
        data = payload(run_cli("classify", "--alpha", "111010(110)"))
        from betahole.seq_core import EPSeq

        assert str(EPSeq.parse(data["tau"]["seq"])) == data["tau"]["seq"]


class TestOtherCommands:
    def test_beta(self):
        data = payload(run_cli("beta", "--alpha", "(110)"))
        assert data["beta"]["lo"].startswith("1.8392867552141611")

    def test_alpha(self):
        data = payload(run_cli("alpha", "--beta", "2", "--digits", "8"))
        assert data["digits"] == "1" * 8
        assert data["alpha_guess"] == "(1)"

    def test_tau(self):
        data = payload(run_cli("tau", "--alpha", "(1)"))
        assert data["seq"] == "1(0)"
        assert data["lo"].startswith("0.4999999") or data["lo"].startswith("0.5000000")

    def test_transitive(self):
        data = payload(run_cli("transitive", "--alpha", "(1110101100)", "--word", "01010111"))
        assert data["verdict"] == "not_transitive"
        assert data["core"] is None
        data = payload(run_cli("transitive", "--alpha", "(1110101100)", "--word", "01011"))
        assert data["verdict"] == "transitive"

    def test_bifdiff(self):
        data = payload(run_cli("bifdiff", "--chain", "01,001", "--which", "l"))
        assert data["points"] == ["(01)"]

    def test_gap(self):
        data = payload(run_cli("gap", "--alpha", "1110100110111(001)", "--m", "3"))
        from betahole.seq_core import EPSeq

        EPSeq.parse(data["seq"])  # valid grammar

    def test_plateaus(self):
        data = payload(run_cli("plateaus", "--alpha", "(1)", "--max-len", "4"))
        kinds = [p["kind"] for p in data["plateaus"]]
        assert kinds.count("terminal") == 1
        assert kinds.count("ebli") == 6  # Lyndon words of lengths 2..4

    def test_staircase(self, tmp_path):
        out = tmp_path / "stairs.csv"
        proc = run_cli("staircase", "--alpha", "(1)", "--points", "12", "--out", str(out))
        assert proc.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t_lo,t_hi,dim_lo,dim_hi,seq"
        assert len(lines) == 13


class TestExitCodes:
    def test_usage_error(self):
        assert run_cli("classify").returncode == 2

    def test_precondition_error(self):
        proc = run_cli("beta", "--alpha", "0(110)")
        assert proc.returncode == 3
        assert "error" in proc.stderr

    def test_gap_below_threshold(self):
        proc = run_cli("gap", "--alpha", "1110100110111(001)", "--m", "0")
        assert proc.returncode == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ("alpha", "--beta", "abc"),
            ("alpha", "--beta", "1.8", "--digits", "-3"),
            ("staircase", "--alpha", "(1)", "--points", "-1"),
            ("plateaus", "--alpha", "(1)", "--max-len", "-1"),
            ("gap", "--alpha", "1110100110111(001)", "--m", "-1"),
        ],
        ids=["beta-not-rational", "digits-negative", "points-negative", "max-len-negative", "m-negative"],
    )
    def test_bad_argument_is_usage_error(self, argv):
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and "error" in proc.stderr

    def test_unwritable_out_is_usage_error(self, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        proc = run_cli("staircase", "--alpha", "(1)", "--points", "2", "--out", str(out))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and "error" in proc.stderr
        assert not out.exists()

    def test_bad_precision_env_is_usage_error(self):
        proc = run_cli("beta", "--alpha", "(1)", env={"BETAHOLE_PRECISION": "x"})
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and "BETAHOLE_PRECISION" in proc.stderr


# (argv, BETAHOLE_PRECISION or None): every subcommand, a usage error in
# between, and one run at 8 bits followed by runs that must not see it
IN_PROCESS_CALLS = [
    (("alpha", "--beta", "9/5", "--digits", "20"), None),
    (("beta", "--alpha", "(110)"), None),
    (("classify",), None),
    (("classify", "--alpha", "111010(110)"), None),
    (("beta", "--alpha", "(110)"), "8"),
    (("beta", "--alpha", "(110)"), None),
    (("classify", "--alpha", "111010(110)"), None),
    (("tau", "--alpha", "(110)"), None),
    (("plateaus", "--alpha", "(110)", "--max-len", "5"), None),
    (("windows", "--alpha", "(1110101100)"), None),
    (("transitive", "--alpha", "(1110101100)", "--word", "01011"), None),
    (("entropy", "--alpha", "(1)", "--lower", "(01)"), None),
    (("staircase", "--alpha", "(110)", "--points", "5"), None),
    (("bifdiff", "--chain", "01,001", "--which", "l"), None),
    (("gap", "--alpha", "1110100110111(001)", "--m", "3"), None),
]


class TestInProcess:
    def test_runs_in_one_process_match_fresh_processes(self, capsys, monkeypatch):
        from betahole import cli

        for argv, precision in IN_PROCESS_CALLS:
            if precision is None:
                monkeypatch.delenv("BETAHOLE_PRECISION", raising=False)
            else:
                monkeypatch.setenv("BETAHOLE_PRECISION", precision)
            code = cli.run(list(argv))
            out = capsys.readouterr().out
            proc = run_cli(*argv)  # inherits the environment set above
            assert (code, out) == (proc.returncode, proc.stdout), (argv, precision)

    def test_transitive_core_invariant_error_exits_3(self, capsys, monkeypatch):
        # only "inside a window" means no core; a library bug in the core
        # must not print "core": null with exit 0
        from betahole import cli, windows
        from betahole.errors import InvariantError

        def broken(*args, **kwargs):
            raise InvariantError("broken core")

        monkeypatch.setattr(windows, "_core", broken)
        code = cli.run(["transitive", "--alpha", "(1110101100)", "--word", "01011"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "broken core" in captured.err

    def test_transitive_classifies_once(self, capsys, monkeypatch):
        # the verdict and the core come from one classification
        from betahole import classifier, cli

        real = classifier.classify
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("betahole") and getattr(module, "classify", None) is real:
                monkeypatch.setattr(module, "classify", counting)
        # (1110101100) lies in the interior of a basic interval, so the
        # window list is built as well
        code = cli.run(["transitive", "--alpha", "(1110101100)", "--word", "01011"])
        assert code == 0, capsys.readouterr().err
        assert len(calls) == 1


class TestPlateauEntropyPath:
    # plateaus and staircase take every entropy from the kneading polynomial
    @pytest.mark.parametrize(
        "argv",
        [["plateaus", "--alpha", "1110100110111(001)", "--max-len", "7"],
         ["staircase", "--alpha", "(1110101100)", "--points", "30"]],
        ids=lambda argv: argv[0],
    )
    def test_no_automaton_or_perron_root(self, argv, capsys, monkeypatch):
        from betahole import cli, survivor_shift

        calls = []
        for name in ("build_automaton", "perron_root"):
            real = getattr(survivor_shift, name)
            monkeypatch.setattr(survivor_shift, name,
                                lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args))
        assert cli.run(argv) == 0
        out = capsys.readouterr().out
        assert calls == []
        if argv[0] == "plateaus":
            assert any(row.get("m") for row in json.loads(out)["plateaus"])  # an extended EBLI
        else:
            assert len(out.splitlines()) == 31

    def test_staircase_skips_lengths_that_cannot_reach_tau(self, capsys, monkeypatch):
        # tau is 0^70 1 0^inf, below (0^(n-1) 1)^inf for every n <= 20
        from betahole import cli, lyndon_intervals

        calls = []
        real = lyndon_intervals.is_beta_lyndon
        monkeypatch.setattr(lyndon_intervals, "is_beta_lyndon", lambda w, alpha: calls.append(w) or real(w, alpha))
        assert cli.run(["staircase", "--alpha", "(1%s)" % ("0" * 70), "--points", "3"]) == 0
        assert capsys.readouterr().out == "t_lo,t_hi,dim_lo,dim_hi,seq\n"
        assert calls == []


# An argument grammar over all 11 subcommands: admissible, inadmissible
# and malformed alphas, bad counts, and now and then a missing required
# flag.  Inputs stay small (--max-len <= 6, --points <= 5).
ADMISSIBLE = ["(1)", "(110)", "111010(110)", "(1110101100)", "1110100110111(001)", "11(01)", "(10000)"]
MALFORMED = ["(0)", "0(110)", "(01)", "1(0)", "", "abc", "(", "()", "12(1)", "(1)x"]
# half the draws are admissible, so that most reach the library
ALPHAS = st.booleans().flatmap(
    lambda ok: st.sampled_from(ADMISSIBLE) if ok else st.sampled_from(MALFORMED) | st.text("01()", max_size=8))
LOWERS = st.sampled_from(["(0)", "(01)", "(001)", "0(01)", "(011)", "01(1)"]) | ALPHAS


def _flag(name, values, required=True):
    """[name, value]; a required flag is left out one time in twenty (a
    usage error), an optional one half the time."""
    drop = st.integers(0, 19 if required else 1)
    return st.tuples(drop, values).map(lambda t: [] if t[0] == 0 else [name, t[1]])


def _given(name, values):
    """[name, value], always: for a flag whose default input is large."""
    return values.map(lambda v: [name, v])


def _counts(*good):
    """Mostly good counts, else a negative or non-integer one."""
    return st.sampled_from(2 * list(good) + ["-1", "x"])


COMMANDS = {
    "alpha": [_flag("--beta", st.sampled_from(["2", "9/5", "3/2", "1", "5/2", "1/0", "x"])),
              _flag("--digits", _counts("0", "8"), required=False)],
    "beta": [_flag("--alpha", ALPHAS)],
    "classify": [_flag("--alpha", ALPHAS), _flag("--max-depth", _counts("0", "1", "2", "64"), required=False)],
    "tau": [_flag("--alpha", ALPHAS)],
    "plateaus": [_flag("--alpha", ALPHAS), _given("--max-len", _counts("0", "1", "6"))],
    "windows": [_flag("--alpha", ALPHAS)],
    "transitive": [_flag("--alpha", ALPHAS),
                   _flag("--word", st.sampled_from(["01", "011", "01011", "01010111", "0011", "10", "1", "", "2"]))],
    "entropy": [_flag("--alpha", ALPHAS), _flag("--lower", LOWERS)],
    "staircase": [_flag("--alpha", ALPHAS), _given("--points", _counts("0", "1", "5")),
                  _flag("--out", st.sampled_from(["<out>", "<unwritable>"]), required=False)],
    "bifdiff": [_flag("--chain", st.sampled_from(["01", "01,001", "011", "0011", "01,", "1", ""])),
                _flag("--which", st.sampled_from(["l", "s", "r", "*"]))],
    "gap": [_flag("--alpha", ALPHAS), _flag("--m", _counts("0", "2", "5"))],
}
ARGV = st.sampled_from(sorted(COMMANDS)).flatmap(
    lambda name: st.tuples(*COMMANDS[name]).map(lambda parts: [name] + [a for part in parts for a in part]))


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


class TestExitCodeContract:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=ARGV)
    def test_exit_code_and_stdout(self, argv, out_dir, capsys, monkeypatch):
        from betahole import cli

        monkeypatch.delenv("BETAHOLE_PRECISION", raising=False)
        paths = {"<out>": str(out_dir / "stairs.csv"), "<unwritable>": str(out_dir / "missing" / "stairs.csv")}
        argv = [paths.get(a, a) for a in argv]
        capsys.readouterr()
        code = cli.run(argv)
        out = capsys.readouterr().out
        assert code in (0, 2, 3, 4), argv
        if code == 4:
            # a chain deeper than --max-depth, printed as the partial record
            assert argv[0] == "classify" and "--max-depth" in argv, argv
            assert set(json.loads(out)) == {"alpha", "chain", "position", "schema"}, argv
        if code in (2, 3):
            assert out == "", argv
        elif argv[0] == "staircase" and code == 0:
            # CSV on stdout, or nothing when it went to --out
            assert out == "" if "--out" in argv else out.startswith("t_lo,t_hi,dim_lo,dim_hi,seq\n"), argv
        else:
            assert out.endswith("\n") and out.count("\n") == 1, argv
            assert json.loads(out)["schema"] == "betahole/1", argv

    def test_depth_exceeded_prints_json(self, capsys):
        # (10000) is the left endpoint of I^00001: --max-depth 0 stops
        # before the first factor, and --max-depth 2 reaches it although
        # its Stern-Brocot descent takes 4 steps
        from betahole import cli

        code = cli.run(["classify", "--alpha", "(10000)", "--max-depth", "0"])
        assert code == 4
        assert json.loads(capsys.readouterr().out) == {
            "alpha": "(10000)", "chain": [], "position": "depth_limited", "schema": "betahole/1"}
        code = cli.run(["classify", "--alpha", "(10000)", "--max-depth", "2"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert (data["chain"], data["position"]) == (["00001"], "left")


class TestLongFareyFactor:
    # (1 0^k) is the left endpoint of I^{0^k 1}, whose Stern-Brocot
    # descent takes k steps, more than the default --max-depth of 64
    @pytest.mark.parametrize(
        "argv",
        [["classify"], ["tau"], ["plateaus", "--max-len", "4"], ["staircase", "--points", "3"], ["windows"],
         ["gap", "--m", "3"], ["transitive", "--word", "01"]],
        ids=lambda argv: argv[0],
    )
    def test_no_command_exits_4(self, argv, capsys):
        from betahole import cli

        code = cli.run([argv[0], "--alpha", "(1%s)" % ("0" * 70)] + argv[1:])
        assert code in (0, 3), (argv, capsys.readouterr().err)

    @pytest.mark.parametrize("k", [70, 500])
    def test_classify(self, k, capsys):
        from betahole import cli

        code = cli.run(["classify", "--alpha", "(1%s)" % ("0" * k)])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert (data["chain"], data["position"]) == (["0" * k + "1"], "left")
