import json
import os
import subprocess
import sys

import pytest


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
        # only "inside a window" (PreconditionError) means no core; a
        # library bug must not print "core": null with exit 0
        from betahole import cli, windows
        from betahole.errors import InvariantError

        def broken(*args, **kwargs):
            raise InvariantError("broken core")

        monkeypatch.setattr(windows, "transitive_core", broken)
        code = cli.run(["transitive", "--alpha", "(1110101100)", "--word", "01011"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "broken core" in captured.err

    def test_transitive_classifies_once(self, capsys, monkeypatch):
        # the record classified by the command reaches build_windows in
        # both is_transitive and transitive_core
        from betahole import classifier, cli

        real = classifier.classify
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("betahole") and getattr(module, "classify", None) is real:
                monkeypatch.setattr(module, "classify", counting)
        # (1110101100) lies in the interior of a basic interval, so both
        # calls build the window list
        code = cli.run(["transitive", "--alpha", "(1110101100)", "--word", "01011"])
        assert code == 0, capsys.readouterr().err
        assert len(calls) == 1
