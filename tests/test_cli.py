import argparse
import json
import re
import subprocess
import sys

import pytest

import monoidkit as mk
from monoidkit.cli import build_parser, run

M6 = "M6"
G22 = "gmn:2,2"


@pytest.fixture
def g22_file(tmp_path):
    # g(2,2) read back from a file: a parsed presentation carries no
    # cancellativity flag, while gmn:2,2 is built as a known cancellative one
    path = tmp_path / "g22"
    path.write_text(mk.serialize_presentation(mk.build_gmn(2, 2).presentation))
    return str(path)


def out_lines(capsys):
    return capsys.readouterr().out.splitlines()


REPORT_KEYS = {"command", "presentation_sha", "result", "bounds", "truncated", "elapsed_ms"}
ERROR_KEYS = {"command", "error", "truncated", "exit_code"}  # a failed run's report


def json_report(capsys):
    return json.loads(capsys.readouterr().out)


def test_equal_true(capsys):
    assert run(["equal", M6, "cdeaf", "ceafd"]) == 0
    assert "result: true" in out_lines(capsys)


def test_equal_false_still_exit_zero(capsys):
    assert run(["equal", M6, "deaf", "eafd"]) == 0
    assert "result: false" in out_lines(capsys)


def test_equal_trivial(capsys):
    assert run(["equal", M6, "a", "a"]) == 0
    assert "result: true" in out_lines(capsys)


def test_json_report_shape(capsys):
    assert run(["--json", "equal", M6, "cdeaf", "ceafd"]) == 0
    rep = json_report(capsys)
    assert rep["result"] == {"equal": True}
    assert rep["truncated"] is False
    assert set(rep) == REPORT_KEYS
    assert rep["command"][0] == "--json"


def test_json_flag_after_subcommand(capsys):
    assert run(["equal", M6, "cdeaf", "ceafd", "--json"]) == 0
    assert json_report(capsys)["result"] == {"equal": True}


def test_json_words_round_trip(capsys):
    assert run(["class", G22, "s.t1.t2", "--json"]) == 0
    rep = json_report(capsys)
    p = mk.build_gmn(2, 2).presentation
    for toks in rep["result"]["members"]:
        w = tuple(toks)
        assert mk.parse_word(p, mk.format_word(p, w)) == w
    assert sorted(rep["result"]["canonical"]) == sorted(["s", "t1", "t2"])


def test_parse_reports_classification(capsys):
    assert run(["parse", M6]) == 0
    out = capsys.readouterr().out
    assert "relations: 12" in out and "homogeneous: True" in out


def test_class_members(capsys):
    assert run(["class", M6, "cdeaf"]) == 0
    out = capsys.readouterr().out
    assert "size: 15" in out and "canonical: acdef" in out
    # past the member limit a class lists no members unless --full asks
    word = "s.t1.t2.t3.t4.u1.u2.u3.u4"
    assert run(["class", "gmn:4,4", word]) == 0
    out = out_lines(capsys)
    assert "size: 630" in out and "  (630 members; use --full to list)" in out
    assert run(["class", "gmn:4,4", word, "--json"]) == 0
    rep = json_report(capsys)
    assert rep["result"]["size"] == 630 and "members" not in rep["result"]


def test_divides(capsys):
    assert run(["divides", "--side", "left", G22, "t1", "s.t1.t2"]) == 0
    out = capsys.readouterr().out
    assert "divides: true" in out and "t2.s" in out


def test_mcm(capsys):
    assert run(["mcm", G22, "t1", "t2", "--max-len", "4", "--json"]) == 0
    rep = json_report(capsys)
    assert rep["result"]["lcm_up_to_bound"] is None
    assert {tuple(w) for w in rep["result"]["minimal"]} == {
        ("s", "t1", "t2"),
        ("t1", "t2", "u1", "s"),
        ("t1", "t2", "u2", "s"),
    }


def test_fundamental_and_garside(capsys):
    assert run(["fundamental", G22, "s.t1.t2.u1.u2"]) == 0
    assert "fundamental: true" in capsys.readouterr().out
    assert run(["fundamental", G22, "t1"]) == 0
    assert "fundamental: false" in capsys.readouterr().out
    assert run(["fundamental", G22, "1"]) == 0
    assert "fundamental: false (the empty word is not fundamental)" in out_lines(capsys)
    assert run(["garside", G22, "s.t1.t2.u1.u2", "--json"]) == 0
    assert json_report(capsys)["result"]["is_garside"] is True


def test_cancel_search(capsys):
    assert run(["cancel-search", M6, "--max-len", "5", "--json"]) == 0
    rep = json_report(capsys)
    failures = {(f["side"], tuple(f["context"]), tuple(f["x"]), tuple(f["y"]))
                for f in rep["result"]["failures"]}
    assert ("left", ("c",), tuple("deaf"), tuple("eafd")) in failures


def test_gmn_run_matches_file(g22_file, capsys):
    # gmn --run CMD ARGS is CMD gmn:2,2 ARGS, and gmn:2,2 is its emitted file
    for argv, file_argv in (
        (["gmn", "--m", "2", "--n", "2", "--run", "cancel-search", "--max-len", "5"],
         ["cancel-search", g22_file, "--max-len", "5"]),
        (["cancel-search", "gmn:2,2", "--max-len", "5"],
         ["cancel-search", g22_file, "--max-len", "5"]),
        (["parse", "gmn:2,2"], ["parse", g22_file]),
    ):
        assert run(argv + ["--json"]) == 0
        rep = json_report(capsys)
        assert run(file_argv + ["--json"]) == 0
        rep2 = json_report(capsys)
        assert rep["result"] == rep2["result"]
        assert rep["presentation_sha"] == rep2["presentation_sha"]
    assert rep["result"]["relation_count"] == 8
    assert run(["parse", "gmn:0,2"]) == 2
    assert run(["parse", "gmn:2"]) == 2


def test_gmn_run_cannot_nest_sourceless_commands(capsys):
    for cmd in (["claim", "M6"], ["gmn", "--m", "2", "--n", "2"]):
        assert run(["gmn", "--m", "2", "--n", "2", "--run"] + cmd) == 2
        assert "cannot nest" in capsys.readouterr().err


def test_gmn_run_flags_after_command_win(capsys):
    # an explicit --cap after the command beats the one before --run, even
    # when it equals the default
    for cap in ("1000000", "50"):
        assert run(["gmn", "--m", "2", "--n", "2", "--cap", "2", "--run",
                    "class", "s.t1.t2", "--cap", cap]) == 0
        assert "size: 3" in out_lines(capsys)
    assert run(["gmn", "--m", "2", "--n", "2", "--cap", "2", "--run",
                "class", "s.t1.t2"]) == 3
    capsys.readouterr()
    for argv in (["--json", "gmn", "--m", "2", "--n", "2", "--run"],
                 ["gmn", "--m", "2", "--n", "2", "--json", "--run"]):
        assert run(argv + ["equal", "t1.u1", "u1.t1"]) == 0
        rep = json_report(capsys)
        assert rep["result"] == {"equal": True}
        assert rep["command"] == argv + ["equal", "t1.u1", "u1.t1"]


def test_gmn_emit_round_trips(capsys):
    assert run(["gmn", "--m", "3", "--n", "2", "--emit"]) == 0
    text = capsys.readouterr().out
    p = mk.parse_presentation(text)
    assert p == mk.build_gmn(3, 2).presentation


def test_group_equal(g22_file, capsys):
    assert run(["group-equal", g22_file, "t1.u1.t1~.u1~", "1", "--verify-to", "4"]) == 0
    assert "result: true" in capsys.readouterr().out
    assert run(["gmn", "--m", "2", "--n", "2", "--run", "group-equal", "M6",
                "t1.t2.t1~.t2~", "1"]) == 2  # --run supplies the source itself
    capsys.readouterr()
    assert run(["gmn", "--m", "2", "--n", "2", "--run", "group-equal",
                "t1.t2.t1~.t2~", "1"]) == 0
    assert "result: false" in capsys.readouterr().out
    # a --delta that is not fundamental is a precondition violation
    assert run(["group-equal", G22, "t1", "t1", "--delta", "t1"]) == 4
    assert capsys.readouterr().err == "error: t1 is not fundamental; pass --delta\n"


def test_group_equal_refuses_without_injectivity(g22_file, capsys):
    code = run(["group-equal", g22_file, "t1.u1.t1~.u1~", "1"])
    assert code == 4


def test_group_equal_refuses_flagged_fixture(capsys):
    # M6 has no failure up to length 4 but is flagged non-cancellative
    assert run(["group-equal", M6, "cdeaf", "ceafd", "--verify-to", "4"]) == 4
    assert "flagged non-cancellative" in capsys.readouterr().err
    assert run(["group-equal", M6, "cdeaf", "ceafd", "--assume-injective"]) == 0
    assert "result: true" in capsys.readouterr().out


def test_center_scan(capsys):
    assert run(["center-scan", G22, "--max-len", "5", "--json"]) == 0
    rep = json_report(capsys)
    central = {tuple(w) for w in rep["result"]["central"]}
    assert central == {(), ("s", "t1", "t2", "u1", "u2")}


def test_claims(capsys):
    assert run(["claim", "M6", "--k", "1"]) == 0
    assert "reproduced: true" in capsys.readouterr().out
    assert run(["claim", "M6p"]) == 0
    capsys.readouterr()
    assert run(["claim", "M6p_completed", "--k", "2"]) == 0
    capsys.readouterr()
    assert run(["claim", "no-lcm"]) == 0
    capsys.readouterr()
    assert run(["claim", "center"]) == 0
    capsys.readouterr()
    assert run(["claim", "M6", "--id", "cdea"]) == 0
    capsys.readouterr()
    # the least bounds at which the witnesses appear: m+2 and m+n+1
    assert run(["claim", "no-lcm", "--max-len", "4"]) == 0
    capsys.readouterr()
    assert run(["claim", "center", "--max-len", "5"]) == 0
    capsys.readouterr()


def test_claim_no_lcm_reports_the_minimal_multiples(capsys):
    # the report carries what mcm found; with n = 1 (an lcm exists) the
    # claim is a usage error, see test_usage_errors
    assert run(["claim", "no-lcm", "--json"]) == 0
    claim = json_report(capsys)["result"]["claims"][0]
    assert claim["lcm_up_to_bound"] is None
    assert claim["minimal"] == claim["predicted"] == [
        ["s", "t1", "t2"], ["t1", "t2", "u1", "s"], ["t1", "t2", "u2", "s"]]


def test_claim_center_checks_the_powers_of_delta(capsys):
    # at 2|delta| the center holds 1, delta and delta^2
    powers = [[], ["s", "t1", "t2", "u1", "u2"],
              ["s", "s", "t1", "t2", "t1", "t2", "u1", "u2", "u1", "u2"]]
    argv = ["claim", "center", "--m", "2", "--n", "2", "--max-len", "10"]
    assert run(argv) == 0
    assert out_lines(capsys)[1:3] == ["claim center: ok", "reproduced: true"]
    assert run(argv + ["--json"]) == 0
    rep = json_report(capsys)
    claim = rep["result"]["claims"][0]
    assert claim["central"] == claim["predicted"] == powers
    assert rep["result"]["reproduced"] is True


def test_claim_bounds_name_only_what_the_claim_reads(capsys):
    # k indexes the fixture claims only, and a g(m,n) claim refuses it; a
    # g(m,n) claim reports its length bound
    assert run(["claim", "no-lcm", "--k", "7", "--json"]) == 2
    assert json_report(capsys)["error"] == "claim no-lcm does not read --k"
    assert run(["claim", "no-lcm", "--json"]) == 0
    assert json_report(capsys)["bounds"] == {"cap": mk.DEFAULT_CAP, "max_len": 4}
    assert run(["claim", "M6p", "--k", "2", "--json"]) == 0
    assert json_report(capsys)["bounds"] == {"cap": mk.DEFAULT_CAP, "k": 2}


def test_claim_unknown(capsys):
    assert run(["claim", "M9"]) == 2


def test_presentation_from_pipe():
    emit = subprocess.run(
        [sys.executable, "-m", "monoidkit", "gmn", "--m", "2", "--n", "2", "--emit"],
        capture_output=True, text=True, check=True,
    )
    parsed = subprocess.run(
        [sys.executable, "-m", "monoidkit", "parse", "/dev/stdin"],
        input=emit.stdout, capture_output=True, text=True, check=True,
    )
    assert "relations: 8" in parsed.stdout


def test_bare_fixture_name_as_source(capsys):
    assert run(["equal", "M6", "cdeaf", "ceafd"]) == 0
    assert "result: true" in capsys.readouterr().out


def test_usage_errors(capsys, tmp_path):
    def source(name, text):
        (tmp_path / name).write_text(text)
        return str(tmp_path / name)

    assert run(["equal", "no/such/file", "a", "b"]) == 2
    capsys.readouterr()
    assert run(["equal", M6, "zz", "a"]) == 2
    capsys.readouterr()
    assert run(["nonsense"]) == 2
    capsys.readouterr()
    for k in ("0", "-2"):
        assert run(["claim", "M6", "--k", k]) == 2
        assert f"--k must be at least 1, got {k}" in capsys.readouterr().err
    # a bound below its least value is a usage error, checked before any work
    for argv, message in (
        (["class", M6, "a", "--cap", "0"], "--cap must be at least 1, got 0"),
        (["--cap", "-1", "equal", M6, "a", "a"], "--cap must be at least 1, got -1"),
        (["cancel-search", M6, "--max-len", "-3"], "--max-len must be at least 0, got -3"),
        (["center-scan", G22, "--max-len", "-1"], "--max-len must be at least 0, got -1"),
        (["mcm", G22, "t1", "t2", "--max-len", "-1"], "--max-len must be at least 0, got -1"),
        (["claim", "no-lcm", "--max-len", "-1"], "--max-len must be at least 0, got -1"),
        (["group-equal", G22, "t1", "1", "--verify-to", "-1"],
         "--verify-to must be at least 0, got -1"),
        (["gmn", "--m", "2", "--n", "2", "--cap", "0", "--run", "equal", "t1", "t1"],
         "--cap must be at least 1, got 0"),
        # a claim bound below its witnesses' length could not decide it
        (["claim", "no-lcm", "--max-len", "3"], "--max-len must be at least 4 for claim no-lcm, got 3"),
        (["claim", "center", "--max-len", "2"], "--max-len must be at least 5 for claim center, got 2"),
        (["claim", "no-lcm", "--m", "3", "--max-len", "4"],
         "--max-len must be at least 5 for claim no-lcm, got 4"),
        (["claim", "center", "--n", "3", "--max-len", "5"],
         "--max-len must be at least 6 for claim center, got 5"),
        # g(m,1) has the lcm s.t1...tm, so the claim cannot hold there
        (["claim", "no-lcm", "--m", "2", "--n", "1"],
         "the no-lcm claim needs --n >= 2 (with n = 1, t1 and t2 have the lcm s.t1...tm)"),
        # a one-letter family's letter is central, so the center claim cannot
        # hold there either
        (["claim", "center", "--m", "1"], "the center claim needs --m >= 2 (with m = 1, t1 is central)"),
        (["claim", "center", "--m", "2", "--n", "1"],
         "the center claim needs --n >= 2 (with n = 1, u1 is central)"),
        (["claim", "no-lcm", "--m", "1"], "the no-lcm claim needs --m >= 2 (it compares t1 and t2)"),
        # a claim refuses a bound that it does not read
        (["claim", "M6", "--m", "5", "--max-len", "3"], "claim M6 does not read --m, --max-len"),
        (["claim", "M6p", "--n", "3"], "claim M6p does not read --n"),
        (["claim", "no-lcm", "--k", "7"], "claim no-lcm does not read --k"),
        (["claim", "center", "--k", "1"], "claim center does not read --k"),
        # a malformed presentation file is refused with the line at fault
        (["parse", source("colon", "generators: a b\nrelation ab = ba\n")],
         "line 2: expected '<directive>: ...'"),
        (["parse", source("empty", "generators:\n")], "line 1: empty generator list"),
        (["parse", source("twice", "generators: a a\n")], "line 1: duplicate generator names"),
        (["parse", source("one-side", "generators: a b\nrelation: ab\n")],
         "line 2: relation needs at least two sides"),
        # a g(m,n) claim has one id, as a fixture claim has its families
        (["claim", "M6", "--id", "bogus"], "unknown claim id for M6: bogus"),
        (["claim", "no-lcm", "--id", "bogus", "--k", "7"], "unknown claim id for no-lcm: bogus"),
        (["claim", "center", "--id", "cdea"], "unknown claim id for center: cdea"),
        # check_claim is the one gate for --k, so an unread --k is named as such
        (["claim", "no-lcm", "--k", "0"], "claim no-lcm does not read --k"),
    ):
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert run(argv + ["--json"]) == 2
        rep = json_report(capsys)
        assert rep["error"] == message and rep["exit_code"] == 2
    # --run with no command after it (--json goes first: --run takes the rest)
    argv = ["gmn", "--m", "2", "--n", "2", "--run"]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: gmn --run needs a command to run\n"
    assert run(["--json", *argv]) == 2
    rep = json_report(capsys)
    assert rep["error"] == "gmn --run needs a command to run" and rep["exit_code"] == 2
    # a flag right after --run would be taken for the command; flags before
    # --run still choose the report
    for flag, head in ((["--json"], []), (["--cap", "5"], ["--json"])):
        message = (f"gmn --run takes the command first, got '{flag[0]}'; "
                   "put flags before --run or after the command")
        assert run([*head, *argv, *flag, "equal", "t1", "t1"]) == 2
        if head:
            rep = json_report(capsys)
            assert rep["error"] == message and rep["exit_code"] == 2
        else:
            assert capsys.readouterr().err == f"error: {message}\n"
    # the least values themselves are accepted
    assert run(["class", M6, "a", "--cap", "1"]) == 0
    assert "size: 1" in out_lines(capsys)
    assert run(["center-scan", G22, "--max-len", "0"]) == 0
    assert "central elements up to length 0: 1" in out_lines(capsys)


# one invocation of every subcommand that takes a source
SOURCED = {
    "parse": ["parse", M6],
    "class": ["class", M6, "cdeaf"],
    "equal": ["equal", M6, "cdeaf", "ceafd"],
    "divides": ["divides", "--side", "left", G22, "t1", "s.t1.t2"],
    "mcm": ["mcm", G22, "t1", "t2", "--max-len", "3"],
    "fundamental": ["fundamental", G22, "s.t1.t2.u1.u2"],
    "garside": ["garside", G22, "s.t1.t2.u1.u2"],
    "cancel-search": ["cancel-search", M6, "--max-len", "4"],
    "group-equal": ["group-equal", G22, "t1.u1.t1~.u1~", "1", "--verify-to", "3"],
    "center-scan": ["center-scan", G22, "--max-len", "3"],
    "gmn-run": ["gmn", "--m", "2", "--n", "2", "--run", "equal", "t1.u1", "u1.t1"],
}


@pytest.mark.parametrize("name", SOURCED)
def test_common_flags_before_and_after_command(name, capsys):
    # --json and --cap mean the same wherever they stand; a default set on
    # the shared flag actions would make a subcommand drop a flag given
    # before it
    command = SOURCED[name]
    reports = []
    for argv in (["--json", "--cap", "5000"] + command,
                 command + ["--json", "--cap", "5000"],
                 ["--json"] + command + ["--cap", "5000"],
                 ["--cap", "5000"] + command + ["--json"]):
        assert run(argv) == 0, argv
        reports.append(json_report(capsys))
    assert reports[0]["bounds"]["cap"] == 5000
    for rep in reports[1:]:
        assert (rep["result"], rep["bounds"]) == (reports[0]["result"], reports[0]["bounds"])


# one report of each kind: every sourced command, a claim and one error
# with each of the exit codes 2, 3 and 4
ONE_LINE = {
    **SOURCED,
    "claim": ["claim", M6, "--k", "1"],
    "exit-2": ["equal", M6, "a", "b", "--cap", "0"],
    "exit-3": ["class", M6, "cdeaf", "--cap", "3"],
    "exit-4": ["group-equal", M6, "a", "b", "--verify-to", "2"],
}


@pytest.mark.parametrize("name", ONE_LINE)
def test_json_report_is_one_line(name, capsys):
    code = run(ONE_LINE[name] + ["--json"])
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.endswith("\n")
    rep = json.loads(out)
    if name.startswith("exit-"):
        assert code == rep["exit_code"] == int(name[5:])
        assert set(rep) == ERROR_KEYS
    else:
        assert code == 0 and set(rep) == REPORT_KEYS


def test_cap_exceeded_exit_code(capsys):
    assert run(["class", M6, "cdeaf", "--cap", "3"]) == 3
    err = capsys.readouterr().err
    assert "truncated" in err


def test_cap_exceeded_json(capsys):
    assert run(["class", M6, "cdeaf", "--cap", "3", "--json"]) == 3
    rep = json_report(capsys)
    assert rep["truncated"] is True and "error" in rep


def test_non_homogeneous_exit_code(tmp_path, capsys):
    f = tmp_path / "bad"
    f.write_text("generators: a\nrelation: a = aa\n")
    assert run(["class", str(f), "a"]) == 4


NON_HOMOGENEOUS = [
    ["class", "a"],
    ["equal", "a", "aa"],
    ["divides", "a", "aa", "--side", "left"],
    ["divides", "a", "aa", "--side", "right"],
    ["mcm", "a", "--max-len", "2"],
    ["fundamental", "a"],
    ["garside", "a"],
    ["cancel-search", "--max-len", "2"],
    ["group-equal", "a", "a"],
    ["group-equal", "a", "a", "--assume-injective"],
    ["center-scan", "--max-len", "2"],
]


@pytest.mark.parametrize("command", NON_HOMOGENEOUS, ids=" ".join)
def test_non_homogeneous_refused_by_every_command(command, tmp_path, capsys):
    f = tmp_path / "bad"
    f.write_text("generators: a\nrelation: a = aa\n")
    argv = [command[0], str(f), *command[1:]]
    message = "presentation is not length-preserving; classes may be infinite"
    assert run(argv) == 4
    assert capsys.readouterr().err.splitlines()[0] == f"error: {message}"
    assert run(argv + ["--json"]) == 4
    rep = json_report(capsys)
    assert (rep["error"], rep["exit_code"]) == (message, 4)


@pytest.mark.parametrize("text, reason, atom", [
    ("generators: a b\n", "no letter completes a quotient of atom 'a'", "a"),
    ("generators: a b\nrelation: ab = bb\n", "no atom permutation fits the quotients", None),
])
def test_fundamental_false_names_the_obstruction(text, reason, atom, tmp_path, capsys):
    f = tmp_path / "p"
    f.write_text(text)
    assert run(["fundamental", str(f), "ab"]) == 0
    assert f"fundamental: false ({reason})" in out_lines(capsys)
    assert run(["fundamental", str(f), "ab", "--json"]) == 0
    rep = json_report(capsys)["result"]
    assert rep == {"fundamental": False, "reason": reason, "atom": atom}


def test_cli_matches_library(capsys):
    m6 = mk.fixture("M6")
    lib = mk.equal(tuple("cdeaf"), tuple("ceafd"), m6)
    assert run(["equal", M6, "cdeaf", "ceafd", "--json"]) == 0
    assert json_report(capsys)["result"]["equal"] == lib


# -- the parser is built once per process ----------------------------------


def test_import_builds_no_parser():
    # importing the CLI must cost no parser: it is built on the first run()
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import monoidkit.cli\n"
        "print(len(built))\n"
    )
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, check=True).stdout
    assert out == "0\n"


def test_later_runs_build_no_parser(monkeypatch, capsys):
    run(["parse", M6])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(["parse", M6]) == 0
    # the re-parse of gmn --run uses the same parser
    assert run(["gmn", "--m", "2", "--n", "2", "--run", "parse"]) == 0
    assert run(["nonsense"]) == 2
    assert built == []


_ELAPSED = re.compile(r'"elapsed_ms": \d+|elapsed: \d+ ms')


def _outcome(argv, capsys):
    code = run(argv)
    out = capsys.readouterr()
    return code, _ELAPSED.sub("elapsed", out.out), out.err


# calls run in sequence in one process, with the exit code of each
SEQUENCES = {
    "json-then-text": [(["--json", "equal", M6, "cdeaf", "ceafd"], 0),
                       (["equal", M6, "cdeaf", "ceafd"], 0)],
    "cap-then-default": [(["class", M6, "cdeaf", "--cap", "1"], 3),
                         (["class", M6, "cdeaf"], 0)],
    "run-then-plain": [(["gmn", "--m", "2", "--n", "2", "--cap", "50", "--run",
                         "equal", "t1.u1", "u1.t1"], 0),
                       (["gmn", "--m", "2", "--n", "2"], 0),
                       (["equal", G22, "t1.u1", "u1.t1"], 0)],
    "usage-then-valid": [(["equal", M6, "cdeaf", "--side", "left"], 2),
                         (["equal", M6, "cdeaf", "ceafd"], 0)],
}


@pytest.mark.parametrize("name", SEQUENCES)
def test_no_state_carries_between_runs(name, capsys):
    # each call alone, on a parser built afresh as in a new process, against
    # the same calls in sequence on one shared parser
    calls = SEQUENCES[name]
    alone = []
    for argv, _ in calls:
        build_parser.cache_clear()
        alone.append(_outcome(argv, capsys))
    assert [code for code, _, _ in alone] == [code for _, code in calls]
    build_parser.cache_clear()
    assert [_outcome(argv, capsys) for argv, _ in calls] == alone


def test_cancel_search_text_report(capsys):
    assert run(["cancel-search", M6, "--max-len", "5"]) == 0
    lines = out_lines(capsys)
    start = lines.index("failures up to length 5: 8")
    assert lines[start + 1:-1] == [
        f"  {side} context={g} x={x} y={y}"
        for side in ("left", "right")
        for g, x, y in (("b", "cefa", "efac"), ("c", "bfea", "feab"),
                        ("c", "deaf", "eafd"), ("d", "cefa", "efac"))
    ]


def test_cancel_search_at_length_zero(capsys):
    assert run(["cancel-search", M6, "--max-len", "0", "--json"]) == 0
    assert json_report(capsys)["result"] == {"count": 0, "failures": []}


def test_closed_pipe_exits_like_sigpipe():
    # the report, about 150 KB, outgrows the pipe's buffer, so the writer
    # is still printing when the reader closes the pipe after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "monoidkit", "cancel-search", M6, "--max-len", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert proc.stdout.readline() == f"command: monoidkit cancel-search {M6} --max-len 8\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert "Traceback" not in err
