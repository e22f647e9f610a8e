import json
from pathlib import Path

import monoidkit as mk
from monoidkit.cli import run

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
M6 = str(FIXTURES / "M6")
G22 = str(FIXTURES / "g22")


def out_lines(capsys):
    return capsys.readouterr().out.splitlines()


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
    assert set(rep) == {"command", "presentation_sha", "result", "bounds",
                        "truncated", "elapsed_ms"}
    assert rep["command"][0] == "--json"


def test_json_flag_after_subcommand(capsys):
    assert run(["equal", M6, "cdeaf", "ceafd", "--json"]) == 0
    assert json_report(capsys)["result"] == {"equal": True}


def test_json_words_round_trip(capsys):
    assert run(["class", G22, "s.t1.t2", "--json"]) == 0
    rep = json_report(capsys)
    p = mk.parse_presentation((FIXTURES / "g22").read_text())
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
    assert run(["garside", G22, "s.t1.t2.u1.u2", "--json"]) == 0
    assert json_report(capsys)["result"]["is_garside"] is True


def test_cancel_search(capsys):
    assert run(["cancel-search", M6, "--max-len", "5", "--json"]) == 0
    rep = json_report(capsys)
    failures = {(f["side"], tuple(f["context"]), tuple(f["x"]), tuple(f["y"]))
                for f in rep["result"]["failures"]}
    assert ("left", ("c",), tuple("deaf"), tuple("eafd")) in failures


def test_gmn_run_matches_file(capsys):
    # gmn --run CMD ARGS is CMD gmn:2,2 ARGS, and gmn:2,2 is the g22 file
    for argv, file_argv in (
        (["gmn", "--m", "2", "--n", "2", "--run", "cancel-search", "--max-len", "5"],
         ["cancel-search", G22, "--max-len", "5"]),
        (["cancel-search", "gmn:2,2", "--max-len", "5"], ["cancel-search", G22, "--max-len", "5"]),
        (["parse", "gmn:2,2"], ["parse", G22]),
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


def test_group_equal(capsys):
    assert run(["group-equal", G22, "t1.u1.t1~.u1~", "1", "--verify-to", "4"]) == 0
    assert "result: true" in capsys.readouterr().out
    assert run(["gmn", "--m", "2", "--n", "2", "--run", "group-equal", G22,
                "t1.t2.t1~.t2~", "1"]) == 2  # --run supplies the source itself
    capsys.readouterr()
    assert run(["gmn", "--m", "2", "--n", "2", "--run", "group-equal",
                "t1.t2.t1~.t2~", "1"]) == 0
    assert "result: false" in capsys.readouterr().out


def test_group_equal_refuses_without_injectivity(capsys):
    code = run(["group-equal", G22, "t1.u1.t1~.u1~", "1"])
    assert code == 4


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


def test_claim_unknown(capsys):
    assert run(["claim", "M9"]) == 2


def test_presentation_from_pipe():
    import subprocess
    import sys

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


def test_usage_errors(capsys):
    assert run(["equal", "no/such/file", "a", "b"]) == 2
    capsys.readouterr()
    assert run(["equal", M6, "zz", "a"]) == 2
    capsys.readouterr()
    assert run(["nonsense"]) == 2
    capsys.readouterr()
    for k in ("0", "-2"):
        assert run(["claim", "M6", "--k", k]) == 2
        assert "--k must be at least 1" in capsys.readouterr().err


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


def test_cli_matches_library(capsys):
    m6 = mk.fixture("M6")
    lib = mk.equal(tuple("cdeaf"), tuple("ceafd"), m6)
    assert run(["equal", M6, "cdeaf", "ceafd", "--json"]) == 0
    assert json_report(capsys)["result"]["equal"] == lib
