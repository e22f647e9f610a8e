import contextlib
import io
import json

import pytest

import monoidkit as mk
from monoidkit.cli import run

# every fixture family at k = 1, 2, and the two g(m,n) claims on g(2,2)
CASES = [(name, {"k": k, "family": family})
         for name, families in (("M6", ("cdea", "bfe", "cef")), ("M6p", ("dbcefa",)),
                                ("M6p_completed", ("acde", "cefa", "eabc")))
         for family in families for k in (1, 2)]
CASES += [("no-lcm", {}), ("center", {})]


def cli_report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv + ["--json"])
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("name, kwargs", CASES)
def test_cli_renders_the_library_report(name, kwargs):
    rep = mk.check_claim(name, **kwargs)
    assert rep.reproduced
    argv = ["claim", name]
    if kwargs:
        argv += ["--k", str(kwargs["k"]), "--id", kwargs["family"]]
    code, cli = cli_report(argv)
    assert code == 0
    # words are tuples in the library and arrays in the report
    payload = {"claims": rep.claims, "reproduced": rep.reproduced}
    assert json.loads(json.dumps(payload)) == cli["result"]
    assert cli["bounds"] == {"cap": mk.DEFAULT_CAP, **rep.bounds}


def test_check_claim_without_the_cli():
    rep = mk.check_claim("M6p_completed", k=3)
    assert [c["id"] for c in rep.claims] == ["acde", "cefa", "eabc"]
    assert rep.bounds == {"k": 3} and rep.reproduced
    rep = mk.check_claim("no-lcm", m=3, n=2)
    assert rep.bounds == {"max_len": 5}
    (claim,) = rep.claims
    assert claim["minimal"] == claim["predicted"] and claim["lcm_up_to_bound"] is None
    # at its default bound |delta| the center claim predicts 1 and delta
    assert mk.check_claim("center").claims[0]["predicted"] == [(), ("s", "t1", "t2", "u1", "u2")]


@pytest.mark.parametrize("name, kwargs, message", [
    ("M9", {}, "unknown claim 'M9'"),
    ("M6", {"family": "bogus"}, "unknown claim id for M6: bogus"),
    ("no-lcm", {"family": "bogus"}, "unknown claim id for no-lcm: bogus"),
    ("center", {"max_len": 4}, "--max-len must be at least 5 for claim center, got 4"),
    ("M6", {"m": 3, "n": 2}, "claim M6 does not read --m, --n"),
    ("M6p_completed", {"max_len": 6}, "claim M6p_completed does not read --max-len"),
    ("no-lcm", {"k": 1}, "claim no-lcm does not read --k"),
    ("center", {"k": 2, "m": 3}, "claim center does not read --k"),
    ("M6", {"k": 0}, "--k must be at least 1, got 0"),
    ("M6p_completed", {"k": -1}, "--k must be at least 1, got -1"),
])
def test_check_claim_refuses_with_value_error(name, kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        mk.check_claim(name, **kwargs)


@pytest.mark.parametrize("name, bound, ks, families", [
    ("M6", 7, (1, 2, 3), {"cdea": ("left", "c"), "bfe": ("right", "c"), "cef": ("right", "b")}),
    ("M6p_completed", 9, (1, 2), {"acde": ("right", "f"), "cefa": ("right", "b"),
                                  "eabc": ("right", "d")}),
])
def test_cancelled_pairs_are_search_failures(name, bound, ks, families):
    # at every k whose pair fits the bound, the cancelled pair is a failure of
    # the search, on the side and under the letter that the claim cut off
    # (M6p's dbcefa cancels two letters, so it has no single-letter failure)
    p = mk.fixture(name)
    found = {(f.side, f.context, frozenset((f.x, f.y))) for f in mk.search_failures(p, bound)}
    for family, expected in families.items():
        for k in ks:
            (claim,) = mk.check_claim(name, k=k, family=family).claims
            (lhs, rhs), (cl, cr) = claim["pair"], claim["cancelled_pair"]
            assert len(lhs) <= bound
            if lhs[0] == rhs[0] and (lhs[1:], rhs[1:]) == (cl, cr):
                side, context = "left", lhs[:1]
            else:
                assert lhs[-1] == rhs[-1] and (lhs[:-1], rhs[:-1]) == (cl, cr)
                side, context = "right", lhs[-1:]
            assert (side, "".join(context)) == expected
            pair = frozenset((mk.canonical(cl, p), mk.canonical(cr, p)))
            assert (side, context, pair) in found
