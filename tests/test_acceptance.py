"""End-to-end acceptance checks at desk scale.

Each criterion is one test that asserts the expected values, enforces its
wall-clock budget, and prints one PASS line (visible with ``pytest -s``).
Criteria run against fresh presentation objects so no cross-test caching
hides the true cost.
"""

import json
import random
import time
from collections import Counter

import monoidkit as mk
from monoidkit.cli import run


def W(s):
    return tuple(s.split(".")) if "." in s else tuple(s)


class budget:
    """Enforce a wall-clock budget and print the criterion's PASS line."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name}: {elapsed:.1f}s exceeded budget {self.seconds}s"
            )
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.2f}s)")
        else:
            print(f"ACCEPTANCE {self.name}: FAIL")
        return False


def test_01_m6_not_cancellative(capsys):
    with budget("1 M6 non-cancellativity", 10):
        assert run(["claim", "M6", "--k", "1", "--id", "cdea"]) == 0
        capsys.readouterr()
        assert run(["cancel-search", "M6", "--max-len", "5", "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        fails = {(f["side"], tuple(f["context"]), tuple(f["x"]), tuple(f["y"]))
                 for f in rep["result"]["failures"]}
        assert ("left", ("c",), W("deaf"), W("eafd")) in fails
        m6 = mk.fixture("M6")
        assert mk.equal(W("cdeaf"), W("ceafd"), m6)
        assert not mk.equal(W("deaf"), W("eafd"), m6)


def test_02_m6p_claims():
    with budget("2 M6p claims", 10):
        p = mk.fixture("M6p")
        assert mk.equal(W("dbcefa"), W("dbefac"), p)
        assert not mk.equal(W("cefa"), W("efac"), p)


def test_03_m6p_completed_claims():
    with budget("3 M6p_completed claims k=1,2", 60):
        p = mk.fixture("M6p_completed")
        for k in (1, 2):
            lhs = W("acd" + "e" * (k + 1) + "abf")
            rhs = W("d" + "e" * k + "aabcef")
            assert mk.equal(lhs, rhs, p)
            assert not mk.equal(lhs[:-1], rhs[:-1], p)


def test_04_gmn_cancellative_at_desk_scale(capsys):
    with budget("4 g(m,n) cancellative to length 5", 120):
        for m, n in ((2, 2), (3, 2)):
            assert run(["gmn", "--m", str(m), "--n", str(n), "--run",
                        "cancel-search", "--max-len", "5", "--json"]) == 0
            rep = json.loads(capsys.readouterr().out)
            assert rep["result"]["count"] == 0
            assert mk.search_failures(mk.build_gmn(m, n).presentation, 5) == []


def test_05_fundamental_elements():
    ctx = mk.build_gmn(2, 2)
    with budget("5a fundamental delta in g(2,2)", 10):
        cert = mk.verify_fundamental(ctx.delta, ctx.presentation)
        assert cert is not None
        assert cert.sigma == {x: x for x in ctx.presentation.letters}
        assert cert.order == 1
    with budget("5b fundamental abcdef in M6", 10):
        m6 = mk.fixture("M6")
        assert mk.verify_fundamental(W("abcdef"), m6) is not None


def test_06_fundamental_iff_garside():
    with budget("6 fundamental iff Garside on g(2,2)", 60):
        ctx = mk.build_gmn(2, 2)
        p = ctx.presentation
        d = ctx.delta
        assert (mk.verify_fundamental(d, p) is not None) == mk.verify_garside(d, p).is_garside
        assert (mk.verify_fundamental((), p) is not None) == mk.verify_garside((), p).is_garside
        rng = random.Random(20260809)
        for _ in range(20):
            w = tuple(rng.choice(p.letters) for _ in range(rng.randint(0, 5)))
            assert (mk.verify_fundamental(w, p) is not None) == mk.verify_garside(w, p).is_garside


def test_07_no_least_common_multiple():
    with budget("7 mcm of {t1,t2} has no lcm", 60):
        ctx = mk.build_gmn(2, 2)
        p = ctx.presentation
        rep = mk.mcm_r([("t1",), ("t2",)], p, 4)
        assert rep.minimal == {
            ("s", "t1", "t2"),
            ("t1", "t2", "u1", "s"),
            ("t1", "t2", "u2", "s"),
        }
        assert rep.lcm_up_to_bound is None
        # predicted family: w(u) * delta1 with w(u) free of a full u1..u2
        # suffix, |w(u)| <= 1
        predicted = {mk.canonical(w + ctx.delta1, p)
                     for w in [(), ("u1",), ("u2",)] if mk.in_rm(ctx, w, 2)}
        assert rep.minimal == predicted


def test_08_group_word_problem():
    with budget("8 group word problem in g(2,2)", 30):
        ctx = mk.build_gmn(2, 2)
        p = ctx.presentation
        cert = mk.verify_fundamental(ctx.delta, p)
        gw = mk.parse_signed_word
        assert mk.group_equal(gw(p, "t1.u1.t1~.u1~"), (), p, cert)
        assert not mk.group_equal(gw(p, "t1.t2.t1~.t2~"), (), p, cert)
        for g in p.letters:
            w = gw(p, f"s.t1.t2.u1.u2.{g}.u2~.u1~.t2~.t1~.s~.{g}~")
            assert mk.group_equal(w, (), p, cert)


def test_09_center_is_generated_by_delta():
    with budget("9 center scan of g(2,2)", 120):
        ctx = mk.build_gmn(2, 2)
        p = ctx.presentation
        found = mk.center_scan(p, 5)
        nonempty = {w for w in found if w}
        assert nonempty == {mk.canonical(ctx.delta, p)}
        for w in nonempty:
            assert mk.left_divides(ctx.delta, w, p).divides


def test_10_division_laws():
    with budget("10 division laws i and ii at length 4", 120):
        ctx = mk.build_gmn(2, 2)
        for case in ("i", "ii"):
            rep = mk.check_division_law(ctx, case, 4)
            assert rep.violations == (), case


def test_11_invariant_suites():
    with budget("11 invariant suites", 120):
        rng = random.Random(1234)
        m6 = mk.fixture("M6")
        ctx = mk.build_gmn(2, 2)
        p22 = ctx.presentation

        def rand(p, lo, hi):
            return tuple(rng.choice(p.letters) for _ in range(rng.randint(lo, hi)))

        # multiset conservation, 1000 random words across both fixtures
        for p in (m6, p22):
            for _ in range(500):
                w = rand(p, 0, 6)
                for member in mk.equivalence_class(w, p).members:
                    assert Counter(member) == Counter(w)

        # equivalence laws and congruence
        for _ in range(60):
            u = rand(m6, 1, 5)
            cls = mk.equivalence_class(u, m6)
            v = max(cls.members)
            assert mk.equal(u, v, m6) and mk.equal(v, u, m6)
            a, b = rand(m6, 0, 2), rand(m6, 0, 2)
            assert mk.equal(a + u + b, a + v + b, m6)
            x = rand(m6, 1, 5)
            assert mk.equal(u, x, m6) == mk.equal(x, u, m6)

        # anti-involution laws
        for _ in range(60):
            u, v = rand(p22, 0, 5), rand(p22, 0, 5)
            phi = lambda w: mk.anti_involution(ctx, w)
            assert phi(phi(u)) == u
            assert phi(u + v) == phi(v) + phi(u)
            assert mk.equal(u, v, p22) == mk.equal(phi(u), phi(v), p22)

        # divisibility transitivity through class prefixes
        for _ in range(30):
            w = rand(p22, 2, 5)
            members = list(mk.equivalence_class(w, p22).members)
            v = rng.choice(members)[: rng.randint(0, len(w))]
            vmem = list(mk.equivalence_class(v, p22).members) or [()]
            u = rng.choice(vmem)[: rng.randint(0, len(v))]
            assert mk.left_divides(v, w, p22).divides
            assert mk.left_divides(u, v, p22).divides
            assert mk.left_divides(u, w, p22).divides

        # padding invariance of group equality
        cert = mk.verify_fundamental(ctx.delta, p22)
        lam = tuple((x, 1) for x in ctx.delta * cert.order)
        pairs = [
            (mk.parse_signed_word(p22, "t1.u1.t1~.u1~"), ()),
            (mk.parse_signed_word(p22, "t1.t2.t1~.t2~"), ()),
        ]
        for a, b in pairs:
            base = mk.group_equal(a, b, p22, cert)
            assert mk.group_equal(lam + a, lam + b, p22, cert) == base
