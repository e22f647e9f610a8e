from collections import Counter

import pytest

import monoidkit as mk

from conftest import found_anti, random_word


def test_build_counts():
    ctx = mk.build_gmn(2, 2)
    assert ctx.presentation.letters == ("s", "t1", "t2", "u1", "u2")
    assert len(ctx.presentation.relations) == 2 + 2 + 4
    assert ctx.delta == ("s", "t1", "t2", "u1", "u2")
    assert ctx.presentation.cancellative is True


def test_build_free_abelian_rank_three():
    ctx = mk.build_gmn(1, 1)
    assert len(ctx.presentation.letters) == 3
    assert set(ctx.presentation.relations) == {
        mk.Relation(("s", "t1"), ("t1", "s")),
        mk.Relation(("s", "u1"), ("u1", "s")),
        mk.Relation(("t1", "u1"), ("u1", "t1")),
    }


def test_build_delta_21():
    assert mk.build_gmn(2, 1).delta == ("s", "t1", "t2", "u1")
    with pytest.raises(ValueError):
        mk.build_gmn(0, 1)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 2), (2, 3)])
def test_relation_count_formula(m, n):
    ctx = mk.build_gmn(m, n)
    assert len(ctx.presentation.relations) == m + n + m * n


def test_tail_run(g22):
    assert mk.split_tail_run(g22, ("t2", "t1", "t2")) == (("t2",), ("t1", "t2"))
    assert mk.split_tail_run(g22, ("t1",)) == ((), ("t1",))
    assert mk.split_tail_run(g22, ("t1", "t2")) == ((), ("t1", "t2"))
    assert mk.split_tail_run(g22, ("t2", "t1")) == (("t2",), ("t1",))
    assert mk.split_tail_run(g22, ("u2", "u1")) == (("u2",), ("u1",))
    assert mk.split_tail_run(g22, ()) == ((), ())
    with pytest.raises(ValueError, match="mixes"):
        mk.split_tail_run(g22, ("t1", "u1"))


def test_tail_run_reassembles(g22, rng):
    for _ in range(100):
        fam = rng.choice([g22.family(1), g22.family(2)])
        w = tuple(rng.choice(fam) for _ in range(rng.randint(0, 6)))
        rest, run = mk.split_tail_run(g22, w)
        assert rest + run == w
        if w:
            assert len(run) >= 1
            # a tail run is consecutive: it is its own tail run
            assert mk.split_tail_run(g22, run) == ((), run)


def test_delta_quotient_values(g22):
    assert mk.delta_quotient(g22, 1, ("t2",)) == ("s", "t1")
    assert mk.delta_quotient(g22, 1, ("t1", "t2")) == ("s",)
    assert mk.delta_quotient(g22, 1, ("s",)) == ("t1", "t2")
    assert mk.delta_quotient(g22, 1, ()) == ("s", "t1", "t2")
    assert mk.delta_quotient(g22, 2, ("u1",)) == ("u2", "s")
    assert mk.delta_quotient(g22, 2, ("u1", "u2")) == ("s",)
    for w in (("t2", "t1"), ("t1", "t1"), ("u1",), ("t1", "u2"), ("s", "t1")):
        with pytest.raises(ValueError):
            mk.delta_quotient(g22, 1, w)


def test_delta_quotient_divides(g22):
    ctx = mk.build_gmn(3, 2)
    p = ctx.presentation
    for i in range(1, 4):
        for j in range(i, 4):
            w = tuple(f"t{k}" for k in range(i, j + 1))
            res = mk.right_divides(w, ctx.delta1, p)
            assert res.divides
            q = mk.delta_quotient(ctx, 1, w)
            assert mk.equal(q + w, ctx.delta1, p)
            # the quotient class is the unique one
            assert res.quotients == {mk.canonical(q, p)}


def test_in_rm(g22):
    assert mk.in_rm(g22, (), 2)
    assert mk.in_rm(g22, ("u2", "u1"), 2)
    assert not mk.in_rm(g22, ("u1", "u2"), 2)
    assert not mk.in_rm(g22, ("u2", "u1", "u2"), 2)
    assert mk.in_rm(g22, ("u2", "u2"), 2)
    assert not mk.in_rm(g22, ("t1", "t2"), 1)
    with pytest.raises(ValueError):
        mk.in_rm(g22, ("t1",), 2)


@pytest.mark.parametrize("call", [
    lambda ctx: mk.in_rm(ctx, ("u1", "u2"), 0),
    lambda ctx: mk.in_rm(ctx, ("u1", "u2"), 3),
    lambda ctx: mk.delta_quotient(ctx, 3, ()),
    lambda ctx: ctx.family(0),
])
def test_family_refuses_other_numbers(g22, call):
    # only 1 (t1..tm) and 2 (u1..un) name a family; no number falls back to one
    with pytest.raises(ValueError, match="family must be 1 or 2"):
        call(g22)


# the anti-automorphism that the symmetry finder recovers on g(2,2)
@pytest.fixture(scope="module")
def anti(p22):
    return found_anti(p22, 5)


def test_anti_involution_values(anti):
    assert anti(("s", "t1", "t2")) == ("t1", "t2", "s")
    assert anti(()) == ()


def test_anti_involution_laws(g22, anti, rng):
    p = g22.presentation
    for _ in range(60):
        w = random_word(rng, p, 5)
        assert anti(anti(w)) == w
        v = random_word(rng, p, 3)
        assert anti(w + v) == anti(v) + anti(w)


def test_anti_involution_preserves_relations(g22, anti):
    # the stored pairs equate each rotation to rotation zero; the image of a
    # pair is again a pair of rotations of the same family (or a commutation),
    # so build the full rotation closure and check membership there
    p = g22.presentation
    closure = set(p.relations)
    for head in (("s",) + g22.family(1), ("s",) + g22.family(2)):
        rots = [head[j:] + head[:j] for j in range(len(head))]
        closure.update(
            mk.Relation(a, b) for a in rots for b in rots if a != b
        )
    for r in p.relations:
        image = mk.Relation(anti(r.lhs), anti(r.rhs))
        assert image in closure


def test_anti_involution_preserves_equality(g22, anti, rng):
    p = g22.presentation
    for _ in range(25):
        u = random_word(rng, p, 5)
        v = random_word(rng, p, 5)
        assert mk.equal(u, v, p) == mk.equal(anti(u), anti(v), p)


def test_delta_is_central(g22):
    p = g22.presentation
    for g in p.letters:
        assert mk.equal(g22.delta + (g,), (g,) + g22.delta, p)


def test_delta_rotations_equivalent(g22):
    p = g22.presentation
    d = g22.delta
    for j in range(len(d)):
        assert mk.equal(d, d[j:] + d[:j], p)


def test_division_laws_hold_at_bound(g22):
    for case in mk.CASES:
        rep = mk.check_division_law(g22, case, 4)
        assert rep.violations == (), case
    # hypotheses really occur for the mixed-letter cases
    assert mk.check_division_law(g22, "ii", 4).instances > 0
    assert mk.check_division_law(g22, "iii", 4).instances > 0
    assert mk.check_division_law(g22, "v", 4).instances > 0


def test_division_law_case_ii_small_counts(g22):
    assert mk.check_division_law(g22, "ii", 1).instances == 0
    # at total length 2 the only equal mixed products are the four t/u swaps
    assert mk.check_division_law(g22, "ii", 2).instances == 4


def test_division_law_case_i_counts_are_failures(m6):
    # on a non-cancellative monoid case i violations are cancellation failures
    ctx22 = mk.build_gmn(2, 2)
    assert mk.check_division_law(ctx22, "i", 5).instances == 0
    with pytest.raises(ValueError):
        mk.check_division_law(ctx22, "vii", 3)


def _doctored_context(relations):
    # a g(1,1)-shaped context whose presentation breaks the laws on purpose,
    # to prove the checker is not vacuously green
    p = mk.Presentation(("s", "t1", "u1"), relations)
    return mk.GmnContext(1, 1, p, ("s", "t1"), ("s", "u1"), ("s", "t1", "u1"))


def test_division_law_checker_detects_case_i_violation():
    ctx = _doctored_context((mk.Relation(("t1", "s"), ("t1", "u1")),))
    rep = mk.check_division_law(ctx, "i", 2)
    assert rep.instances == 1
    assert len(rep.violations) == 1
    v = rep.violations[0]
    assert {v.lhs, v.rhs} == {("t1", "s"), ("t1", "u1")}


def test_division_law_checker_detects_case_ii_violation():
    ctx = _doctored_context((mk.Relation(("t1", "s"), ("u1", "s")),))
    rep = mk.check_division_law(ctx, "ii", 2)
    assert rep.instances == 1
    assert len(rep.violations) == 1


def _with_relation(ctx, lhs, rhs):
    # g(m,n) plus one extra relation: the laws fail in known numbers
    p = ctx.presentation
    extra = mk.Relation(tuple(lhs.split()), tuple(rhs.split()))
    return ctx._replace(presentation=mk.Presentation(p.letters, p.relations + (extra,)))


def test_division_law_case_i_exact_violations():
    ctx = _with_relation(mk.build_gmn(2, 2), "t2 t1", "u1 s")
    rep = mk.check_division_law(ctx, "i", 4)
    expected = {
        ("u1.s.u1", "u1.t2.t1"),
        ("t2.t1.t1.t2", "t2.t2.t1.t1"),
        ("u1.s.t1.u1", "u1.t2.t1.t1"),
        ("u1.s.t2.t1", "u1.t2.t1.s"),
        ("u1.s.t2.u1", "u1.t2.t1.t2"),
        ("u1.s.u1.u1", "u1.t2.t1.u1"),
        ("u1.s.u1.u2", "u1.t2.t1.u2"),
        ("u1.t1.s.u1", "u1.t1.t2.t1"),
        ("u1.t2.s.u1", "u1.t2.t2.t1"),
    }
    assert rep.instances == len(rep.violations) == 9
    assert {(".".join(v.lhs), ".".join(v.rhs)) for v in rep.violations} == expected


# case: (max_len, instances, {(lhs, rhs): multiplicity}) on g(2,2) + t2 t1 = u1 s
EXACT_VIOLATIONS = {
    "ii": (3, 30, {
        ("t2.t1", "u1.s"): 1, ("t2.t1.s", "u1.s.s"): 1, ("t2.t1.t1", "u1.s.t1"): 1,
        ("t2.t1.t2", "u1.s.t2"): 1, ("t2.t1.u1", "u1.s.u1"): 1, ("t2.t1.u2", "u1.s.u2"): 1,
    }),
    "iii": (4, 25, {("s.u1.u2.u1", "t2.t1.u1.u2"): 2}),
    "iv": (4, 28, {
        ("s.t1.t2.t2", "u1.s.t2.s"): 1, ("s.u1.u2.u1", "u1.t2.t1.u2"): 1,
        ("s.u1.u2.u1", "u1.u1.s.u2"): 1, ("s.u1.u2.u1", "u1.u2.t2.t1"): 1,
        ("s.u1.u2.u1", "u1.u2.u1.s"): 1,
    }),
    "v": (4, 42, {
        ("t1.t2.t2.t1", "t2.t1.t1.t2"): 4, ("t1.t2.t2.t1", "t2.t2.t1.t1"): 3,
        ("t2.t1.t1.t2", "t1.t2.t2.t1"): 4, ("t2.t2.t1.t1", "t1.t2.t2.t1"): 2,
    }),
    "vi": (3, 6, {
        ("u1.s.u2", "u2.t2.t1"): 1, ("u1.s.u2", "u2.u1.s"): 1, ("u2.t2.t1", "u1.s.u2"): 1,
    }),
}


@pytest.mark.parametrize("case", sorted(EXACT_VIOLATIONS))
def test_division_law_exact_violations(case):
    max_len, instances, expected = EXACT_VIOLATIONS[case]
    ctx = _with_relation(mk.build_gmn(2, 2), "t2 t1", "u1 s")
    rep = mk.check_division_law(ctx, case, max_len)
    assert rep.instances == instances
    assert Counter((".".join(v.lhs), ".".join(v.rhs)) for v in rep.violations) == expected
    assert all(v.case == case for v in rep.violations)


def test_division_law_violation_order():
    # by class of the product, then (a, X), then (b, Y), although the check
    # meets them in (b, Y) order
    ctx = _with_relation(mk.build_gmn(2, 2), "t2 t1", "u1 s")
    rep = mk.check_division_law(ctx, "vi", 3)
    assert [(".".join(v.lhs), ".".join(v.rhs)) for v in rep.violations] == [
        ("u1.s.u2", "u2.t2.t1"), ("u1.s.u2", "u2.u1.s"), ("u2.t2.t1", "u1.s.u2"),
    ]


# (instances, violations) of cases i..vi at total length 5
LAW_FINGERPRINTS = [
    ((2, 2), None, [(0, 0), (432, 0), (121, 0), (121, 0), (173, 0), (173, 0)]),
    ((3, 2), None, [(0, 0), (1074, 0), (57, 0), (156, 0), (138, 0), (261, 0)]),
    ((2, 2), ("t2 t1", "u1 s"),
     [(54, 54), (511, 123), (149, 31), (165, 48), (277, 113), (401, 231)]),
    ((2, 2), ("u1 u2", "t2 u1"),
     [(540, 540), (910, 519), (201, 83), (239, 129), (469, 299), (849, 679)]),
]


@pytest.mark.parametrize("mn,extra,expected", LAW_FINGERPRINTS)
def test_division_law_fingerprints(mn, extra, expected):
    ctx = mk.build_gmn(*mn)
    if extra is not None:
        ctx = _with_relation(ctx, *extra)
    found = []
    for case in mk.CASES:
        rep = mk.check_division_law(ctx, case, 5)
        found.append((rep.instances, len(rep.violations)))
    assert found == expected
