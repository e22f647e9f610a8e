"""Value semantics of the package's records.

Presentation, Relation and EquivClass are immutable plain classes; every
result record is a NamedTuple whose fields read by name.
"""

import copy
import pickle

import pytest

import monoidkit as mk
from monoidkit import EquivClass, Presentation, Relation

from conftest import W


def test_presentation_equality_and_hash_ignore_cancellative():
    p = mk.build_gmn(2, 2).presentation
    q = Presentation(p.letters, p.relations)
    assert p.cancellative is True and q.cancellative is None
    assert p == q and hash(p) == hash(q)
    assert len({p, q}) == 1
    assert p != Presentation(p.letters, p.relations[1:])
    assert p != (p.letters, p.relations)
    assert Presentation(("a", "b"), (), cancellative=False) == Presentation(["a", "b"], [])


def test_presentation_is_immutable():
    p = mk.fixture("M6")
    for name in ("letters", "relations", "cancellative", "new_field"):
        with pytest.raises(AttributeError):
            setattr(p, name, None)
    with pytest.raises(AttributeError):
        del p.letters
    assert p.cancellative is False and len(p.letters) == 6
    # the lazily computed flags and the cached engine still find their room
    assert p.index["c"] == 2 and p.homogeneous
    assert mk.equal(W("cdeaf"), W("ceafd"), p)


def test_presentation_repr_and_round_trips():
    p = Presentation(("a", "b"), (Relation(W("ba"), W("ab")),), cancellative=True)
    assert repr(p) == ("Presentation(letters=('a', 'b'), relations=(Relation(lhs=('a', 'b'), "
                       "rhs=('b', 'a')),), cancellative=True)")
    for q in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert q == p and q.cancellative is True


def test_relation_sides_unordered_and_normalised():
    u, v = W("ba"), W("abc")
    r = Relation(u, v)
    assert r == Relation(v, u) and hash(r) == hash(Relation(v, u))
    # the shorter side first, then the lexicographically smaller
    assert (r.lhs, r.rhs) == (u, v)
    s = Relation(W("ba"), W("ab"))
    assert (s.lhs, s.rhs) == (W("ab"), W("ba"))
    assert Relation(["a"], ["b"]).lhs == ("a",)  # sides become tuples
    assert r != (u, v)
    for sides in (((), W("a")), (W("a"), ()), ((), ())):
        with pytest.raises(ValueError, match="non-empty"):
            Relation(*sides)
    with pytest.raises(AttributeError):
        r.lhs = W("z")
    # copies go through the constructor: none is built un-normalised
    for s in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
        assert s == r and (s.lhs, s.rhs) == (u, v)
    assert repr(r) == "Relation(lhs=('b', 'a'), rhs=('a', 'b', 'c'))"


def test_relations_order_as_lhs_then_rhs():
    rels = [Relation(W(a), W(b)) for a, b in
            (("ab", "ba"), ("a", "b"), ("ab", "aa"), ("c", "ab"), ("ba", "ab"), ("bc", "cb"))]
    assert sorted(rels) == sorted(rels, key=lambda r: (r.lhs, r.rhs))
    # tuple order, not length first: ("c",) follows ("b", "c")
    assert [(r.lhs, r.rhs) for r in sorted(rels)] == [
        (W("a"), W("b")), (W("aa"), W("ab")), (W("ab"), W("ba")),
        (W("ab"), W("ba")), (W("bc"), W("cb")), (W("c"), W("ab")),
    ]
    a, b = Relation(W("a"), W("b")), Relation(W("ab"), W("ba"))
    assert a < b and a <= b and b > a and b >= a and a <= a and not a < a
    with pytest.raises(TypeError):
        a < (W("a"), W("b"))


def test_equiv_class_len_in_members_canonical():
    p = mk.fixture("M6")
    c = mk.equivalence_class(W("cdeaf"), p)
    assert isinstance(c, EquivClass)
    assert len(c) == len(c.members) == 15
    assert W("ceafd") in c and W("abcde") not in c
    assert c.canonical == min(c.members, key=p.word_key) == W("acdef")
    assert c.seed == W("cdeaf") and c.truncated is False
    assert c == mk.equivalence_class(W("cdeaf"), p) and hash(c) == hash(EquivClass(*_values(c)))
    assert c != mk.equivalence_class(W("ceafd"), p)  # another seed
    with pytest.raises(AttributeError):
        c.truncated = True
    for d in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c)):
        assert d == c and len(d) == 15
    assert repr(EquivClass(W("a"), frozenset({W("a")}), W("a"))) == (
        "EquivClass(seed=('a',), members=frozenset({('a',)}), canonical=('a',), truncated=False)")


def _values(c):
    return c.seed, c.members, c.canonical, c.truncated


def _reports():
    """One instance of every result record, each from the call that makes it."""
    ctx = mk.build_gmn(2, 2)
    p = ctx.presentation
    cert = mk.verify_fundamental(ctx.delta, p)
    # g(2,2) plus one relation: the case i law fails (see test_gmn)
    extra = Relation(("t2", "t1"), ("u1", "s"))
    bent = ctx._replace(presentation=Presentation(p.letters, p.relations + (extra,)))
    law = mk.check_division_law(bent, "i", 4)
    return {
        "DivisionResult": mk.left_divides(("t1",), ctx.delta1, p),
        "McmReport": mk.mcm_r([("t1",), ("t2",)], p, 4),
        "FundamentalCertificate": cert,
        "GarsideReport": mk.verify_garside(ctx.delta, p),
        "CancellationFailure": mk.search_failures(mk.fixture("M6"), 5)[0],
        "DivisionLawViolation": law.violations[0],
        "DivisionLawReport": law,
        "ClaimReport": mk.check_claim("M6"),
        "GmnContext": ctx,
    }


FIELDS = {
    "DivisionResult": ("divides", "quotients"),
    "McmReport": ("bound", "common_multiples", "minimal", "lcm_up_to_bound"),
    "FundamentalCertificate": ("delta", "sigma", "quotients", "order", "sigma_count"),
    "GarsideReport": ("left_divisors", "right_divisors", "coincide", "generate"),
    "CancellationFailure": ("side", "context", "x", "y"),
    "DivisionLawViolation": ("case", "lhs", "rhs"),
    "DivisionLawReport": ("case", "max_len", "instances", "violations"),
    "ClaimReport": ("claims", "bounds"),
    "GmnContext": ("m", "n", "presentation", "delta1", "delta2", "delta"),
}


def test_every_report_field_reads_by_name():
    reports = _reports()
    assert set(reports) == set(FIELDS)
    for name, rec in reports.items():
        cls = getattr(mk, name)
        assert type(rec) is cls and cls._fields == FIELDS[name], name
        for i, field in enumerate(FIELDS[name]):
            assert getattr(rec, field) is rec[i], (name, field)
        assert rec._replace() == rec
        with pytest.raises(AttributeError):
            setattr(rec, FIELDS[name][0], None)
    assert reports["DivisionResult"].divides is True
    assert reports["McmReport"].lcm_up_to_bound is None and len(reports["McmReport"].minimal) > 1
    assert reports["FundamentalCertificate"].sigma_count == 1
    assert reports["GarsideReport"].is_garside is True
    assert reports["DivisionLawReport"].violations
    assert reports["ClaimReport"].reproduced is True
    assert reports["GmnContext"].family(2) == ("u1", "u2")
