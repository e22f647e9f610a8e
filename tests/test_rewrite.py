import sys
import threading
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import monoidkit as mk
from monoidkit import CapExceededError, NonHomogeneousError
from monoidkit.rewrite import engine

from conftest import W, naive_canonical, naive_class, naive_quotients, random_word
from test_tables import presentations


def test_neighbors_cyclic(p22):
    assert mk.neighbors(("s", "t1", "t2"), p22) == {
        ("t1", "t2", "s"),
        ("t2", "s", "t1"),
    }


def test_neighbors_empty_and_rigid(p22):
    assert mk.neighbors((), p22) == set()
    assert mk.neighbors(("t1", "t2"), p22) == set()


def test_class_of_delta1(p22):
    cls = mk.equivalence_class(("s", "t1", "t2"), p22)
    assert cls.members == {
        ("s", "t1", "t2"),
        ("t1", "t2", "s"),
        ("t2", "s", "t1"),
    }
    assert cls.canonical == ("s", "t1", "t2")
    assert not cls.truncated
    assert cls.seed in cls


def test_class_of_empty_word(p22):
    cls = mk.equivalence_class((), p22)
    assert cls.members == {()}
    assert cls.canonical == ()


def test_class_never_moves_u_past_s(p22):
    # u1 commutes with the t letters but cannot cross s without u2 present
    cls = mk.equivalence_class(("u1", "s", "t1", "t2"), p22)
    assert len(cls) == 6
    assert not any(m[:3] == ("s", "t1", "t2") for m in cls.members)


def test_equal_bundled_claim_pairs(m6):
    assert mk.equal(W("cdeaf"), W("ceafd"), m6)
    assert not mk.equal(W("deaf"), W("eafd"), m6)


def test_equal_reflexive_and_shortcuts(m6, rng):
    for _ in range(25):
        w = random_word(rng, m6, 6)
        assert mk.equal(w, w, m6)
    # different lengths and different multisets decide without search
    assert not mk.equal(W("a"), W("aa"), m6)
    assert not mk.equal(W("ab"), W("ac"), m6)


def test_equal_on_cached_pair_with_different_letter_counts():
    # the class cache is read before the letter-count refutation, and both
    # must answer False on a cached word against one of other letter counts
    p = mk.fixture("M6")
    eng = engine(p)
    cdeaf = mk.equivalence_class(W("cdeaf"), p).members
    for other in (W("cdeab"), W("aaaaa")):
        assert sorted(other) != sorted(W("cdeaf")) and W("cdeaf") in cdeaf
        assert not mk.equal(W("cdeaf"), other, p)
        assert not mk.equal(other, W("cdeaf"), p)
        assert eng.encode(other) not in eng._classes
    assert mk.equal(W("cdeaf"), W("ceafd"), p)
    assert len(eng._classes) == len(cdeaf)


def test_canonical_values(p22, m6p):
    assert mk.canonical(("t2", "s", "t1"), p22) == ("s", "t1", "t2")
    assert mk.canonical((), p22) == ()
    assert mk.canonical(W("dbcefa"), m6p) == mk.canonical(W("dbefac"), m6p)


def test_canonical_characterizes_equality(m6, rng):
    for _ in range(40):
        u = random_word(rng, m6, 5)
        v = random_word(rng, m6, 5)
        assert mk.equal(u, v, m6) == (mk.canonical(u, m6) == mk.canonical(v, m6))


def test_non_homogeneous_rejected():
    p = mk.parse_presentation("generators: a\nrelation: a = aa\n")
    with pytest.raises(NonHomogeneousError):
        mk.equivalence_class(("a",), p)
    with pytest.raises(NonHomogeneousError):
        mk.equal(("a",), ("a", "a"), p)


NON_HOMOGENEOUS = "generators: a\nrelation: a = aa\n"
REFUSAL = "presentation is not length-preserving; classes may be infinite"
# a made-up certificate: the gate must refuse before anything reads it
CERT = mk.FundamentalCertificate(("a",), {"a": "a"}, {"a": ()}, 1)
GATED = {
    "RewriteEngine": lambda p: mk.rewrite.RewriteEngine(p),
    "engine": engine,
    "neighbors": lambda p: mk.neighbors(("a",), p),
    "equivalence_class": lambda p: mk.equivalence_class(("a",), p),
    "equal": lambda p: mk.equal(("a",), ("a",), p),
    # different lengths: the length shortcut must not answer first
    "equal-lengths": lambda p: mk.equal(("a",), ("a", "a"), p),
    "canonical": lambda p: mk.canonical(("a",), p),
    "left_divides": lambda p: mk.left_divides(("a",), ("a", "a"), p),
    "right_divides": lambda p: mk.right_divides(("a",), ("a", "a"), p),
    "cm_r": lambda p: mk.cm_r([("a",)], p, 2),
    "mcm_r": lambda p: mk.mcm_r([("a",)], p, 2),
    "atoms": mk.atoms,
    "verify_fundamental": lambda p: mk.verify_fundamental(("a",), p),
    "verify_fundamental-strict": lambda p: mk.verify_fundamental(("a",), p, strict=True),
    "verify_fundamental-empty": lambda p: mk.verify_fundamental((), p),
    "verify_garside": lambda p: mk.verify_garside(("a",), p),
    "search_failures": lambda p: mk.search_failures(p, 2),
    # the gate comes before the injectivity refusal
    "group_equal": lambda p: mk.group_equal((("a", 1),), (("a", 1),), p, CERT),
    "group_equal-assumed": lambda p: mk.group_equal(
        (("a", 1),), (("a", 1),), p, CERT, assume_injective=True),
    "group_equal-verified": lambda p: mk.group_equal(
        (("a", 1),), (("a", 1),), p, CERT, verify_cancellative_to=2),
    "center_scan": lambda p: mk.center_scan(p, 2),
}


@pytest.mark.parametrize("name", GATED)
def test_non_homogeneous_rejected_by_every_operation(name):
    # twice: no engine is cached for a refused presentation
    p = mk.parse_presentation(NON_HOMOGENEOUS)
    for _ in range(2):
        with pytest.raises(NonHomogeneousError, match=f"^{REFUSAL}$"):
            GATED[name](p)


def test_cap_exceeded_carries_partial():
    # fresh presentation: a cached complete class would satisfy any cap
    p = mk.build_gmn(2, 2).presentation
    with pytest.raises(CapExceededError) as info:
        mk.equivalence_class(("s", "t1", "t2"), p, cap=2)
    partial = info.value.partial
    assert partial.truncated
    assert len(partial.members) == 2
    assert partial.seed == ("s", "t1", "t2")
    # caps beyond the class size change nothing
    assert len(mk.equivalence_class(("s", "t1", "t2"), p, cap=3)) == 3
    # every cap below the class size (6 here): each point query gives a
    # decoded partial of exactly cap members of the class being closed, and
    # equality stays undecided, never False
    word, other = W("u1.s.t1.t2"), W("s.t1.t2.u1")
    cls = naive_class(word, p)
    assert other not in cls and len(naive_class(other, p)) == 6
    for cap in range(1, 6):
        calls = {
            "equivalence_class": (word, lambda q: mk.equivalence_class(word, q, cap=cap)),
            "equal": (word, lambda q: mk.equal(word, other, q, cap=cap)),
            # the class closed is that of the second word
            "equal-second": (other, lambda q: mk.equal(other, word, q, cap=cap)),
            "canonical": (word, lambda q: mk.canonical(word, q, cap=cap)),
            "left_divides": (word, lambda q: mk.left_divides(("u1",), word, q, cap=cap)),
            "right_divides": (word, lambda q: mk.right_divides(("t2",), word, q, cap=cap)),
        }
        for name, (seed, call) in calls.items():
            fresh = mk.build_gmn(2, 2).presentation
            with pytest.raises(CapExceededError) as info:
                call(fresh)
            partial = info.value.partial
            assert partial.truncated, name
            assert partial.seed == seed, name
            assert len(partial.members) == cap, name
            assert partial.members <= naive_class(seed, p), name
            assert partial.canonical == min(partial.members, key=p.word_key), name
            eng = engine(fresh)
            assert set(map(eng.decode, info.value.raw_partial)) == partial.members, name
        for m in cls:
            try:
                assert mk.equal(word, m, mk.build_gmn(2, 2).presentation, cap=cap)
            except CapExceededError:
                pass
    assert not mk.equal(word, other, mk.build_gmn(2, 2).presentation, cap=6)


def test_unknown_letter_rejected(p22):
    with pytest.raises(ValueError, match="not in alphabet"):
        mk.equal(("bogus",), ("s",), p22)


# -- invariants -----------------------------------------------------------


def test_matches_oracle_on_random_words(p22, m6, rng):
    for p in (p22, m6):
        for _ in range(120):
            w = random_word(rng, p, 5)
            assert mk.equivalence_class(w, p).members == frozenset(naive_class(w, p))


def test_symmetry_and_transitivity(m6, rng):
    words = [random_word(rng, m6, 4, min_len=2) for _ in range(30)]
    for u in words:
        cls = mk.equivalence_class(u, m6)
        for v in list(cls.members)[:5]:
            assert mk.equal(u, v, m6) and mk.equal(v, u, m6)
            for w in list(cls.members)[:5]:
                assert mk.equal(v, w, m6)


def test_congruence(m6, rng):
    for _ in range(20):
        u = random_word(rng, m6, 4, min_len=1)
        cls = mk.equivalence_class(u, m6)
        v = max(cls.members)
        a = random_word(rng, m6, 2)
        b = random_word(rng, m6, 2)
        assert mk.equal(a + u + b, a + v + b, m6)


def test_multiset_conservation(m6, p22, rng):
    for p in (m6, p22):
        assert p.letter_balanced
        for _ in range(50):
            w = random_word(rng, p, 6)
            for m in mk.equivalence_class(w, p).members:
                assert Counter(m) == Counter(w)


def test_homogeneous_length_conservation(m6, rng):
    for _ in range(30):
        w = random_word(rng, m6, 6)
        assert {len(m) for m in mk.equivalence_class(w, m6).members} <= {len(w)}


def test_class_size_bound(p22, rng):
    sigma = len(p22.letters)
    for _ in range(20):
        w = random_word(rng, p22, 4)
        assert len(mk.equivalence_class(w, p22)) <= sigma ** len(w) if w else 1


def test_determinism_across_engines(m6):
    # a fresh presentation object gets a fresh engine; results must agree
    twin = mk.fixture("M6")
    w = W("cdeaf")
    a = mk.equivalence_class(w, m6)
    b = mk.equivalence_class(w, twin)
    assert a.members == b.members and a.canonical == b.canonical


# -- point queries against the oracle ---------------------------------------


@st.composite
def point_queries(draw):
    """A presentation, a divisor u of up to 3 letters, and words v, w of one
    length up to 6."""
    p = draw(presentations())
    letters = "".join(p.letters)
    v = draw(st.text(alphabet=letters, max_size=6))
    w = draw(st.text(alphabet=letters, min_size=len(v), max_size=len(v)))
    u = draw(st.text(alphabet=letters, max_size=3))
    return p, tuple(u), tuple(v), tuple(w)


# ab = ba on abab: the second BFS level is baab, abba, aabb, and "ba" would
# match across the first two if the level were joined without a separator
@settings(max_examples=60, deadline=None)
@given(point_queries())
@example((mk.parse_presentation("generators: a b\nrelation: ab = ba\n"),
          W("a"), W("abab"), W("bbaa")))
def test_point_queries_match_oracle(query):
    p, u, v, w = query
    cls = naive_class(v, p)
    # on a fresh engine: an early-exit search, then one that may exhaust
    assert mk.equal(v, max(cls), p)
    assert mk.equal(w, v, p) == (w in cls)
    assert mk.equal(v, w, p) == (w in cls)
    for side, divides in (("left", mk.left_divides), ("right", mk.right_divides)):
        expected = naive_quotients(u, v, p, side)
        res = divides(u, v, p)
        assert res.quotients == expected
        assert res.divides == bool(expected)
    for x in (v, w):
        got = mk.equivalence_class(x, p)
        assert got.members == naive_class(x, p)
        assert got.canonical == naive_canonical(x, p)
        assert mk.canonical(x, p) == got.canonical


@st.composite
def paused_runs(draw):
    """A presentation and a run of point queries on one engine over words of
    one length, 2 to 6.  Each call names a query, a word, a second word and a
    cut: equality of the two words, the canonical form or class of the first,
    or its quotients by a prefix (suffix) of the second.  First words come
    from the classes of two seeds or at random, second words mostly from the
    class of the first, so starts repeat, targets may be ones a paused search
    has reached or lie in another class, and closures may begin from a
    reached word."""
    p = draw(presentations())
    letters = "".join(p.letters)
    n = draw(st.integers(2, 6))
    text = st.text(alphabet=letters, min_size=n, max_size=n).map(tuple)
    seeds = [draw(text) for _ in range(2)]
    members = st.sampled_from(sorted(naive_class(seeds[0], p) | naive_class(seeds[1], p)))
    word = st.one_of(members, members, members, text)
    kinds = st.sampled_from(["equal"] * 4 + ["canonical", "equivalence_class", "left", "right"])
    calls = []
    for _ in range(draw(st.integers(1, 12))):
        x = draw(word)
        y = draw(st.one_of(st.sampled_from(sorted(naive_class(x, p))), word))
        calls.append((draw(kinds), x, y, draw(st.integers(0, n))))
    return p, calls


# bbaa pauses the search from abab; baba and abba are reached by it or lie
# past it, and bbaa's closure resumes it
@settings(max_examples=80, deadline=None)
@given(paused_runs())
@example((mk.parse_presentation("generators: a b\nrelation: ab = ba\n"),
          [("equal", W("abab"), W("bbaa"), 0), ("equal", W("baba"), W("abab"), 0),
           ("equal", W("abba"), W("aaab"), 0), ("left", W("bbaa"), W("baab"), 2),
           ("equal", W("aabb"), W("baba"), 0), ("canonical", W("abba"), W("abba"), 0)]))
# the class ab - cc - ca is a chain: ca lies only past the target cc, so the
# resumed closure of ab must still go on from cc
@example((mk.parse_presentation("generators: a b c\nrelation: ab = cc\nrelation: cc = ca\n"),
          [("equal", W("ab"), W("cc"), 0), ("equivalence_class", W("ab"), W("ab"), 0)]))
def test_resumed_searches_match_oracle(run):
    p, calls = run
    eng = engine(p)
    classes = {}
    for kind, x, y, j in calls:
        cls = classes.get(x) or classes.setdefault(x, naive_class(x, p))
        if kind == "equal":
            assert mk.equal(x, y, p) == (y in cls)
        elif kind == "canonical":
            assert mk.canonical(x, p) == min(cls, key=p.word_key)
        elif kind == "equivalence_class":
            assert mk.equivalence_class(x, p).members == cls
        else:
            u = eng.encode(y[:j] if kind == "left" else y[len(y) - j:])
            expected = member_scan({eng.encode(m) for m in cls}, u, kind)
            assert eng.quotients(eng.encode(x), u, kind) == expected
        # one paused search at most, and never one of a class already cached
        assert eng._paused is None or eng._paused[0] not in eng._classes
    assert len(eng._scans) <= 2 ** len(p.letters)


def test_a_paused_search_keeps_the_cap():
    p = mk.fixture("M6")
    eng = engine(p)
    members = sorted(naive_class(W("cccbbddd"), p))
    start, target = members[0], members[300]
    assert mk.equal(start, target, p)
    paused = eng._paused
    size = len(paused[1])
    assert eng.encode(target) in paused[1] and 1 < size < len(members)
    # at or below the paused size the closure starts afresh and stops at cap;
    # a cap error pauses nothing, so the slot keeps the search
    for cap in (size, size - 1, 1):
        with pytest.raises(CapExceededError) as info:
            mk.equivalence_class(start, p, cap=cap)
        assert len(info.value.partial.members) == cap
        assert info.value.partial.members <= set(members)
        assert eng._paused is paused
    # above it the closure resumes from the paused words, and still stops at
    # exactly cap
    with pytest.raises(CapExceededError) as info:
        mk.canonical(target, p, cap=size + 5)
    assert paused[1] < info.value.raw_partial and len(info.value.raw_partial) == size + 5
    assert eng._paused is paused
    # a target already reached answers at once
    assert mk.equal(target, start, p, cap=1)
    # a search whose start is not reached resumes from its target, and pauses
    # again further on
    last = members[-1]
    assert eng.encode(last) not in paused[1]
    assert mk.equal(last, start, p)
    assert paused[1] < eng._paused[1] and eng.encode(last) in eng._paused[1]
    # the class completes, is cached, and the slot is dropped
    assert mk.equivalence_class(target, p, cap=len(members)).members == set(members)
    assert eng._paused is None


def test_racing_searches_on_the_paused_slot_agree():
    # four threads search and close two classes of one engine, all in one
    # class for 20 calls and then in the other, so each resumes, replaces or
    # drops a search another paused; every answer must still be the oracle's
    p = mk.fixture("M6")
    eng = engine(p)
    classes = [sorted(eng.encode(m) for m in naive_class(W(v), p))
               for v in ("cccbbddd", "ecbfdace")]
    results = [[] for _ in range(4)]

    def run(t):
        for i in range(120):
            mine, other = classes[i // 20 % 2], classes[i // 20 % 2 - 1]
            a = mine[(37 * i + 11 * t) % len(mine)]
            b = mine[(53 * i + 29 * t + 1) % len(mine)]
            if i % 5 == 4:
                # a closure past the class cache, from a word a search may have reached
                results[t].append(sorted(eng._store(eng._bfs(a, mk.rewrite.DEFAULT_CAP))) == mine)
            elif i % 7 == 6:
                results[t].append(not eng.closure_search(a, other[i % len(other)]))
            else:
                results[t].append(a == b or eng.closure_search(a, b))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [[True] * 120] * 4


def test_rule_tables_only_where_letters_are_conserved():
    p = mk.parse_presentation("generators: a b c\nrelation: ab = cc\n")
    assert p.homogeneous and not p.letter_balanced
    assert mk.equal(W("ab"), W("cc"), p)
    assert mk.equivalence_class(W("ab"), p).members == {W("ab"), W("cc")}
    # cabc is reached only from cccc, two levels past the seed: the rules
    # whose patterns use only a and b would never reach it
    assert mk.equal(W("abab"), W("cabc"), p)
    assert mk.equivalence_class(W("abab"), p).members == naive_class(W("abab"), p)
    assert len(naive_class(W("abab"), p)) == 5
    assert engine(p)._scans == {}
    # in M6 a seed without b scans one table, of fewer rules than all
    m6 = mk.fixture("M6")
    eng = engine(m6)
    w = W("cdeafcde")
    assert mk.equivalence_class(w, m6).members == naive_class(w, m6)
    assert list(eng._scans) == [frozenset(eng.encode(w))]
    assert 0 < len(eng._scans[frozenset(eng.encode(w))]) < len(eng.rules)


def member_scan(cls, u, side):
    """The quotients of a division read member by member."""
    if side == "left":
        return {m[len(u):] for m in cls if m.startswith(u)}
    return {m[:len(m) - len(u)] for m in cls if m.endswith(u)}


@st.composite
def divisions(draw):
    """A presentation, two words of up to 6 letters, and a run of divisions
    (which word, side, divisor) that alternates between their classes and
    repeats on one.  A divisor is a prefix or suffix of a member of the
    class, a random word, the empty word, the whole word, or a word one
    letter longer than it."""
    p = draw(presentations())
    letters = "".join(p.letters)
    vs = [draw(st.text(alphabet=letters, max_size=6)) for _ in range(2)]
    calls = []
    for _ in range(draw(st.integers(1, 8))):
        x = draw(st.integers(0, 1))
        v = vs[x]
        kind = draw(st.sampled_from(["prefix", "suffix", "random", "empty", "whole", "longer"]))
        if kind in ("prefix", "suffix"):
            m = "".join(draw(st.sampled_from(sorted(naive_class(tuple(v), p)))))
            j = draw(st.integers(0, len(m)))
            u = m[:j] if kind == "prefix" else m[j:]
        elif kind == "random":
            u = draw(st.text(alphabet=letters, max_size=len(v) + 1))
        else:
            u = {"empty": "", "whole": v, "longer": v + letters[0]}[kind]
        calls.append((x, draw(st.sampled_from(["left", "right"])), u))
    return p, vs, calls


@settings(max_examples=80, deadline=None)
@given(divisions())
@example((mk.parse_presentation("generators: a b\nrelation: ab = ba\n"), ["abab", "aab"],
          [(0, "left", "a"), (1, "right", "ab"), (0, "left", "ab"), (0, "right", "b"),
           (1, "left", ""), (0, "right", "abab")]))
def test_quotients_match_the_member_scan(case):
    p, vs, calls = case
    eng = engine(p)
    enc = [eng.encode(tuple(v)) for v in vs]
    for v in enc:
        # longer than v: nothing to divide, and v's class is not closed over
        assert eng.quotients(v, v + eng.chars[0], "left") == set()
        assert eng.quotients(v, v + eng.chars[0], "right") == set()
        assert v not in eng._classes
    classes = [{eng.encode(m) for m in naive_class(tuple(v), p)} for v in vs]
    for x, side, u in calls:
        v, u = enc[x], eng.encode(tuple(u))
        got = eng.quotients(v, u, side)
        assert got == (member_scan(classes[x], u, side) if len(u) <= len(v) else set())
        if u and len(u) <= len(v):
            # the kept text is that of the class just divided
            assert eng._joined[0] is eng.closure(v)


def test_racing_divisions_of_two_classes_agree():
    # four threads, two a class, divide two classes of one engine, so each
    # replaces the text another kept; every result must still be the member
    # scan
    p = mk.fixture("M6")
    eng = engine(p)
    vs = [eng.encode(W(v)) for v in ("cccbbddd", "ecbfdace")]
    calls = []
    for v in vs:
        cls = eng.closure(v)
        assert len(cls) >= 494  # many hits in one text
        members = sorted(cls)
        divisors = [(side, m[:j] if side == "left" else m[-j:])
                    for m in members[::len(members) // 20][:20] for j in (1, 3, 5)
                    for side in ("left", "right")]
        calls.append([(v, side, u, member_scan(cls, u, side)) for side, u in divisors])
    results = [[] for _ in range(4)]

    def divide(t):
        for i in range(200):
            v, side, u, expected = calls[t % 2][(i + 7 * t) % len(calls[t % 2])]
            results[t].append(eng.quotients(v, u, side) == expected)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=divide, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [[True] * 200] * 4


@st.composite
def class_unions(draw):
    """A presentation and 0-4 words of one length up to 5: the union of their
    classes is the input of least_words."""
    p = draw(presentations())
    n = draw(st.integers(0, 5))
    word = st.text(alphabet="".join(p.letters), min_size=n, max_size=n).map(tuple)
    return p, draw(st.lists(word, max_size=4))


def test_least_words_of_fewer_than_two_words():
    # t1.t1 matches no relation, so it is a class of one word
    p = mk.build_gmn(2, 2).presentation
    eng = engine(p)
    assert naive_class(W("t1.t1"), p) == {W("t1.t1")}
    assert eng.least_words([]) == []
    assert eng.least_words(iter(())) == []
    assert eng.least_words([""]) == [""]
    one = eng.encode(W("t1.t1"))
    assert eng.least_words(iter([one])) == [one]
    assert eng._classes == {}


# abab: "ba" would also match across two words joined without a separator;
# aa = ab = ba = bb: all eight 3-letter words make one class
@settings(max_examples=80, deadline=None)
@given(class_unions())
@example((mk.parse_presentation("generators: a b\nrelation: ab = ba\n"), [W("abab")]))
@example((mk.parse_presentation("generators: a b\nrelation: aa = ab = ba = bb\n"),
          [W("aab"), W("bbb"), W("aaa")]))
def test_least_words_match_oracle(query):
    p, seeds = query
    classes = [naive_class(w, p) for w in seeds]
    eng = engine(p)
    got = eng.least_words(eng.encode(w) for w in set().union(*classes))
    assert got == sorted({eng.encode(min(c, key=p.word_key)) for c in classes})
    # nothing is closed over or cached
    assert eng._classes == {}
