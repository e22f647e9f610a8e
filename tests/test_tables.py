"""The graded class tables against the oracle and the known fingerprints."""

import sys
import threading
from itertools import combinations, product
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

import monoidkit as mk
from monoidkit import cancel
from monoidkit.rewrite import RewriteEngine, engine

from conftest import W, collision_groups, naive_left_divides, naive_partition, no_symmetries


@st.composite
def presentations(draw, max_letters=3):
    """Homogeneous presentations on 2 to ``max_letters`` letters, sides of 1-3
    letters."""
    letters = "abcd"[: draw(st.integers(2, max_letters))]
    relations = []
    for n in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)):
        side = st.text(alphabet=letters, min_size=n, max_size=n).map(tuple)
        relations.append(mk.Relation(draw(side), draw(side)))
    return mk.Presentation(tuple(letters), tuple(relations))


@st.composite
def symmetric_presentations(draw):
    """Presentations on 2-4 letters closed under a random letter permutation,
    or under a random reverse-and-rename map: the image of each relation is
    added until no image is new, so the map is a symmetry at every length."""
    p = draw(presentations(max_letters=4))
    rename = dict(zip(p.letters, draw(st.permutations(p.letters))))
    step = -1 if draw(st.booleans()) else 1
    relations = set(p.relations)
    todo = list(relations)
    while todo:
        r = todo.pop()
        image = mk.Relation(*(tuple(rename[x] for x in w)[::step] for w in (r.lhs, r.rhs)))
        if image not in relations:
            relations.add(image)
            todo.append(image)
    return mk.Presentation(p.letters, tuple(relations))


def oracle_classes(p, n):
    """Length-n classes of the oracle as lists of words, lex-min first."""
    groups = {}
    for w, root in naive_partition(p, n).items():
        groups.setdefault(root, []).append(w)
    return [sorted(g, key=p.word_key) for g in groups.values()]


@settings(max_examples=60, deadline=None)
@given(presentations())
@example(mk.parse_presentation("generators: a b\nrelation: a = b\n"))
@example(mk.parse_presentation("generators: a b\nrelation: ab = bb\n"))
def test_tables_match_oracle(p):
    eng = engine(p)
    for n in range(5):
        classes = oracle_classes(p, n)
        canons = eng.canonicals_at(n)
        assert len(canons) == len(classes)
        for cls in classes:
            ids = {eng.class_of(eng.encode(w)) for w in cls}
            assert len(ids) == 1
            assert eng.decode(canons[ids.pop()]) == cls[0]


@settings(max_examples=40, deadline=None)
@given(presentations())
@example(mk.parse_presentation("generators: a b\nrelation: ab = bb\n"))
def test_level_images_match_word_walks(p):
    # the whole-level images against class_of on each concatenated word
    eng = engine(p)
    for q in ("".join(w) for j in range(4) for w in product(eng.chars, repeat=j)):
        levels = list(eng.left_levels(q, 4))
        assert len(levels) == 5 - len(q)
        for n, images in enumerate(levels, len(q)):
            zs = eng.partition(n - len(q))
            assert images == [eng.class_of(q + z) for z in zs]
            assert list(eng.right_multiples(q, n)) == [eng.class_of(z + q) for z in zs]
        assert list(eng.left_levels(q + "\x00", len(q))) == []  # longer than the bound
    for n in range(4):
        ws = eng.partition(n)
        for g in eng.chars:
            for side in ("left", "right"):
                groups = {}
                for x, w in enumerate(ws):
                    image = eng.class_of(g + w if side == "left" else w + g)
                    groups.setdefault(image, []).append(x)
                expected = [group for group in groups.values() if len(group) > 1]
                images = (list(eng.left_levels(g, n + 1))[-1] if side == "left"
                          else eng.right_multiples(g, n + 1))
                assert collision_groups(images) == expected


def oracle_failures(p, max_len):
    """Every pair of distinct classes under every context letter, by the oracle."""
    contexts = sorted({cls[0] for cls in oracle_classes(p, 1)}, key=p.word_key)
    expected = set()
    for n in range(1, max_len):
        prod = naive_partition(p, n + 1)
        reps = sorted((cls[0] for cls in oracle_classes(p, n)), key=p.word_key)
        for x, y in combinations(reps, 2):
            for g in contexts:
                if prod[g + x] == prod[g + y]:
                    expected.add(mk.CancellationFailure("left", g, x, y))
                if prod[x + g] == prod[y + g]:
                    expected.add(mk.CancellationFailure("right", g, x, y))
    return expected


@settings(max_examples=30, deadline=None)
@given(presentations())
@example(mk.parse_presentation("generators: a b\nrelation: ab = bb\n"))
def test_search_matches_oracle(p):
    found = mk.search_failures(p, 4)
    assert len(found) == len(set(found))
    assert set(found) == oracle_failures(p, 4)


@settings(max_examples=100, deadline=None)
@given(symmetric_presentations())
@example(mk.parse_presentation("generators: a b c\nrelation: ab = ac\nrelation: ba = ca\n"))
def test_reduced_search_matches_oracle_and_unreduced(p):
    # to length 6 against the search that reads the left side off the
    # mirror, where the finder's cap leaves it room on two letters; to length
    # 4 against the oracle
    with patch.object(cancel, "letter_symmetries", no_symmetries):
        mirrored = mk.search_failures(p, 6)
    assert mk.search_failures(p, 6) == mirrored
    assert set(mk.search_failures(p, 4)) == oracle_failures(p, 4)


@st.composite
def common_multiple_queries(draw):
    """A presentation, a set J of 1-2 words of up to 2 letters, and a bound
    from the longest word of J to 4."""
    p = draw(presentations())
    word = st.text(alphabet="".join(p.letters), max_size=2).map(tuple)
    J = draw(st.lists(word, min_size=1, max_size=2))
    return p, J, draw(st.integers(max(map(len, J)), 4))


# b and cb have the minimal common multiples bbc and bbab, of two lengths
NO_LCM = mk.parse_presentation("generators: a b c\nrelation: baa = cab\nrelation: bb = cc\n")


@settings(max_examples=40, deadline=None)
@given(common_multiple_queries())
@example((NO_LCM, [W("b"), W("cb")], 4))
@example((NO_LCM, [(), W("cb")], 4))
@example((NO_LCM, [()], 3))
def test_common_multiples_match_oracle(query):
    p, J, bound = query
    common = [
        cls[0]
        for n in range(max(map(len, J)), bound + 1)
        for cls in oracle_classes(p, n)
        if all(naive_left_divides(j, cls[0], p) for j in J)
    ]
    minimal = [
        u for u in common
        if not any(len(v) < len(u) and naive_left_divides(v, u, p) for v in common)
    ]
    lcm = None
    if len(minimal) == 1 and all(naive_left_divides(minimal[0], u, p) for u in common):
        lcm = minimal[0]
    assert mk.cm_r(J, p, bound) == set(common)
    rep = mk.mcm_r(J, p, bound)
    assert rep.common_multiples == set(common)
    assert rep.minimal == set(minimal)
    assert rep.lcm_up_to_bound == lcm


def test_class_count_fingerprints(m6, m6pc):
    counts = {
        m6: [1, 6, 30, 139, 624, 2761, 12144, 53274],
        m6pc: [1, 6, 33, 174, 906, 4698, 24334, 125994],
    }
    for p, expected in counts.items():
        eng = engine(p)
        assert [len(eng.canonicals_at(n)) for n in range(8)] == expected


def test_failure_count_fingerprints(m6):
    assert len(mk.search_failures(m6, 6)) == 86
    assert len(mk.search_failures(m6, 7)) == 642


def test_class_of_walks_products(m6, rng):
    # class ids are congruent: the class of u*v depends on u's class only
    eng = engine(m6)
    for _ in range(30):
        u = eng.encode(tuple(rng.choice(m6.letters) for _ in range(3)))
        v = eng.encode(tuple(rng.choice(m6.letters) for _ in range(2)))
        twin = eng.canonicals_at(3)[eng.class_of(u)]
        assert eng.class_of(u + v) == eng.class_of(twin + v)
    assert eng.class_of("") == 0 and tuple(eng.canonicals_at(0)) == ("",)


def test_racing_level_builds_agree():
    # threads that build the same levels at once must leave one set of tables
    p = mk.fixture("M6")
    eng = engine(p)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: results.append(
            [len(eng.canonicals_at(n)) for n in range(6)])) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [[1, 6, 30, 139, 624, 2761]] * 8
    assert len(eng.canonicals_at(6)) == 12144


def seventy_letter_presentation():
    """Seventy letters, past the 64 bits of a letter mask: x(i)*x(i+64) =
    x(i+64)*x(i) joins letters that share a bit, and x(i)*x(i+3) =
    x(i+1)*x(i+3) is a right failure."""
    x = [f"x{i}" for i in range(70)]
    relations = [mk.Relation((x[i], x[i + 64]), (x[i + 64], x[i])) for i in range(6)]
    relations += [mk.Relation((x[i], x[i + 3]), (x[i + 1], x[i + 3])) for i in range(0, 60, 7)]
    return mk.Presentation(tuple(x), tuple(relations))


@pytest.mark.parametrize("p, max_len", [
    (mk.fixture("M6"), 8),
    (mk.fixture("M6p_completed"), 8),
    (mk.build_gmn(3, 3).presentation, 6),
    (mk.parse_presentation("generators: a b c\nrelation: ab = cb\nrelation: ba = ca\n"), 6),
    (seventy_letter_presentation(), 3),
])
def test_right_groups_off_the_forest_match_the_numbered_columns(p, max_len):
    # each length read off its union pass before it is numbered, against the
    # sorted columns of an engine numbered to max_len
    forest, numbered = RewriteEngine(p), RewriteEngine(p)
    numbered.partition(max_len)
    for n in range(1, max_len + 1):
        groups = forest.right_groups(n)
        assert forest.class_count(n) == len(numbered.partition(n))
        assert groups == [collision_groups(numbered.right_multiples(g, n))
                          for g in numbered.chars]
        assert list(forest.partition(n)) == list(numbered.partition(n))


@pytest.mark.parametrize("p, max_len, symmetries", [
    (mk.fixture("M6"), 7, cancel.letter_symmetries),
    (mk.fixture("M6p_completed"), 7, cancel.letter_symmetries),
    (mk.build_gmn(3, 3).presentation, 6, cancel.letter_symmetries),
    (mk.build_gmn(3, 3).presentation, 4, cancel.letter_symmetries),  # relations of 4 letters
    (mk.fixture("M6p"), 6, no_symmetries),  # the left side off the mirror's tables
])
def test_tables_after_a_search_match_a_fresh_engine(p, max_len, symmetries, rng):
    with patch.object(cancel, "letter_symmetries", symmetries):
        mk.search_failures(p, max_len)
    eng, fresh = engine(p), RewriteEngine(p)
    assert eng.class_count(max_len) == len(fresh.partition(max_len))
    assert list(eng.partition(max_len)) == list(fresh.partition(max_len))
    for _ in range(200):
        w = "".join(rng.choice(eng.chars) for _ in range(max_len))
        assert eng.class_of(w) == fresh.class_of(w)
    assert [eng.class_count(n) for n in range(max_len + 2)] == \
        [len(fresh.partition(n)) for n in range(max_len + 2)]


def test_racing_searches_and_level_builds_agree():
    # threads that search to a length and number it at once on one engine,
    # all from the union pass that counting the length kept
    p = mk.fixture("M6")
    assert engine(p).class_count(6) == 12144
    expected = mk.search_failures(mk.fixture("M6"), 6)
    assert len(expected) == 86
    canonicals = list(RewriteEngine(p).partition(6))
    searches, levels = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: searches.append(mk.search_failures(p, 6)))
                   for _ in range(4)]
        threads += [threading.Thread(target=lambda: levels.append(list(engine(p).partition(6))))
                    for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert searches == [expected] * 4
    assert levels == [canonicals] * 4
