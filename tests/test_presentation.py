import pytest
from hypothesis import given, settings, strategies as st

import monoidkit as mk
from monoidkit import ParseError, Presentation, Relation
from monoidkit.presentation import _FIXTURES
from monoidkit.rewrite import engine

from conftest import W


def test_parse_minimal_commutation():
    p = mk.parse_presentation("generators: s t\ncyclic: s t\n")
    assert p.letters == ("s", "t")
    assert p.relations == (Relation(("s", "t"), ("t", "s")),)


def test_parse_m6_text(m6):
    assert len(m6.letters) == 6
    assert len(m6.relations) == 12


def test_parse_non_homogeneous_flagged():
    p = mk.parse_presentation("generators: a\nrelation: a = aa\n")
    assert not p.homogeneous
    assert not p.letter_balanced


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        mk.parse_presentation("relation: a = b\n")
    with pytest.raises(ParseError, match="line 3"):
        mk.parse_presentation("generators: a b\n\nrelation: a = c\n")
    with pytest.raises(ParseError, match="empty relation side"):
        mk.parse_presentation("generators: a b\nrelation: a = \n")
    with pytest.raises(ParseError, match="duplicate generators"):
        mk.parse_presentation("generators: a\ngenerators: b\n")
    with pytest.raises(ParseError, match="unknown directive"):
        mk.parse_presentation("generators: a\nfrobnicate: a\n")
    with pytest.raises(ParseError):
        mk.parse_presentation("# only a comment\n")
    # the signed-word suffix "~" is no part of a word in a file
    for line in ("relation: ab~ = ba", "cyclic: a b~"):
        with pytest.raises(ParseError, match="line 2: unknown letter"):
            mk.parse_presentation(f"generators: a b\n{line}\n")
    # a relation line names the first unknown letter, dotted or not
    for line, letter in (("relation: ab = bc", "c"), ("relation: a.b = b.x1.y", "x1")):
        with pytest.raises(ParseError, match=rf"^line 2: unknown letter '{letter}'$"):
            mk.parse_presentation(f"generators: a b\n{line}\n")
    # a ParseError is a ValueError, as every refused argument is
    assert issubclass(ParseError, ValueError)


def test_comments_and_blank_lines_ignored():
    p = mk.parse_presentation("# header\n\ngenerators: a b\n# note\nrelation: ab = ba\n")
    assert len(p.relations) == 1


def test_multichar_letters_need_dots():
    p = mk.parse_presentation("generators: s t1\nrelation: s.t1 = t1.s\n")
    assert p.relations == (Relation(("s", "t1"), ("t1", "s")),)
    with pytest.raises(ParseError, match="unknown letter"):
        mk.parse_presentation("generators: s t1\nrelation: st1 = t1s\n")


def test_relation_chain_expands_against_first():
    p = mk.parse_presentation("generators: a b f\nrelation: abf = bfa = fab\n")
    assert set(p.relations) == {
        Relation(W("abf"), W("bfa")),
        Relation(W("abf"), W("fab")),
    }


def test_expand_cyclic_pairs():
    rels = mk.expand_cyclic(("s", "t1", "t2"))
    assert set(rels) == {
        Relation(("s", "t1", "t2"), ("t1", "t2", "s")),
        Relation(("s", "t1", "t2"), ("t2", "s", "t1")),
    }
    assert mk.expand_cyclic(("s", "t")) == (Relation(("s", "t"), ("t", "s")),)
    with pytest.raises(ValueError):
        mk.expand_cyclic(("s",))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_expand_cyclic_size_and_closure(k):
    letters = tuple(f"x{i}" for i in range(k))
    rels = mk.expand_cyclic(letters)
    assert len(rels) == k - 1
    p = Presentation(letters, rels)
    rotations = [letters[j:] + letters[:j] for j in range(k)]
    assert all(mk.equal(rotations[0], r, p) for r in rotations)


def test_classify(m6, p22):
    for p in (m6, p22):
        assert p.homogeneous and p.letter_balanced and p.dummy_letters == frozenset()
    dummy = Presentation(("a", "b"), (Relation(("a",), ("b",)),))
    assert dummy.dummy_letters == frozenset({"a", "b"})


def test_letter_balanced_means_anagram_sides():
    p = mk.parse_presentation("generators: a b\nrelation: ab = bb\n")
    assert p.homogeneous and not p.letter_balanced


def test_relation_unordered_and_trivial_dropped():
    assert Relation(W("ab"), W("ba")) == Relation(W("ba"), W("ab"))
    p = Presentation(("a", "b"), (Relation(W("ab"), W("ab")), Relation(W("ab"), W("ba"))))
    assert len(p.relations) == 1


def test_presentation_validation():
    with pytest.raises(ValueError, match=r"^relation uses unknown letters \['b'\]$"):
        Presentation(("a",), (Relation(("a",), ("b",)),))
    # the first relation at fault in the presentation's order is named
    with pytest.raises(ValueError, match=r"^relation uses unknown letters \['c', 'd'\]$"):
        Presentation(("a", "b"), (Relation(W("ae"), W("ea")), Relation(W("ab"), W("ba")),
                                  Relation(W("ad"), W("ca"))))
    with pytest.raises(ValueError, match="duplicate"):
        Presentation(("a", "a"), ())
    with pytest.raises(ValueError, match="bad letter"):
        Presentation(("a.b",), ())
    with pytest.raises(ValueError, match="non-empty"):
        Relation((), ("a",))


def test_fixture_counts(m6, m6p, m6pc):
    assert len(m6.relations) == 12
    assert len(m6p.relations) == 11
    assert len(m6pc.relations) == 12
    assert set(m6pc.relations) - set(m6p.relations) == {Relation(W("cefa"), W("efac"))}
    with pytest.raises(ValueError, match="unknown fixture"):
        mk.fixture("M7")


def test_fixtures_flagged_not_cancellative(m6):
    assert m6.cancellative is False


def test_fixture_calls_share_no_object():
    a, b = mk.fixture("M6"), mk.fixture("M6")
    assert a == b and a is not b
    assert engine(a) is not engine(b)


def test_fixture_text_parsed_once_per_name(monkeypatch):
    parsed = []
    parse = mk.presentation._parse_text

    def counting(text):
        parsed.append(text)
        return parse(text)

    # fixture() goes through the private parser: parse_presentation would
    # build a second Presentation on every first call
    monkeypatch.setattr(mk.presentation, "_parse_text", counting)
    mk.presentation._fixture_parts.cache_clear()
    try:
        for name in ("M6", "M6p-completed", "M6", "M6p_completed", "M6p", "M6p"):
            mk.fixture(name)
    finally:
        mk.presentation._fixture_parts.cache_clear()
    assert sorted(parsed) == sorted(_FIXTURES.values())
    assert mk.fixture("M6p-completed") == mk.fixture("M6p_completed")
    with pytest.raises(ValueError) as e:
        mk.fixture("M7")
    assert str(e.value) == "unknown fixture 'M7'; choose from ['M6', 'M6p', 'M6p_completed']"


# serialize_presentation digests; any change to parsing, relation order or
# word formatting that moves one changes every report's presentation_sha
DIGESTS = {
    "M6": "ea15f2289458e658d0d30bca65ad2089f1e904503f32b7dceeada6ad70ce742c",
    "M6p": "8e3153c5ba836346bd0e8557548b75799d233e0f2e94fb1a833d3c5b3f00eb2a",
    "M6p_completed": "ddc9b6347e66d548f418eea7513ba0a3ff688531517d19b0b8b0be87344dcc5f",
    "gmn:2,2": "1d255e04715156b5497db50a22142d69bfd3d657d242bcdb513398b5cf1223e4",
    "gmn:3,2": "a9156f4cf57063bd14161e314cd8f76fc08a43d7bf0081e5c7b151f828b112bd",
}


@pytest.mark.parametrize("name", DIGESTS)
def test_presentations_built_once_in_dataclass_order(name, monkeypatch):
    checks = []
    init = Presentation.__init__

    def counting(self, *args, **kwargs):
        checks.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Presentation, "__init__", counting)
    gmn = name.startswith("gmn:")
    p = mk.build_gmn(*map(int, name[4:].split(","))).presentation if gmn else mk.fixture(name)
    assert len(checks) == 1
    if not gmn:
        assert p.cancellative is False
        assert p == mk.parse_presentation(_FIXTURES[name])
    assert p.relations == tuple(sorted(p.relations))
    assert mk.presentation_digest(p) == DIGESTS[name]


G32 = mk.build_gmn(3, 2).presentation  # letter names such as t1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([mk.fixture("M6"), G32]).flatmap(lambda p: st.tuples(
    st.just(p), st.lists(st.lists(st.sampled_from(p.letters), max_size=7).map(tuple),
                         max_size=40))))
def test_sorted_words_by_length_then_declaration_order(case):
    p, words = case
    key = lambda w: (len(w), [p.letters.index(x) for x in w])  # noqa: E731
    assert p.sorted_words(words) == sorted(words, key=key)
    assert [p.word_key(w) for w in words] == [tuple(key(w)[1]) for w in words]


def test_serialize_round_trip(m6, m6p, m6pc, p22):
    for p in (m6, m6p, m6pc, p22):
        text = mk.serialize_presentation(p)
        q = mk.parse_presentation(text)
        assert q == p
        assert mk.serialize_presentation(q) == text
        assert mk.presentation_digest(q) == mk.presentation_digest(p)


def test_parse_word_and_format(m6, p22):
    assert mk.parse_word(m6, "cdeaf") == W("cdeaf")
    assert mk.parse_word(m6, "1") == ()
    assert mk.parse_word(p22, "s.t1.t2") == ("s", "t1", "t2")
    assert mk.format_word(m6, W("abc")) == "abc"
    assert mk.format_word(p22, ("s", "t1")) == "s.t1"
    assert mk.format_word(m6, ()) == "1"
    with pytest.raises(ParseError):
        mk.parse_word(m6, "xyz")
    # the signed-word suffix "~" is no part of a positive word
    for p, text in ((m6, "ab~"), (p22, "s.t1~"), (p22, "t1~")):
        with pytest.raises(ParseError, match="unknown letter"):
            mk.parse_word(p, text)
