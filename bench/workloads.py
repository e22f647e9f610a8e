"""The four workloads: inputs made from a seed, and the checks on the outputs.

Each maker returns a Plan: the operations the measured process runs (only
generated inputs reach the program) and, for each operation, a check that
judges its output with the oracle, the stored reference sets or a
certificate made here.  A check returns None when the output is right and a
message otherwise.

Seeds move names, declaration orders and relation order, and pick the cheap
random inputs; the costly operations keep their shape and their place in the
round, so a round costs the same whatever the seed (see README.md).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import oracle
from oracle import Monoid

HERE = Path(__file__).resolve().parent


@dataclass
class Plan:
    ops: list
    checks: list
    # collect garbage between operations: each CLI command then starts from a
    # clean heap, as it would in its own process
    collect_between: bool = True


def plan_of(pairs, collect_between=True) -> Plan:
    """A plan from (operation, check) pairs in running order."""
    return Plan([op for op, _ in pairs], [check for _, check in pairs], collect_between)


def interleave(heavy, cheap):
    """The cheap operations spread evenly around the heavy ones, so that their
    median latency samples the whole round rather than one moment of it."""
    out = []
    chunks = len(heavy) + 1
    for i in range(chunks):
        out += cheap[i * len(cheap) // chunks:(i + 1) * len(cheap) // chunks]
        out += heavy[i:i + 1]
    return out


def dotted(word) -> str:
    return ".".join(word) if word else "1"


def cli_op(argv, metric):
    return {"kind": "cli", "argv": [str(a) for a in argv], "metric": metric}


def completed(judge):
    """A check that wants exit code 0 and hands the report's result to ``judge``."""

    def check(out):
        if out["exit"] != 0:
            return f"exit code {out['exit']}"
        return judge(out["report"]["result"])

    return check


def reproduced(judge):
    """A check on a named claim: reproduced, and its first entry passes ``judge``."""

    def check_claim(res):
        return judge(res["claims"][0]) if res["reproduced"] else "claim not reproduced"

    return completed(check_claim)


class Relabelled:
    """A presentation under seed-chosen names and declaration order, written to a file."""

    def __init__(self, letters, relations, rng, work: Path, tag: str, names=None, shuffle_order=True):
        if names is None:
            names = list(letters)
            rng.shuffle(names)
        self.ren = dict(zip(letters, names))
        declared = list(names)
        if shuffle_order:
            rng.shuffle(declared)
        else:
            declared.sort()
        rels = [
            tuple(tuple(self.ren[x] for x in side) for side in (rel if rng.random() < 0.5 else rel[::-1]))
            for rel in relations
        ]
        rng.shuffle(rels)
        self.letters = tuple(declared)
        self.relations = rels
        self.monoid = Monoid(self.letters, rels)
        self.path = work / f"{tag}.txt"
        self.path.write_text(oracle.presentation_text(self.letters, rels))

    def word(self, w):
        return tuple(self.ren[x] for x in w)


# ---------------------------------------------------------------------------
# cancel-search


def load_reference():
    return json.loads((HERE / "reference.json").read_text())


def _failure_check(ref, max_len, orig: Monoid, seen: Monoid, ren):
    """The reference failures with product length at most ``max_len``, which may
    be below the reference's own bound (a failure's product has |x| + 1 letters)."""
    back = {new: old for old, new in ren.items()}
    expected = {
        (side,) + tuple(orig.enc(w.split(".")) for w in (g, x, y))
        for side, g, x, y in ref["failures"]
        if len(x.split(".")) < max_len
    }

    def check(res):
        fails = res["failures"]
        if res["count"] != len(fails) or len(fails) != len(expected):
            return f"{len(fails)} failures reported, reference has {len(expected)}"
        got = set()
        for f in fails:
            g, x, y = (seen.enc(f[k]) for k in ("context", "x", "y"))
            cx, cy = seen.closure(x), seen.closure(y)
            if min(cx) != x or min(cy) != y or y in cx:
                return f"{f}: x and y are not least words of distinct classes"
            a, b = (g + x, g + y) if f["side"] == "left" else (x + g, y + g)
            if not seen.equal(a, b):
                return f"{f}: the products differ, no failure"
            g0, x0, y0 = (orig.canonical(orig.enc([back[c] for c in f[k]]))
                          for k in ("context", "x", "y"))
            got.add((f["side"], g0, min(x0, y0), max(x0, y0)))
        if got != expected:
            return f"failure set differs from the reference in {len(got ^ expected)} entries"
        return None

    return completed(check)


def _claim_check(m: Monoid):
    def check(res):
        if not res["reproduced"] or not res["claims"]:
            return "claim not reproduced"
        for c in res["claims"]:
            holds = m.equal(m.enc(c["pair"][0]), m.enc(c["pair"][1]))
            cancelled = m.equal(m.enc(c["cancelled_pair"][0]), m.enc(c["cancelled_pair"][1]))
            if (c["holds"], c["cancelled_holds"]) != (holds, cancelled) or not holds or cancelled:
                return f"claim {c['id']}: verdicts {c['holds']}, {c['cancelled_holds']} " \
                       f"but the oracle finds {holds}, {cancelled}"
        return None

    return completed(check)


# product-length bounds of the searches: one below the reference's, so that a
# round takes about a second and a run holds many rounds
CS_MAX_LEN = {"M6": 6, "M6p_completed": 6, "g33": 5}


def cancel_search(seed: int, work: Path) -> Plan:
    rng = random.Random(seed)
    ref = load_reference()
    searches, claims = [], []
    for name in ("M6", "M6p_completed"):
        letters, rels = oracle.six_letter(name)
        pres = Relabelled(letters, rels, rng, work, name, shuffle_order=False)
        searches.append((
            cli_op(["cancel-search", pres.path, "--max-len", CS_MAX_LEN[name], "--json"],
                   "cancel_search_s"),
            _failure_check(ref[name], CS_MAX_LEN[name], Monoid(letters, rels), pres.monoid,
                           pres.ren)))
    letters, rels, _ = oracle.gmn(3, 3)
    g33 = Monoid(letters, rels)
    searches.append((
        cli_op(["gmn", "--m", 3, "--n", 3, "--run", "cancel-search", "--max-len",
                CS_MAX_LEN["g33"], "--json"], "cancel_search_s"),
        _failure_check(ref["g33"], CS_MAX_LEN["g33"], g33, g33, {x: x for x in letters})))
    for name in ("M6", "M6p", "M6p_completed"):
        m = Monoid(*oracle.six_letter(name))
        for k in range(1, 9):
            claims.append((cli_op(["claim", name, "--k", k, "--json"], "claim_s"), _claim_check(m)))
    return plan_of(interleave(searches, claims))


# ---------------------------------------------------------------------------
# word-queries

WQ_BASES = 240  # base words per presentation: three blocks of 80 turns
# Base words are drawn until their class size falls in the stratum of their
# turn, so every seed gets the same mix of small and large classes.  Word
# length, the length of the divisors cut from members and whether the class
# is listed also follow the turn: a divisor of one letter on a long word in a
# large class costs up to a hundred times the median query, so left to the
# draw they would make a round's cost depend on the seed.
WQ_STRATA = ((1, 10), (11, 50), (51, 250), (251, 1000))
WQ_LENGTHS = (8, 9, 10, 11, 12)
WQ_CUTS = (1, 2, 3, 4)


def _walk(m: Monoid, s: str, steps: int, rng) -> str:
    for _ in range(steps):
        nbs = sorted(set(m.neighbours(s)))
        if not nbs:
            break
        s = rng.choice(nbs)
    return s


def _expect(value):
    def check(out):
        return None if out == value else f"expected {value!r}, got {out!r}"

    return check


def word_queries(seed: int, work: Path) -> Plan:
    rng = random.Random(seed)
    monoids = {
        "M6": Monoid(*oracle.six_letter("M6")),
        "M6p_completed": Monoid(*oracle.six_letter("M6p_completed")),
        "g32": Monoid(*oracle.gmn(3, 2)[:2]),
    }
    canon_memo: dict[tuple[str, str], str] = {}

    def canonical(key, s):
        if (key, s) not in canon_memo:
            cls = monoids[key].closure(s)
            least = min(cls)
            for w in cls:
                canon_memo[key, w] = least
        return canon_memo[key, s]

    def names(key, s):
        return list(monoids[key].dec(s))

    def dotted_names(key, s):
        return ".".join(monoids[key].dec(s))

    def op(fn, key, *words):
        return {"kind": "lib", "fn": fn, "pres": key, "args": [names(key, w) for w in words],
                "metric": "query"}

    def divides(key, a, v, cls, side):
        if side == "left":
            quots = {canonical(key, m[len(a):]) for m in cls if m.startswith(a)}
        else:
            quots = {canonical(key, m[:len(m) - len(a)]) for m in cls if m.endswith(a)}
        expected = [bool(quots), sorted(dotted_names(key, q) for q in quots)]
        return op(f"{side}_divides", key, a, v), _expect(expected)

    pairs = []
    visited = []  # (key, class members as a sorted list) of earlier blocks
    # turn i takes every combination of stratum, length and cut once in each
    # block of 80, and the class listing in the first and the third block
    order = []
    for key in monoids:
        for i in range(WQ_BASES):
            combo = i % 80
            order.append((key, WQ_STRATA[combo % 4], WQ_LENGTHS[combo // 4 % 5],
                          WQ_CUTS[combo // 20], i // 80 % 2 == 0))
    rng.shuffle(order)
    for key, (smallest, largest), length, cut, listed in order:
        m = monoids[key]
        chars = [m.code[x] for x in m.letters]
        while True:
            u = "".join(rng.choice(chars) for _ in range(length))
            cls = m.closure(u, limit=largest)
            if cls is not None and len(cls) >= smallest:
                break
        members = sorted(cls)
        least = members[0]
        for w in members:
            canon_memo[key, w] = least
        ops = [(op("equal", key, u, _walk(m, u, rng.randint(1, 12), rng)), _expect(True))]
        for _ in range(20):
            v = "".join(rng.sample(u, len(u)))
            if v not in cls:
                ops.append((op("equal", key, u, v), _expect(False)))
                break
        ops.append((op("canonical", key, rng.choice(members)), _expect(dotted_names(key, least))))
        ops.append(divides(key, rng.choice(members)[:cut], u, cls, "left"))
        ops.append(divides(key, rng.choice(members)[-cut:], u, cls, "right"))
        probe = "".join(rng.choice(chars) for _ in range(rng.randint(1, 3)))
        ops.append(divides(key, probe, u, cls, rng.choice(("left", "right"))))
        if listed:
            ops.append((op("equivalence_class", key, rng.choice(members)),
                        _expect(sorted(dotted_names(key, w) for w in members))))
        visited.append((key, members))
        # revisit a class built earlier: answered from the program's cache
        old_key, old = rng.choice(visited)
        ops.append((op("equal", old_key, rng.choice(old), rng.choice(old)), _expect(True)))
        ops.append((op("canonical", old_key, rng.choice(old)),
                    _expect(dotted_names(old_key, old[0]))))
        pairs += ops
    return plan_of(pairs, collect_between=False)


# ---------------------------------------------------------------------------
# gmn-structure

GMN_NAMES = [f"x{i}" for i in range(10)]
GMN_NAMINGS = 3  # namings of each small g(m,n) per round


def _gmn_relabelled(m, n, rng, work, tag):
    letters, rels, delta = oracle.gmn(m, n)
    names = rng.sample(GMN_NAMES, len(letters))
    pres = Relabelled(letters, rels, rng, work, f"{tag}-g{m}{n}", names=names)
    return pres, letters, pres.word(delta)


def _fundamental_check(pres: Relabelled, delta):
    m = pres.monoid

    def check(res):
        if not res["fundamental"]:
            return "delta reported not fundamental"
        sigma = res["sigma"]
        if sorted(sigma) != sorted(pres.letters) or sorted(sigma.values()) != sorted(pres.letters):
            return "sigma is not a permutation of the atoms"
        cls = m.closure(m.enc(delta))
        for s, q in res["quotients"].items():
            qs = m.enc(q)
            if m.enc([s]) + qs not in cls or qs + m.enc([sigma[s]]) not in cls:
                return f"certificate fails at atom {s}"
        return None

    return completed(check)


def _divisor_classes(m: Monoid, word):
    cls = m.closure(m.enc(word))
    memo = {}
    out = set()
    for w in {w[:i] for w in cls for i in range(len(w) + 1)}:
        if w not in memo:
            c = m.closure(w)
            least = min(c)
            for v in c:
                memo[v] = least
        out.add(memo[w])
    return out


def _garside_check(pres: Relabelled, delta):
    m = pres.monoid

    def check(res):
        if not (res["is_garside"] and res["coincide"] and res["generate"]):
            return "delta reported not Garside"
        divisors = _divisor_classes(m, delta)
        for side in ("left_divisors", "right_divisors"):
            if {m.enc(w) for w in res[side]} != divisors:
                return f"{side} differ from the oracle's"
        return None

    return completed(check)


def _predicted_mcm(m: Monoid, us, delta1, bound):
    """The paper's minimal common multiples of t1 and t2: w(u) delta1 with w(u)
    not right-divisible by u1..un."""
    from itertools import product

    full = tuple(us)
    out = set()
    for ln in range(bound - len(delta1) + 1):
        for w in product(us, repeat=ln):
            if w[len(w) - len(full):] != full or len(w) < len(full):
                out.add(m.canonical(m.enc(w + tuple(delta1))))
    return out


def _mcm_judge(m: Monoid, predicted):
    def judge(res):
        got = {m.enc(w) for w in res["minimal"]}
        if got != predicted or res["lcm_up_to_bound"] is not None:
            return "minimal common multiples differ from the prediction, or an lcm was reported"
        return None

    return judge


def _centre_judge(m: Monoid, delta):
    """The centre found below length 2|delta| must be {1, delta}."""
    expected = {"", m.canonical(m.enc(delta))}

    def judge(res):
        got = {m.enc(w) for w in res["central"]}
        return None if got == expected else f"centre {sorted(got)} is not {{1, delta}}"

    return judge


# length bounds of the lattice queries (mcm, no-lcm) per g(m,n), and of the
# centre queries and division laws on g(2,2); the centre bound is at least
# |delta| = 5, so the centre found is {1, delta}
GMN_LATTICE_BOUND = {(2, 2): 6, (3, 2): 5}
GMN_CENTRE_BOUND = 5
GMN_LAW_BOUND = 5


def gmn_structure(seed: int, work: Path) -> Plan:
    rng = random.Random(seed)
    costly, cheap = [], []

    def structure(m, n, tag, out):
        pres, _, delta = _gmn_relabelled(m, n, rng, work, tag)
        out.append((cli_op(["fundamental", pres.path, dotted(delta), "--json"], "fundamental_s"),
                    _fundamental_check(pres, delta)))
        out.append((cli_op(["garside", pres.path, dotted(delta), "--json"], "garside_s"),
                    _garside_check(pres, delta)))

    # small presentations under several namings: the quick structure queries
    # that make up the middle of the latency distribution
    for i in range(GMN_NAMINGS):
        for m, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
            structure(m, n, f"small{i}", cheap)
    structure(4, 4, "large", costly)
    for (m, n), bound in GMN_LATTICE_BOUND.items():
        pres, letters, delta = _gmn_relabelled(m, n, rng, work, "lattice")
        mon = pres.monoid
        t1, t2 = pres.word(("t1",)), pres.word(("t2",))
        us = pres.word(letters[m + 1:])
        delta1 = pres.word(letters[: m + 1])
        costly.append((
            cli_op(["mcm", pres.path, dotted(t1), dotted(t2), "--max-len", bound, "--json"],
                   "mcm_s"),
            completed(_mcm_judge(mon, _predicted_mcm(mon, us, delta1, bound)))))
        # the named claims build g(m,n) themselves, under the paper's names
        o_letters, o_rels, o_delta = oracle.gmn(m, n)
        orig = Monoid(o_letters, o_rels)
        predicted = _predicted_mcm(orig, o_letters[m + 1:], o_letters[: m + 1], bound)
        costly.append((
            cli_op(["claim", "no-lcm", "--m", m, "--n", n, "--max-len", bound, "--json"],
                   "claim_s"),
            reproduced(_mcm_judge(orig, predicted))))
        if (m, n) == (2, 2):
            costly.append((
                cli_op(["center-scan", pres.path, "--max-len", GMN_CENTRE_BOUND, "--json"],
                       "center_scan_s"),
                completed(_centre_judge(mon, delta))))
            costly.append((
                cli_op(["claim", "center", "--m", m, "--n", n, "--max-len", GMN_CENTRE_BOUND,
                        "--json"], "claim_s"),
                reproduced(_centre_judge(orig, o_delta))))
    for case in ("i", "ii", "iii", "iv", "v", "vi"):
        # each case on its own g(2,2), so its cost does not depend on the order
        costly.append(({"kind": "lib", "fn": "division_law", "ctx": f"ctx22-{case}",
                        "case": case, "max_len": GMN_LAW_BOUND, "metric": "division_laws_s"},
                       lambda out: None if out[1] == 0 else f"{out[1]} division-law violations"))
    return plan_of(interleave(costly, cheap))


# ---------------------------------------------------------------------------
# group-words


def _inv(w):
    return [(x, -s) for x, s in reversed(w)]


def _pos(w):
    return [(x, 1) for x in w]


def _signed_text(w) -> str:
    return ".".join(x + ("~" if s < 0 else "") for x, s in w) if w else "1"


class GroupPresentation:
    def __init__(self, m, n, rng, work):
        self.pres, self.letters, self.delta = _gmn_relabelled(m, n, rng, work, "group")
        p = self.pres
        self.commuting = {frozenset(p.word((t, u))) for t in self.letters[1:m + 1]
                          for u in self.letters[m + 1:]}
        self.reps = oracle.permutation_representations(p.letters, p.relations, 3)

    def name(self, x):
        return self.pres.word((x,))[0]

    def op(self, w1, w2, k, expected):
        """Compare lambda^k w1 with lambda^k w2 (lambda = delta, sigma being the identity)."""
        pad = _pos(self.delta) * k
        a, b = pad + w1, pad + w2
        for rep in self.reps:  # a pair equal by construction has one image everywhere
            if expected and oracle.image(rep, a, 3) != oracle.image(rep, b, 3):
                raise AssertionError("constructed pair is not equal")
        argv = ["group-equal", self.pres.path, _signed_text(a), _signed_text(b),
                "--delta", dotted(self.delta), "--assume-injective", "--json"]
        return cli_op(argv, "group_equal_s"), _expect_verdict(expected)

    def commutator(self, x, y, k):
        w = [(x, 1), (y, 1), (x, -1), (y, -1)]
        if frozenset((x, y)) in self.commuting:
            return self.op(w, [], k, True)
        if oracle.separating_representation(self.reps, w, [], 3) is None:
            return None  # not certified unequal: no verdict to check
        return self.op(w, [], k, False)

    def relator_conjugate(self, rng, k):
        lhs, rhs = rng.choice(self.pres.relations)
        x = rng.choice(self.pres.letters)
        w = [(x, 1)] + _pos(lhs) + _inv(_pos(rhs)) + [(x, -1)]
        return self.op(w, [], k, True)

    def delta_conjugate(self, w, k):
        return self.op(_pos(self.delta) + _pos(w) + _inv(_pos(self.delta)), _pos(w), k, True)

    def random_commutator(self, rng, k):
        while True:
            x, y = rng.sample(self.pres.letters, 2)
            made = self.commutator(x, y, k)
            if made is not None:
                return made


def _expect_verdict(expected):
    def judge(res):
        return None if res["equal"] is expected else f"verdict {res['equal']}, expected {expected}"

    return completed(judge)


GW_CHEAP = 5  # random comparisons of each cheap kind, per presentation and padding
# The lambda^3 comparison stops at this class size.  It fails at the default
# cap of 1,000,000 as well, after 8-10 s at about 176 MB; at this cap it fails
# in about half a second, so a run holds many rounds.
GW_LAMBDA3_CAP = 100_000


def group_words(seed: int, work: Path) -> Plan:
    rng = random.Random(seed)
    costly, cheap = [], []
    for m, n in ((2, 2), (3, 2)):
        g = GroupPresentation(m, n, rng, work)
        letters = g.pres.letters
        # many cheap comparisons, so their median latency hardly depends on the draw
        for k in (0, 1):
            for _ in range(GW_CHEAP):
                cheap.append(g.random_commutator(rng, k))
                cheap.append(g.relator_conjugate(rng, k))
        for _ in range(GW_CHEAP):
            cheap.append(g.delta_conjugate([rng.choice(letters) for _ in range(rng.randint(1, 2))], 0))
        # the costly comparisons keep their shape under every seed
        if m == 2:
            costly.append(g.commutator(g.name("s"), g.name("t1"), 2))
            costly.append(g.commutator(g.name("t1"), g.name("u1"), 2))
            costly.append(g.delta_conjugate([g.name("t1"), g.name("u1")], 1))
        else:
            costly.append(g.commutator(g.name("t1"), g.name("t2"), 1))
    # lambda^3 [t1, u1] = lambda^3 in g(2,2): equal by construction, but the
    # class of the 17-letter lift passes any cap a 4-letter commutator needs,
    # so this operation fails on every run; it keeps the paper's names and no
    # seed touches it
    delta3 = ".".join(["s.t1.t2.u1.u2"] * 3)
    costly.append((cli_op(["gmn", "--m", 2, "--n", 2, "--run", "group-equal",
                           delta3 + ".t1.u1.t1~.u1~", delta3, "--cap", GW_LAMBDA3_CAP, "--json"],
                          "group_equal_s"),
                   _expect_verdict(True)))
    return plan_of(interleave(costly, cheap))


WORKLOADS = {
    "cancel-search": cancel_search,
    "word-queries": word_queries,
    "gmn-structure": gmn_structure,
    "group-words": group_words,
}
