"""Command-line interface.

Every subcommand prints a report echoing the invocation, the presentation
digest, the bounds used and whether anything was truncated, so results are
reproducible from the output alone.  ``--json`` switches to a structured
report with words as token arrays.

A presentation source is a file (pipes included), a bundled fixture name or
``gmn:M,N`` for g(M,N).  ``gmn --m M --n N --run CMD ARGS`` is the same as
``CMD gmn:M,N ARGS``, with the flags given before ``--run`` in front, so
flags given after CMD win.

Exit codes: 0 completed (boolean answers live in the payload), 1 claim ran
but did not reproduce the expected outcome, 2 usage or parse error, 3 cap
exceeded (undecided, never reported as false), 4 precondition violated.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import product
from pathlib import Path

from .cancel import search_failures, verify_claim
from .divisibility import left_divides, mcm_r, right_divides
from .errors import (
    CapExceededError,
    InjectivityNotEstablishedError,
    NonHomogeneousError,
    NotFundamentalError,
    ParseError,
)
from .garside import verify_fundamental, verify_garside
from .gmn import build_gmn, in_rm
from .groupwords import center_scan, group_equal, parse_signed_word
from .presentation import (
    Presentation,
    Word,
    fixture,
    fixture_names,
    format_word,
    parse_presentation,
    parse_word,
    presentation_digest,
    serialize_presentation,
)
from .rewrite import DEFAULT_CAP, canonical, equal, equivalence_class

_MEMBER_LIMIT = 200  # class members echoed without --full


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                    help="structured output")
    sp.add_argument("--cap", type=int, default=argparse.SUPPRESS,
                    help=f"class enumeration cap (default {DEFAULT_CAP})")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="monoidkit",
        description="word problem, divisibility and cancellativity for "
        "positively presented monoids",
    )
    ap.set_defaults(json=False, cap=DEFAULT_CAP)
    ap.add_argument("--json", action="store_true", help="structured output")
    ap.add_argument("--cap", type=int, default=DEFAULT_CAP)
    sub = ap.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name: str, help: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help)
        _add_common(sp)
        return sp

    sp = add("parse", "parse a presentation file and report its classification")
    sp.add_argument("source")

    sp = add("class", "enumerate the equivalence class of a word")
    sp.add_argument("source")
    sp.add_argument("word")
    sp.add_argument("--full", action="store_true", help="list members regardless of size")

    sp = add("equal", "decide whether two words are equal in the monoid")
    sp.add_argument("source")
    sp.add_argument("w1")
    sp.add_argument("w2")

    sp = add("divides", "divisibility with all quotients")
    sp.add_argument("--side", choices=("left", "right"), required=True)
    sp.add_argument("source")
    sp.add_argument("u")
    sp.add_argument("v")

    sp = add("mcm", "minimal common right multiples up to a length bound")
    sp.add_argument("source")
    sp.add_argument("words", nargs="+")
    sp.add_argument("--max-len", type=int, required=True)

    sp = add("fundamental", "verify a fundamental element and report its permutation")
    sp.add_argument("source")
    sp.add_argument("word")

    sp = add("garside", "divisor sets of a word and the Garside test")
    sp.add_argument("source")
    sp.add_argument("word")

    sp = add("cancel-search", "exhaustive search for cancellation failures")
    sp.add_argument("source")
    sp.add_argument("--max-len", type=int, required=True)

    sp = add("claim", "reproduce a named bundled claim (exit 1 if it fails)")
    sp.add_argument("name", help="M6 | M6p | M6p_completed | no-lcm | center")
    sp.add_argument("--id", default="all", help="sub-family for the k-indexed fixtures")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--m", type=int, default=2, help="for no-lcm / center")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--max-len", type=int, default=None)

    sp = add("gmn", "build the g(m,n) presentation; emit it or run a subcommand on it")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--emit", action="store_true", help="print the presentation file")
    sp.add_argument("--run", nargs=argparse.REMAINDER, default=None,
                    help="subcommand to run against the built presentation")

    sp = add("group-equal", "decide equality of two group words ('~' marks inverses)")
    sp.add_argument("source")
    sp.add_argument("w1")
    sp.add_argument("w2")
    sp.add_argument("--assume-injective", action="store_true")
    sp.add_argument("--verify-to", type=int, default=None,
                    help="establish injectivity empirically up to this length")
    sp.add_argument("--delta", default=None,
                    help="fundamental element (default: product of all generators)")

    sp = add("center-scan", "canonical central elements up to a length bound")
    sp.add_argument("source")
    sp.add_argument("--max-len", type=int, required=True)

    return ap


def _load(src: str) -> Presentation:
    if src.startswith("gmn:"):
        m, _, n = src[4:].partition(",")
        if not (m.isdigit() and n.isdigit()):
            raise ParseError(f"expected gmn:M,N, got {src}")
        return build_gmn(int(m), int(n)).presentation
    try:
        # any readable path, pipes like /dev/stdin included
        text = Path(src).read_text(encoding="utf-8")
    except OSError:
        if src in fixture_names():
            return fixture(src)
        raise ParseError(f"no such file or fixture: {src}") from None
    return parse_presentation(text)


def _wl(w: Word) -> list[str]:
    return list(w)


def _sorted_words(p: Presentation, words) -> list[Word]:
    return sorted(words, key=lambda w: (len(w), p.word_key(w)))


# ---------------------------------------------------------------------------
# handlers: (payload, text lines, bounds, exit code)


def _do_parse(args, p):
    rels = [[_wl(r.lhs), _wl(r.rhs)] for r in p.relations]
    payload = {
        "letters": list(p.letters),
        "relation_count": len(p.relations),
        "homogeneous": p.homogeneous,
        "letter_balanced": p.letter_balanced,
        "dummy_letters": sorted(p.dummy_letters),
        "relations": rels,
    }
    lines = [
        f"letters: {' '.join(p.letters)}",
        f"relations: {len(p.relations)}",
        f"homogeneous: {p.homogeneous}",
        f"letter_balanced: {p.letter_balanced}",
        f"dummy_letters: {sorted(p.dummy_letters) or '{}'}",
    ]
    return payload, lines, {"cap": args.cap}, 0


def _do_class(args, p):
    w = parse_word(p, args.word)
    cls = equivalence_class(w, p, args.cap)
    members = _sorted_words(p, cls.members)
    payload = {
        "word": _wl(w),
        "size": len(cls),
        "canonical": _wl(cls.canonical),
        "truncated": cls.truncated,
    }
    lines = [f"size: {len(cls)}", f"canonical: {format_word(p, cls.canonical)}"]
    if args.full or len(members) <= _MEMBER_LIMIT:
        payload["members"] = [_wl(m) for m in members]
        lines += [f"  {format_word(p, m)}" for m in members]
    else:
        lines.append(f"  ({len(members)} members; use --full to list)")
    return payload, lines, {"cap": args.cap}, 0


def _do_equal(args, p):
    u, v = parse_word(p, args.w1), parse_word(p, args.w2)
    res = equal(u, v, p, args.cap)
    return {"equal": res}, [f"result: {str(res).lower()}"], {"cap": args.cap}, 0


def _do_divides(args, p):
    u, v = parse_word(p, args.u), parse_word(p, args.v)
    fn = left_divides if args.side == "left" else right_divides
    res = fn(u, v, p, args.cap)
    quots = _sorted_words(p, res.quotients)
    payload = {"side": args.side, "divides": res.divides,
               "quotients": [_wl(q) for q in quots]}
    lines = [f"divides: {str(res.divides).lower()}"]
    if quots:
        lines.append("quotients: " + " ".join(format_word(p, q) for q in quots))
    return payload, lines, {"cap": args.cap}, 0


def _do_mcm(args, p):
    J = [parse_word(p, w) for w in args.words]
    rep = mcm_r(J, p, args.max_len, args.cap)
    cm = _sorted_words(p, rep.common_multiples)
    mins = _sorted_words(p, rep.minimal)
    payload = {
        "words": [_wl(w) for w in J],
        "bound": rep.bound,
        "common_multiples": [_wl(w) for w in cm],
        "minimal": [_wl(w) for w in mins],
        "lcm_up_to_bound": None if rep.lcm_up_to_bound is None else _wl(rep.lcm_up_to_bound),
    }
    lines = [
        f"common multiples up to length {rep.bound}: {len(cm)}",
        "minimal: " + (" ".join(format_word(p, w) for w in mins) or "(none)"),
        "lcm up to bound: "
        + ("(absent)" if rep.lcm_up_to_bound is None else format_word(p, rep.lcm_up_to_bound)),
    ]
    return payload, lines, {"cap": args.cap, "max_len": args.max_len}, 0


def _do_fundamental(args, p):
    w = parse_word(p, args.word)
    try:
        cert = verify_fundamental(w, p, args.cap, strict=True)
    except NotFundamentalError as e:
        payload = {"fundamental": False, "reason": str(e), "atom": e.atom}
        return payload, [f"fundamental: false ({e})"], {"cap": args.cap}, 0
    payload = {
        "fundamental": True,
        "sigma": cert.sigma,
        "order": cert.order,
        "sigma_count": cert.sigma_count,
        "quotients": {s: _wl(q) for s, q in cert.quotients.items()},
    }
    sig = " ".join(f"{s}->{cert.sigma[s]}" for s in sorted(cert.sigma, key=p.index.__getitem__))
    lines = [
        "fundamental: true",
        f"sigma: {sig}",
        f"order: {cert.order}",
        f"permutations found: {cert.sigma_count}",
    ]
    return payload, lines, {"cap": args.cap}, 0


def _do_garside(args, p):
    w = parse_word(p, args.word)
    rep = verify_garside(w, p, args.cap)
    payload = {
        "is_garside": rep.is_garside,
        "coincide": rep.coincide,
        "generate": rep.generate,
        "left_divisors": [_wl(d) for d in _sorted_words(p, rep.left_divisors)],
        "right_divisors": [_wl(d) for d in _sorted_words(p, rep.right_divisors)],
    }
    lines = [
        f"is_garside: {str(rep.is_garside).lower()}",
        f"divisor sets coincide: {rep.coincide}",
        f"divisors generate: {rep.generate}",
        f"left divisors: {len(rep.left_divisors)}, right divisors: {len(rep.right_divisors)}",
    ]
    return payload, lines, {"cap": args.cap}, 0


def _do_cancel_search(args, p):
    fails = search_failures(p, args.max_len, args.cap)
    payload = {
        "count": len(fails),
        "failures": [
            {"side": f.side, "context": _wl(f.context), "x": _wl(f.x), "y": _wl(f.y)}
            for f in fails
        ],
    }
    lines = [f"failures up to length {args.max_len}: {len(fails)}"]
    lines += [
        f"  {f.side} context={format_word(p, f.context)} "
        f"x={format_word(p, f.x)} y={format_word(p, f.y)}"
        for f in fails
    ]
    return payload, lines, {"cap": args.cap, "max_len": args.max_len}, 0


# claim machinery --------------------------------------------------------------

def _k_words(pattern: str, k: int) -> Word:
    """Expand 'cd|e|af' as the middle block repeated k times."""
    head, mid, tail = pattern.split("|")
    return tuple(head + mid * k + tail)


_FIXTURE_CLAIMS = {
    "M6": {
        "cdea": ("cde|a|f", "ce|a|fd", "de|a|f", "e|a|fd"),
        "bfe": ("bf|e|ac", "f|e|abc", "bf|e|a", "f|e|ab"),
        "cef": ("ce|f|ab", "e|f|acb", "ce|f|a", "e|f|ac"),
    },
    "M6p": {
        "dbcefa": ("dbcefa||", "dbefac||", "cefa||", "efac||"),
    },
    "M6p_completed": {
        "acde": ("acde|e|abf", "d|e|aabcef", "acde|e|ab", "d|e|aabce"),
        "cefa": ("cefa|a|cdb", "f|a|ccdeab", "cefa|a|cd", "f|a|ccdea"),
        "eabc": ("eabc|c|efd", "b|c|eefacd", "eabc|c|ef", "b|c|eefac"),
    },
}


def _do_claim(args, _p_unused=None):
    if args.k < 1:
        raise ParseError(f"--k must be at least 1, got {args.k}")
    name = args.name.replace("-", "_") if args.name.startswith("M6") else args.name
    checks = []
    bounds = {"cap": args.cap, "k": args.k}
    if name in _FIXTURE_CLAIMS:
        p = fixture(name)
        families = _FIXTURE_CLAIMS[name]
        ids = list(families) if args.id == "all" else [args.id]
        if any(i not in families for i in ids):
            raise ParseError(f"unknown claim id for {args.name}: {args.id}")
        for cid in ids:
            lhs, rhs, cl, cr = (_k_words(s, args.k) for s in families[cid])
            res = verify_claim(p, lhs, rhs, cl, cr, args.cap)
            checks.append({
                "id": cid,
                "k": args.k,
                "holds": res.holds,
                "cancelled_holds": res.cancelled_holds,
                "reproduced": res.holds and not res.cancelled_holds,
                "pair": [_wl(lhs), _wl(rhs)],
                "cancelled_pair": [_wl(cl), _wl(cr)],
            })
    elif name == "no_lcm" or name == "no-lcm":
        if args.m < 2:
            raise ParseError("the no-lcm claim needs --m >= 2 (it compares t1 and t2)")
        ctx = build_gmn(args.m, args.n)
        p = ctx.presentation
        bound = args.max_len if args.max_len is not None else len(ctx.delta1) + 1
        bounds["max_len"] = bound
        rep = mcm_r([("t1",), ("t2",)], p, bound, args.cap)
        predicted = set()
        for ln in range(0, bound - len(ctx.delta1) + 1):
            for tup in product(ctx.u_letters, repeat=ln):
                if in_rm(ctx, tup, 2):
                    predicted.add(canonical(tup + ctx.delta1, p, args.cap))
        ok = (rep.minimal == frozenset(predicted)
              and rep.lcm_up_to_bound is None and len(rep.minimal) > 1)
        checks.append({
            "id": "no-lcm",
            "minimal": [_wl(w) for w in _sorted_words(p, rep.minimal)],
            "predicted": [_wl(w) for w in _sorted_words(p, predicted)],
            "lcm_up_to_bound": None,
            "reproduced": ok,
        })
    elif name == "center":
        ctx = build_gmn(args.m, args.n)
        p = ctx.presentation
        bound = args.max_len if args.max_len is not None else len(ctx.delta)
        bounds["max_len"] = bound
        found = center_scan(p, bound, args.cap)
        nonempty = {w for w in found if w}
        ok = nonempty == {canonical(ctx.delta, p, args.cap)}
        ok = ok and all(
            left_divides(ctx.delta, w, p, args.cap).divides for w in nonempty
        )
        checks.append({
            "id": "center",
            "central": [_wl(w) for w in _sorted_words(p, found)],
            "reproduced": ok,
        })
    else:
        raise ParseError(f"unknown claim {args.name!r}")
    reproduced = all(c["reproduced"] for c in checks)
    payload = {"claims": checks, "reproduced": reproduced}
    lines = []
    for c in checks:
        detail = ", ".join(
            f"{k}={v}" for k, v in c.items()
            if k in ("holds", "cancelled_holds") and isinstance(v, bool)
        )
        lines.append(f"claim {c['id']}: {'ok' if c['reproduced'] else 'FAILED'}"
                     + (f" ({detail})" if detail else ""))
    lines.append(f"reproduced: {str(reproduced).lower()}")
    return payload, lines, bounds, 0 if reproduced else 1


def _do_gmn(args):
    ctx = build_gmn(args.m, args.n)
    if args.emit:
        sys.stdout.write(serialize_presentation(ctx.presentation))
        return None
    p = ctx.presentation
    payload = {
        "letters": list(p.letters),
        "relation_count": len(p.relations),
        "delta": _wl(ctx.delta),
        "delta1": _wl(ctx.delta1),
        "delta2": _wl(ctx.delta2),
    }
    lines = [
        f"letters: {' '.join(p.letters)}",
        f"relations: {len(p.relations)}",
        f"delta: {format_word(p, ctx.delta)}",
    ]
    return payload, lines, {"cap": args.cap}, 0, p


def _do_group_equal(args, p):
    w1 = parse_signed_word(p, args.w1)
    w2 = parse_signed_word(p, args.w2)
    delta = parse_word(p, args.delta) if args.delta else tuple(p.letters)
    cert = verify_fundamental(delta, p, args.cap)
    if cert is None:
        raise NotFundamentalError(
            f"{format_word(p, delta)} is not fundamental; pass --delta"
        )
    res = group_equal(
        w1, w2, p, cert, args.cap,
        assume_injective=args.assume_injective,
        verify_cancellative_to=args.verify_to,
    )
    bounds = {"cap": args.cap, "delta": _wl(delta)}
    return {"equal": res}, [f"result: {str(res).lower()}"], bounds, 0


def _do_center_scan(args, p):
    found = center_scan(p, args.max_len, args.cap)
    words = _sorted_words(p, found)
    payload = {"central": [_wl(w) for w in words]}
    lines = [f"central elements up to length {args.max_len}: "
             + (" ".join(format_word(p, w) for w in words) or "(none)")]
    return payload, lines, {"cap": args.cap, "max_len": args.max_len}, 0


_HANDLERS = {
    "parse": _do_parse,
    "class": _do_class,
    "equal": _do_equal,
    "divides": _do_divides,
    "mcm": _do_mcm,
    "fundamental": _do_fundamental,
    "garside": _do_garside,
    "cancel-search": _do_cancel_search,
    "group-equal": _do_group_equal,
    "center-scan": _do_center_scan,
}


def _dispatch(args):
    if args.command == "gmn":
        return _do_gmn(args)
    if args.command == "claim":
        payload, lines, bounds, code = _do_claim(args)
        return payload, lines, bounds, code, None
    p = _load(args.source)
    payload, lines, bounds, code = _HANDLERS[args.command](args, p)
    return payload, lines, bounds, code, p


def _emit_report(args, argv, payload, lines, bounds, pres, elapsed_ms, truncated=False):
    if args.json:
        report = {
            "command": list(argv),
            "presentation_sha": presentation_digest(pres) if pres else None,
            "result": payload,
            "bounds": bounds,
            "truncated": truncated,
            "elapsed_ms": elapsed_ms,
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"command: monoidkit {' '.join(argv)}")
        if pres is not None:
            print(f"presentation: sha256:{presentation_digest(pres)[:16]}")
        for line in lines:
            print(line)
        if truncated:
            print("truncated: true")
        print(f"elapsed: {elapsed_ms} ms")


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gmn" and args.run:
            cmd, *rest = args.run
            if cmd in ("gmn", "claim"):
                return _fail(args, argv, 2, f"cannot nest {cmd!r} under gmn --run")
            flags = ["--json"] * args.json + ["--cap", str(args.cap)]
            args = parser.parse_args(flags + [cmd, f"gmn:{args.m},{args.n}"] + rest)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    t0 = time.perf_counter()
    try:
        out = _dispatch(args)
    except ParseError as e:
        return _fail(args, argv, 2, str(e))
    except CapExceededError as e:
        return _fail(args, argv, 3, str(e), truncated=True)
    except (NonHomogeneousError, InjectivityNotEstablishedError, NotFundamentalError) as e:
        return _fail(args, argv, 4, str(e))
    except ValueError as e:
        return _fail(args, argv, 2, str(e))
    if out is None:  # --emit wrote raw text
        return 0
    payload, lines, bounds, code, pres = out
    elapsed_ms = round((time.perf_counter() - t0) * 1000)
    _emit_report(args, argv, payload, lines, bounds, pres, elapsed_ms)
    return code


def _fail(args, argv, code: int, message: str, truncated: bool = False) -> int:
    if getattr(args, "json", False):
        print(json.dumps({
            "command": list(argv),
            "error": message,
            "truncated": truncated,
            "exit_code": code,
        }, indent=2, sort_keys=True))
    else:
        print(f"error: {message}", file=sys.stderr)
        if truncated:
            print("truncated: true", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
