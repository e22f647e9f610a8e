"""Command-line interface.

Every subcommand prints a report echoing the invocation, the presentation
digest, the bounds used and whether anything was truncated, so results are
reproducible from the output alone.  ``--json`` switches to a structured
report with words as token arrays, printed as one line of JSON with sorted
keys; pipe it through ``python -m json.tool`` to read it.  ``--json`` and
``--cap`` are declared once and go before or after the command; each
subcommand binds its handler, and every handler takes the parsed arguments
and the loaded source (None for ``claim`` and ``gmn``, which take none).

A presentation source is a file (pipes included), a bundled fixture name or
``gmn:M,N`` for g(M,N).  ``gmn --m M --n N --run CMD ARGS`` is the same as
``CMD gmn:M,N ARGS``, with the flags given before ``--run`` in front, so
flags given after CMD win.  ``--run`` takes the command first: a flag right
after it is a usage error, and so is ``--emit`` beside it.

The parser is built on the first run() and shared by every later one in the
process (the re-parse of ``gmn --run`` included); each parse starts from a
fresh namespace, so no flag carries over from one call to the next.  An argv
that opens with a command name is parsed once, by that command's subparser,
which is all the full parser would do with it.  Help, flags before the
command, an unknown command and arguments the subparser leaves over go to
the full parser, so namespaces, messages and exit codes are its own.

A bound below its least value is a usage error: ``--cap`` must be at least
1, ``--max-len`` and ``--verify-to`` at least 0.  ``claim`` only renders
``claims.check_claim``, the gate for ``--k``, and what it refuses is one too.

Exit codes: 0 completed (boolean answers live in the payload), 1 claim ran
but did not reproduce the expected outcome, 2 usage or parse error, 3 cap
exceeded (undecided, never reported as false), 4 precondition violated, 141
the reader closed standard output early (as ``| head`` does).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache
from itertools import chain

from .cancel import search_failures
from .claims import check_claim
from .divisibility import left_divides, mcm_r, right_divides
from .errors import (
    CapExceededError,
    InjectivityNotEstablishedError,
    NonHomogeneousError,
    NotFundamentalError,
    ParseError,
)
from .garside import verify_fundamental, verify_garside
from .gmn import build_gmn
from .groupwords import center_scan, group_equal, parse_signed_word
from .presentation import (
    Presentation,
    fixture,
    format_word,
    parse_presentation,
    parse_word,
    presentation_digest,
    serialize_presentation,
)
from .rewrite import DEFAULT_CAP, engine, equal

_MEMBER_LIMIT = 200  # class members echoed without --full
_LEAST = {"--cap": 1, "--max-len": 0, "--verify-to": 0}  # else exit 2


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared after that.

    Every run() in the process parses with this one object, so it must not
    be mutated: no set_defaults(), add_argument() or other change after it
    is built.  parse_args() leaves it as it is; all per-call state lives in
    the namespace run() passes in.
    """
    # --json and --cap are accepted before and after the command.  Their
    # defaults are SUPPRESS so a subcommand keeps a flag given before it.
    # Every parser shares these two action objects, so a set_defaults() on
    # any of them would reset the SUPPRESS; run() passes the real defaults
    # as the starting namespace instead.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="structured output")
    common.add_argument("--cap", type=int, default=argparse.SUPPRESS,
                        help=f"class enumeration cap (default {DEFAULT_CAP})")
    ap = argparse.ArgumentParser(
        prog="monoidkit",
        description="word problem, divisibility and cancellativity for "
        "positively presented monoids",
        parents=[common],
    )
    sub = ap.add_subparsers(dest="command", required=True, metavar="COMMAND")
    ap.commands = sub.choices  # name -> subparser, for _parse()

    def add(name: str, help: str, handler, *positionals: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help, parents=[common])
        sp.set_defaults(handler=handler)
        for pos in positionals:
            sp.add_argument(pos)
        return sp

    add("parse", "parse a presentation file and report its classification",
        _do_parse, "source")

    sp = add("class", "enumerate the equivalence class of a word", _do_class, "source", "word")
    sp.add_argument("--full", action="store_true", help="list members regardless of size")

    add("equal", "decide whether two words are equal in the monoid", _do_equal,
        "source", "w1", "w2")

    sp = add("divides", "divisibility with all quotients", _do_divides, "source", "u", "v")
    sp.add_argument("--side", choices=("left", "right"), required=True)

    sp = add("mcm", "minimal common right multiples up to a length bound", _do_mcm, "source")
    sp.add_argument("words", nargs="+")
    sp.add_argument("--max-len", type=int, required=True)

    add("fundamental", "verify a fundamental element and report its permutation",
        _do_fundamental, "source", "word")

    add("garside", "divisor sets of a word and the Garside test", _do_garside,
        "source", "word")

    sp = add("cancel-search", "exhaustive search for cancellation failures",
             _do_cancel_search, "source")
    sp.add_argument("--max-len", type=int, required=True)

    sp = add("claim", "reproduce a named bundled claim (exit 1 if it fails)", _do_claim)
    sp.add_argument("name", help="M6 | M6p | M6p_completed | no-lcm | center")
    sp.add_argument("--id", default="all", help="sub-family for the k-indexed fixtures")
    sp.add_argument("--k", type=int, default=None, help="for the fixtures (default 1)")
    sp.add_argument("--m", type=int, default=None, help="for no-lcm / center (default 2)")
    sp.add_argument("--n", type=int, default=None, help="for no-lcm / center (default 2)")
    sp.add_argument("--max-len", type=int, default=None, help="for no-lcm / center")

    sp = add("gmn", "build the g(m,n) presentation; emit it or run a subcommand on it",
             _do_gmn)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--emit", action="store_true", help="print the presentation file")
    sp.add_argument("--run", nargs=argparse.REMAINDER, default=None,
                    help="subcommand to run against the built presentation")

    sp = add("group-equal", "decide equality of two group words ('~' marks inverses)",
             _do_group_equal, "source", "w1", "w2")
    sp.add_argument("--assume-injective", action="store_true")
    sp.add_argument("--verify-to", type=int, default=None,
                    help="establish injectivity empirically up to this length")
    sp.add_argument("--delta", default=None,
                    help="fundamental element (default: product of all generators)")

    sp = add("center-scan", "canonical central elements up to a length bound",
             _do_center_scan, "source")
    sp.add_argument("--max-len", type=int, required=True)

    return ap


def _load(src: str) -> Presentation:
    if src.startswith("gmn:"):
        m, _, n = src[4:].partition(",")
        if not (m.isdigit() and n.isdigit()):
            raise ParseError(f"expected gmn:M,N, got {src}")
        return build_gmn(int(m), int(n)).presentation
    try:
        # any readable path, pipes like /dev/stdin included, read whole
        with open(src, "rb", buffering=0) as f:
            data = f.read()
    except OSError as e:
        try:
            return fixture(src)
        except ValueError:
            pass
        if isinstance(e, FileNotFoundError):
            raise ParseError(f"no such file or fixture: {src}") from None
        # a path that is there but cannot be read: a directory, no permission
        raise ParseError(f"cannot read {src}: {e.strerror or e}") from None
    return parse_presentation(data.decode("utf-8"))


# ---------------------------------------------------------------------------
# handlers: (args, presentation or None) -> (payload, text lines, bounds
# besides the cap, exit code, presentation of the report)


def _do_parse(args, p):
    payload = {
        "letters": p.letters,
        "relation_count": len(p.relations),
        "homogeneous": p.homogeneous,
        "letter_balanced": p.letter_balanced,
        "dummy_letters": sorted(p.dummy_letters),
        "relations": [[r.lhs, r.rhs] for r in p.relations],
    }
    lines = [
        f"letters: {' '.join(p.letters)}",
        f"relations: {len(p.relations)}",
        f"homogeneous: {p.homogeneous}",
        f"letter_balanced: {p.letter_balanced}",
        f"dummy_letters: {sorted(p.dummy_letters) or '{}'}",
    ]
    return payload, lines, {}, 0, p


def _do_class(args, p):
    # read off the encoded class: only the members listed are decoded, and
    # a cap error is reported without its partial class
    w = parse_word(p, args.word)
    eng = engine(p)
    cls = eng.closure(eng.encode(w), args.cap)
    canon = eng.decode(cls.least)
    payload = {"word": w, "size": len(cls), "canonical": canon, "truncated": False}
    lines = [f"size: {len(cls)}", f"canonical: {format_word(p, canon)}"]
    if args.full or len(cls) <= _MEMBER_LIMIT:
        # members share one length and chr order is declaration order, so
        # this is the order of p.sorted_words
        payload["members"] = members = list(map(eng.decode, sorted(cls)))
        lines += [f"  {format_word(p, m)}" for m in members]
    else:
        lines.append(f"  ({len(cls)} members; use --full to list)")
    return payload, lines, {}, 0, p


def _do_equal(args, p):
    u, v = parse_word(p, args.w1), parse_word(p, args.w2)
    res = equal(u, v, p, args.cap)
    return {"equal": res}, [f"result: {str(res).lower()}"], {}, 0, p


def _do_divides(args, p):
    u, v = parse_word(p, args.u), parse_word(p, args.v)
    fn = left_divides if args.side == "left" else right_divides
    res = fn(u, v, p, args.cap)
    quots = p.sorted_words(res.quotients)
    payload = {"side": args.side, "divides": res.divides, "quotients": quots}
    lines = [f"divides: {str(res.divides).lower()}"]
    if quots:
        lines.append("quotients: " + " ".join(format_word(p, q) for q in quots))
    return payload, lines, {}, 0, p


def _do_mcm(args, p):
    J = [parse_word(p, w) for w in args.words]
    rep = mcm_r(J, p, args.max_len, args.cap)
    cm = p.sorted_words(rep.common_multiples)
    mins = p.sorted_words(rep.minimal)
    payload = {
        "words": J,
        "bound": rep.bound,
        "common_multiples": cm,
        "minimal": mins,
        "lcm_up_to_bound": rep.lcm_up_to_bound,
    }
    lines = [
        f"common multiples up to length {rep.bound}: {len(cm)}",
        "minimal: " + (" ".join(format_word(p, w) for w in mins) or "(none)"),
        "lcm up to bound: "
        + ("(absent)" if rep.lcm_up_to_bound is None else format_word(p, rep.lcm_up_to_bound)),
    ]
    return payload, lines, {"max_len": args.max_len}, 0, p


def _do_fundamental(args, p):
    w = parse_word(p, args.word)
    try:
        cert = verify_fundamental(w, p, args.cap, strict=True)
    except NotFundamentalError as e:
        payload = {"fundamental": False, "reason": str(e), "atom": e.atom}
        return payload, [f"fundamental: false ({e})"], {}, 0, p
    payload = {
        "fundamental": True,
        "sigma": cert.sigma,
        "order": cert.order,
        "sigma_count": cert.sigma_count,
        "quotients": cert.quotients,
    }
    sig = " ".join(f"{s}->{cert.sigma[s]}" for s in sorted(cert.sigma, key=p.index.__getitem__))
    lines = [
        "fundamental: true",
        f"sigma: {sig}",
        f"order: {cert.order}",
        f"permutations found: {cert.sigma_count}",
    ]
    return payload, lines, {}, 0, p


def _do_garside(args, p):
    w = parse_word(p, args.word)
    rep = verify_garside(w, p, args.cap)
    payload = {
        "is_garside": rep.is_garside,
        "coincide": rep.coincide,
        "generate": rep.generate,
        "left_divisors": p.sorted_words(rep.left_divisors),
        "right_divisors": p.sorted_words(rep.right_divisors),
    }
    lines = [
        f"is_garside: {str(rep.is_garside).lower()}",
        f"divisor sets coincide: {rep.coincide}",
        f"divisors generate: {rep.generate}",
        f"left divisors: {len(rep.left_divisors)}, right divisors: {len(rep.right_divisors)}",
    ]
    return payload, lines, {}, 0, p


def _do_cancel_search(args, p):
    fails = search_failures(p, args.max_len, args.cap)
    payload = {
        "count": len(fails),
        "failures": [
            {"side": f.side, "context": f.context, "x": f.x, "y": f.y}
            for f in fails
        ],
    }
    # lazy: a --json report never formats the failures
    lines = chain([f"failures up to length {args.max_len}: {len(fails)}"], (
        f"  {f.side} context={format_word(p, f.context)} "
        f"x={format_word(p, f.x)} y={format_word(p, f.y)}"
        for f in fails
    ))
    return payload, lines, {"max_len": args.max_len}, 0, p


def _do_claim(args, p):
    rep = check_claim(args.name, k=args.k, family=args.id, m=args.m, n=args.n,
                      max_len=args.max_len, cap=args.cap)
    lines = []
    for c in rep.claims:
        detail = ", ".join(f"{key}={c[key]}" for key in ("holds", "cancelled_holds") if key in c)
        lines.append(f"claim {c['id']}: {'ok' if c['reproduced'] else 'FAILED'}"
                     + (f" ({detail})" if detail else ""))
    lines.append(f"reproduced: {str(rep.reproduced).lower()}")
    payload = {"claims": rep.claims, "reproduced": rep.reproduced}
    return payload, lines, rep.bounds, 0 if rep.reproduced else 1, None


def _do_gmn(args, p):
    ctx = build_gmn(args.m, args.n)
    p = ctx.presentation
    payload = {
        "letters": p.letters,
        "relation_count": len(p.relations),
        "delta": ctx.delta,
        "delta1": ctx.delta1,
        "delta2": ctx.delta2,
    }
    lines = [
        f"letters: {' '.join(p.letters)}",
        f"relations: {len(p.relations)}",
        f"delta: {format_word(p, ctx.delta)}",
    ]
    return payload, lines, {}, 0, p


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
    return {"equal": res}, [f"result: {str(res).lower()}"], {"delta": delta}, 0, p


def _do_center_scan(args, p):
    found = center_scan(p, args.max_len)
    words = p.sorted_words(found)
    payload = {"central": words}
    lines = [f"central elements up to length {args.max_len}: "
             + (" ".join(format_word(p, w) for w in words) or "(none)")]
    return payload, lines, {"max_len": args.max_len}, 0, p


def _emit_report(args, argv, payload, lines, bounds, pres, elapsed_ms):
    if args.json:
        report = {
            "command": list(argv),
            "presentation_sha": presentation_digest(pres) if pres else None,
            "result": payload,
            "bounds": {"cap": args.cap, **bounds},
            "truncated": False,
            "elapsed_ms": elapsed_ms,
        }
        _print_json(report)
    else:
        print(f"command: monoidkit {' '.join(argv)}")
        if pres is not None:
            print(f"presentation: sha256:{presentation_digest(pres)[:16]}")
        for line in lines:
            print(line)
        print(f"elapsed: {elapsed_ms} ms")


def _parse(argv: list[str], json: bool, cap: int) -> argparse.Namespace:
    """The namespace of ``argv`` over the given --json and --cap, parsed as
    the module docstring says: by one subparser when that is all it needs."""
    parser = build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(
            argv[1:], argparse.Namespace(json=json, cap=cap, command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv, argparse.Namespace(json=json, cap=cap))


def run(argv: list[str]) -> int:
    try:
        args = _parse(argv, False, DEFAULT_CAP)
        if args.command == "gmn" and args.run is not None:
            if args.emit:
                return _fail(args, argv, 2, "gmn takes --emit or --run, not both")
            if not args.run:
                return _fail(args, argv, 2, "gmn --run needs a command to run")
            cmd, *rest = args.run
            if cmd.startswith("-"):
                return _fail(args, argv, 2, f"gmn --run takes the command first, got "
                             f"{cmd!r}; put flags before --run or after the command")
            if cmd in ("gmn", "claim"):
                return _fail(args, argv, 2, f"cannot nest {cmd!r} under gmn --run")
            args = _parse([cmd, f"gmn:{args.m},{args.n}", *rest], args.json, args.cap)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    for flag, least in _LEAST.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None and value < least:
            return _fail(args, argv, 2, f"{flag} must be at least {least}, got {value}")
    t0 = time.perf_counter()
    try:
        if args.command == "gmn" and args.emit:
            sys.stdout.write(serialize_presentation(build_gmn(args.m, args.n).presentation))
            return 0
        payload, lines, bounds, code, pres = args.handler(
            args, _load(args.source) if "source" in args else None)
    except CapExceededError as e:
        return _fail(args, argv, 3, str(e), truncated=True)
    except (NonHomogeneousError, InjectivityNotEstablishedError, NotFundamentalError) as e:
        return _fail(args, argv, 4, str(e))
    except ValueError as e:
        return _fail(args, argv, 2, str(e))
    elapsed_ms = round((time.perf_counter() - t0) * 1000)
    _emit_report(args, argv, payload, lines, bounds, pres, elapsed_ms)
    return code


def _fail(args, argv, code: int, message: str, truncated: bool = False) -> int:
    if args.json:
        _print_json({
            "command": list(argv),
            "error": message,
            "truncated": truncated,
            "exit_code": code,
        })
    else:
        print(f"error: {message}", file=sys.stderr)
        if truncated:
            print("truncated: true", file=sys.stderr)
    return code


def _print_json(obj) -> None:
    # one line: with no indent, json.dumps keeps to its C encoder
    print(json.dumps(obj, sort_keys=True))


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader left early: exit as a process that SIGPIPE killed
        # (128 + 13), not with 1 and a traceback; stdout goes to devnull so
        # that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)
