"""Command-line interface.

All payloads are JSON on stdout (schema key "betahole/1"), diagnostics
on stderr.  Numeric values are printed as outward-rounded decimal
enclosures, never point estimates, so output is deterministic byte for
byte.  Exit codes: 0 success, 2 usage error, 3 precondition violation,
4 a chain deeper than ``classify --max-depth``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import base_solver, classifier, lyndon_intervals, survivor_shift, windows
from .errors import BetaholeError
from .seq_core import EPSeq, RatInterval, format_interval, log_interval, periodic
from .word_combinatorics import lyndon_words

SCHEMA = "betahole/1"


def _enclosure(iv: RatInterval, places: int = 15):
    lo, hi = format_interval(iv, places)
    return {"lo": lo, "hi": hi}


def _emit(payload) -> None:
    payload = dict(payload)
    payload["schema"] = SCHEMA
    json.dump(payload, sys.stdout, sort_keys=True, separators=(",", ":"))
    sys.stdout.write("\n")


def _alpha_arg(text: str) -> EPSeq:
    return EPSeq.parse(text)


def cmd_alpha(args) -> int:
    beta = Fraction(args.beta)
    digits = base_solver.alpha_from_beta(beta, args.digits)
    payload = {"beta": args.beta, "digits": digits}
    detected = base_solver.detect_eventually_periodic(digits)
    if detected is not None:
        payload["alpha_guess"] = str(detected)
    _emit(payload)
    return 0


def cmd_beta(args) -> int:
    spec = base_solver.beta_from_alpha(_alpha_arg(args.alpha), args.tol)
    _emit({"alpha": str(spec.alpha), "beta": _enclosure(spec.enclosure, 31)})
    return 0


def cmd_classify(args) -> int:
    alpha = _alpha_arg(args.alpha)
    record = classifier.classify(alpha, max_depth=args.max_depth)
    if record.position is classifier.Position.DEPTH_LIMITED:
        _emit({"alpha": str(alpha), "position": record.position.value, "chain": list(record.chain)})
        return 4
    spec = base_solver.beta_from_alpha(alpha, args.tol)
    t = classifier.tau(record, spec)
    _emit(
        {
            "alpha": str(alpha),
            "chain": list(record.chain),
            "position": record.position.value,
            "beta": _enclosure(spec.enclosure, 31),
            "tau": dict(seq=str(t.greedy), **_enclosure(t.value)),
        }
    )
    return 0


def cmd_tau(args) -> int:
    alpha = _alpha_arg(args.alpha)
    record = classifier.classify(alpha)
    t = classifier.tau(record, base_solver.beta_from_alpha(alpha, args.tol))
    _emit({"alpha": str(alpha), "seq": str(t.greedy), **_enclosure(t.value)})
    return 0


def cmd_plateaus(args) -> int:
    alpha = _alpha_arg(args.alpha)
    report = lyndon_intervals.plateaus(alpha, max_word_len=args.max_len)
    rows = []
    for p in report.plateaus:
        if p.kind == "terminal":
            rows.append({"kind": "terminal", "entropy": _enclosure(p.entropy)})
            continue
        e = p.ebli
        rows.append(
            {
                "kind": "ebli",
                "w": e.w,
                "left": str(e.left_seq),
                "right": str(e.right_seq),
                "m": e.m,
                "entropy": _enclosure(p.entropy),
                "maximal": True,  # plateaus lists only the maximal EBLIs
            }
        )
    _emit(
        {
            "alpha": str(alpha),
            "max_len": report.max_word_len,
            "complete": report.complete,
            "plateaus": rows,
            "unresolved": [[str(a), str(b)] for a, b in report.unresolved],
        }
    )
    return 0


def cmd_windows(args) -> int:
    alpha = _alpha_arg(args.alpha)
    ws = windows.build_windows(alpha)
    maximal = windows.maximal_windows(ws)
    maximal_ks = {rec.k for rec in maximal}
    rows = [
        {
            "k": rec.k,
            "jk": rec.jk,
            "nk": rec.nk,
            "vk": rec.v,
            "vstar": rec.v_star,
            "lower": str(rec.lower_seq),
            "upper": str(rec.upper_seq),
            "closed": rec.closed,
            "maximal": rec.k in maximal_ks,
        }
        for rec in ws.records
    ]
    _emit({"alpha": str(alpha), "windows": rows, "tail_nested_at": ws.tail_nested_at})
    return 0


def cmd_transitive(args) -> int:
    alpha = _alpha_arg(args.alpha)
    verdict = windows.is_transitive(args.word, alpha)
    core = verdict.core  # None inside a window: no full-entropy core exists
    if core is not None:
        core = {"R": core.R, "what": core.w_hat, "alphahat": str(core.alpha_hat)}
    _emit({"alpha": str(alpha), "word": args.word, "verdict": verdict.verdict.value,
           "reason": verdict.reason, "core": core})
    return 0


def cmd_entropy(args) -> int:
    alpha = _alpha_arg(args.alpha)
    lower = _alpha_arg(args.lower)
    spec = base_solver.beta_from_alpha(alpha, args.tol)
    aut = survivor_shift.build_automaton(lower, alpha)
    res = survivor_shift.entropy(aut)
    dim = survivor_shift.dimension(res, spec.enclosure)
    report = survivor_shift.is_transitive_sofic(aut)
    _emit(
        {
            "alpha": str(alpha),
            "lower": str(lower),
            "states": aut.n_states,
            "h": _enclosure(res.h),
            "dim": _enclosure(dim),
            "transitive": report.transitive,
            "transitive_word_level": report.word_level,
        }
    )
    return 0


def cmd_staircase(args) -> int:
    alpha = _alpha_arg(args.alpha)
    spec = base_solver.beta_from_alpha(alpha, args.tol)
    record = classifier.classify(alpha)
    tau_greedy = classifier.tau_greedy_seq(record)

    # words of each length are scanned once, shortest first, until
    # enough points lie below tau
    samples = []
    for n in range(2, 21):
        if len(samples) >= args.points:
            break
        # (0^(n-1) 1)^inf is the least w^inf over the Lyndon words of length n
        if tau_greedy <= periodic("0" * (n - 1) + "1"):
            continue
        for w in lyndon_words(n, min_len=n):
            if not lyndon_intervals.is_beta_lyndon(w, alpha):
                continue
            t_r = periodic(w)
            if t_r < tau_greedy:
                samples.append(t_r)
    samples.sort()
    samples = samples[: args.points]
    log_beta = log_interval(spec.enclosure)
    lines = ["t_lo,t_hi,dim_lo,dim_hi,seq"]
    for t_r in samples:
        value = base_solver.t_point_value(t_r, spec)
        res = lyndon_intervals.plateau_entropy(t_r.per, alpha)
        t_lo, t_hi = format_interval(value)
        d_lo, d_hi = format_interval(res.h.divide(log_beta))
        lines.append("%s,%s,%s,%s,%s" % (t_lo, t_hi, d_lo, d_hi, t_r))
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print("error: cannot write --out %s: %s" % (args.out, exc.strerror or exc), file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def cmd_bifdiff(args) -> int:
    chain = args.chain.split(",")
    points = lyndon_intervals.exceptional_points(chain, args.which)
    _emit({"chain": chain, "which": args.which, "points": [str(p) for p in points]})
    return 0


def cmd_gap(args) -> int:
    alpha = _alpha_arg(args.alpha)
    point = lyndon_intervals.gap_point(classifier.classify(alpha), args.m)
    _emit({"alpha": str(alpha), "M": args.m, "seq": str(point)})
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors print one line and exit 2."""

    def error(self, message):
        self.exit(2, "%s: error: %s\n" % (self.prog, message))


def _rational(text: str) -> str:
    """argparse type: a rational number, kept as typed for the payload."""
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("not a rational number: %r" % (text,)) from None
    return text


def _count(text: str) -> int:
    """argparse type: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % (text,)) from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0: %r" % (text,))
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="betahole")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alpha", help="digits of alpha(beta) for rational beta")
    p.add_argument("--beta", required=True, type=_rational)
    p.add_argument("--digits", type=_count, default=64)
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("beta", help="enclosure of beta from alpha")
    p.add_argument("--alpha", required=True)
    p.set_defaults(func=cmd_beta)

    p = sub.add_parser("classify", help="renormalization classification")
    p.add_argument("--alpha", required=True)
    p.add_argument("--max-depth", type=_count, default=64)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("tau", help="critical point tau(beta)")
    p.add_argument("--alpha", required=True)
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("plateaus", help="entropy plateaus up to a word-length cutoff")
    p.add_argument("--alpha", required=True)
    p.add_argument("--max-len", type=_count, default=12)
    p.set_defaults(func=cmd_plateaus)

    p = sub.add_parser("windows", help="non-transitivity windows")
    p.add_argument("--alpha", required=True)
    p.set_defaults(func=cmd_windows)

    p = sub.add_parser("transitive", help="transitivity verdict for a beta-Lyndon word")
    p.add_argument("--alpha", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_transitive)

    p = sub.add_parser("entropy", help="entropy / dimension of Sigma_{lower, alpha}")
    p.add_argument("--alpha", required=True)
    p.add_argument("--lower", required=True)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("staircase", help="devil's staircase samples as CSV")
    p.add_argument("--alpha", required=True)
    p.add_argument("--points", type=_count, default=200)
    p.add_argument("--out")
    p.set_defaults(func=cmd_staircase)

    p = sub.add_parser("bifdiff", help="exceptional points of E_beta minus B_beta")
    p.add_argument("--chain", required=True, help="comma-separated Farey factors")
    p.add_argument("--which", required=True, choices=["l", "s", "r"])
    p.set_defaults(func=cmd_bifdiff)

    p = sub.add_parser("gap", help="left endpoint of a beta-Lyndon gap")
    p.add_argument("--alpha", required=True)
    p.add_argument("--m", type=_count, required=True, help="repetition count M")
    p.set_defaults(func=cmd_gap)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of every run in this process, built on the first run
    rather than at import."""
    return build_parser()


def _precision_tol():
    """The enclosure tolerance for beta: 2^-BETAHOLE_PRECISION when that
    is set, else the library default.  None when it is set but not a
    positive integer."""
    bits = os.environ.get("BETAHOLE_PRECISION")
    if not bits:
        return base_solver.DEFAULT_TOL
    try:
        value = int(bits)
    except ValueError:
        value = 0
    if value < 1:
        print("error: BETAHOLE_PRECISION must be a positive integer (bits): %r" % (bits,), file=sys.stderr)
        return None
    return Fraction(1, 2**value)


def run(argv=None) -> int:
    parser = _parser()
    tol = _precision_tol()
    if tol is None:
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    args.tol = tol
    try:
        return args.func(args)
    except BetaholeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
