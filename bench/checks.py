"""Output checks for the benchmark.

``check(op, text)`` returns a list of failure messages for the printed
output of one operation.  The checks hold for any seed: they recompute
what they can at string level with ``words`` (which shares no code with
``betahole``) and test invariants of the rest.  ``ANCHORS`` are
operations with closed-form answers.  ``golden_mismatch`` compares an
output with the recorded one for the default seed: discrete fields must
match exactly and each enclosure must intersect the recorded one, so a
tighter enclosure passes.
"""

from __future__ import annotations

import json
from fractions import Fraction

import words as W

LOG2_HI = Fraction("0.6931471805599454")
# log((1 + sqrt 5) / 2) = 0.48121182505960344749775891342436842...
LOG_PHI = (Fraction("0.4812118250596034474"), Fraction("0.4812118250596034475"))

ANCHORS = (
    ["entropy", "--alpha", "(1)", "--lower", "(01)"],
    ["beta", "--alpha", "(1)"],
    ["beta", "--alpha", "(10)"],
)


def _arg(op, flag):
    return op[op.index(flag) + 1]


def _iv(d):
    return Fraction(d["lo"]), Fraction(d["hi"])


def widths(op, text):
    """Widths hi - lo of the h and dim enclosures an operation printed."""
    if op[0] == "staircase":
        rows = [line.split(",") for line in text.splitlines()[1:]]
        return [Fraction(r[3]) - Fraction(r[2]) for r in rows]
    if op[0] == "plateaus":
        ivs = [_iv(row["entropy"]) for row in json.loads(text)["plateaus"]]
    elif op[0] == "entropy":
        d = json.loads(text)
        ivs = [_iv(d["h"]), _iv(d["dim"])]
    else:
        return []
    return [hi - lo for lo, hi in ivs]


def check(op, text):
    """Failure messages for one operation's output (empty when it passes)."""
    try:
        if op[0] == "staircase":
            return _staircase(op, text)
        d = json.loads(text)
        if d.get("schema") != "betahole/1":
            return ["schema key missing"]
        return CHECKS[op[0]](op, d)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return ["unreadable output: %r" % (exc,)]


def _expect(ok, what):
    return [] if ok else [what]


def _plateaus(op, d):
    alpha = W.parse(_arg(op, "--alpha"))
    rows = d["plateaus"]
    fails = _expect(rows and rows[-1]["kind"] == "terminal", "last plateau is not terminal")
    fails += _expect(_iv(rows[-1]["entropy"]) == (0, 0), "terminal entropy is not 0")
    ebli = rows[:-1]
    for row in ebli:
        w = row["w"]
        if not (W.is_lyndon(w) and W.parry(w, alpha)):
            fails.append("%s is not beta-Lyndon" % w)
        if W.parse(row["right"]) != W.canon("", w):
            fails.append("right end of %s is not w^inf" % w)
        if W.cmp(W.parse(row["left"]), W.parse(row["right"])) >= 0:
            fails.append("empty interval for %s" % w)
        lo, hi = _iv(row["entropy"])
        if not 0 <= lo <= hi <= LOG2_HI:
            fails.append("entropy of %s outside [0, log 2]" % w)
    for a, b in zip(ebli, ebli[1:]):
        if W.cmp(W.parse(a["right"]), W.parse(b["left"])) >= 0:
            fails.append("plateaus %s, %s not sorted and disjoint" % (a["w"], b["w"]))
        if _iv(b["entropy"])[0] > _iv(a["entropy"])[1]:
            fails.append("entropy increases from %s to %s" % (a["w"], b["w"]))
    return fails


def _staircase(op, text):
    alpha = W.parse(_arg(op, "--alpha"))
    lines = text.splitlines()
    fails = _expect(lines[0] == "t_lo,t_hi,dim_lo,dim_hi,seq", "bad CSV header")
    rows = [line.split(",") for line in lines[1:]]
    fails += _expect(len(rows) == int(_arg(op, "--points")), "wrong number of points")
    c = W.depth1_class(alpha)
    tau = W.tau_seq(*c) if c and c[1] != "deeper" else None
    prev = None
    for row in rows:
        t_lo, t_hi, d_lo, d_hi = map(Fraction, row[:4])
        seq = W.parse(row[4])
        w = seq[1]
        if seq[0] or not (W.is_lyndon(w) and W.parry(w, alpha)):
            fails.append("%s is not w^inf for a beta-Lyndon w" % row[4])
        if tau is not None and W.cmp(seq, tau) >= 0:
            fails.append("%s is not below tau" % row[4])
        if not 0 <= t_lo <= t_hi <= 1 or not 0 <= d_lo <= d_hi <= 1:
            fails.append("value outside [0, 1] at %s" % row[4])
        if prev is not None:
            if W.cmp(prev[0], seq) >= 0 or t_lo <= prev[1]:
                fails.append("t does not increase at %s" % row[4])
            if d_lo > prev[2]:
                fails.append("dimension increases at %s" % row[4])
        prev = (seq, t_hi, d_hi)
    return fails


def _brackets_one(alpha, enclosure):
    """pi_beta(alpha) = 1 lies between the printed beta endpoints."""
    lo, hi = _iv(enclosure)
    return 1 < lo <= hi <= 2 and W.pi_at(alpha, lo) >= 1 >= W.pi_at(alpha, hi)


def _beta(op, d):
    alpha = W.parse(_arg(op, "--alpha"))
    fails = _expect(W.parse(d["alpha"]) == alpha, "alpha echoed wrongly")
    fails += _expect(_brackets_one(alpha, d["beta"]), "beta enclosure misses pi_beta(alpha) = 1")
    if alpha == ("", "1"):
        fails += _expect(_iv(d["beta"]) == (2, 2), "beta of (1) is not 2")
    if alpha == ("", "10"):
        lo, hi = _iv(d["beta"])
        fails += _expect(lo * lo - lo - 1 <= 0 <= hi * hi - hi - 1, "beta of (10) misses phi")
    return fails


def _classify(op, d):
    alpha = W.parse(_arg(op, "--alpha"))
    fails = _expect(_brackets_one(alpha, d["beta"]), "beta enclosure misses pi_beta(alpha) = 1")
    c = W.depth1_class(alpha)
    if c is None:
        return fails
    s, position = c
    if position == "deeper":
        return fails + _expect(len(d["chain"]) >= 2 and d["chain"][0] == s, "wrong chain")
    fails += _expect(d["position"] == position, "position %s, expected %s" % (d["position"], position))
    fails += _expect(d["chain"] == ([s] if s else []), "wrong chain")
    fails += _expect(d["tau"]["seq"] == W.fmt(W.tau_seq(s, position)), "wrong tau sequence")
    return fails


def _tau(op, d):
    alpha = W.parse(_arg(op, "--alpha"))
    lo, hi = _iv(d)
    fails = _expect(0 <= lo <= hi <= 1, "tau outside [0, 1]")
    c = W.depth1_class(alpha)
    if c is not None and c[1] != "deeper":
        fails += _expect(d["seq"] == W.fmt(W.tau_seq(*c)), "wrong tau sequence")
    return fails


def _alpha(op, d):
    beta = Fraction(_arg(op, "--beta"))
    n = int(_arg(op, "--digits"))
    return _expect(d["digits"] == W.quasi_greedy_digits(beta, n), "wrong digits of alpha(beta)")


def _windows_of(alpha):
    """(j, v, v*, lower, closed) for each window, recomputed by definition."""
    s, _ = W.depth1_class(alpha)
    A = W.scan_sequence(alpha)
    out = []
    for j, v in W.window_words(alpha, s):
        star = v if W.is_lyndon(v) and W.parry(v, alpha) else _v_star(v, alpha)
        lower = W.canon(W.minus(v), W.minus(W.prefix(A, j)))
        closed = star == v and W.shift(A, j) == W.canon("", v)
        out.append((j, v, star, lower, closed))
    return out


def _v_star(v, alpha):
    """Smallest beta-Lyndon w of length <= |v| with w^inf >= v^inf."""
    target = W.canon("", v)
    best = None
    for w in W.lyndon_words(len(v)):
        x = W.canon("", w)
        if W.cmp(x, target) >= 0 and W.parry(w, alpha) and (best is None or W.cmp(x, best) < 0):
            best = x
    return best[1]


def _windows(op, d):
    alpha = W.parse(_arg(op, "--alpha"))
    expected = _windows_of(alpha)
    rows = d["windows"]
    fails = _expect([r["vk"] for r in rows] == [e[1] for e in expected], "wrong window words")
    for r, (j, v, star, lower, closed) in zip(rows, expected):
        if r["vstar"] != star:
            fails.append("v* = %s for v = %s, expected %s" % (r["vstar"], v, star))
        if (r["jk"], r["nk"], W.parse(r["lower"]), W.parse(r["upper"]), r["closed"]) != (
                j, len(v), lower, W.canon("", star), closed):
            fails.append("wrong window record for v = %s" % v)
    return fails


def _transitive(op, d):
    alpha = W.parse(_arg(op, "--alpha"))
    x = W.canon("", _arg(op, "--word"))
    position = (W.depth1_class(alpha) or ("", "unresolved"))[1]
    if position in ("two", "left", "star"):
        return _expect(d["verdict"] == "transitive", "first-level %s base must be transitive" % position)
    if position != "interior":
        return []
    inside = any(
        W.cmp(lower, x) <= 0 and (W.cmp(x, W.canon("", star)) < 0 or closed and x == W.canon("", star))
        for _, _, star, lower, closed in _windows_of(alpha))
    expected = "not_transitive" if inside else "transitive"
    fails = _expect(d["verdict"] == expected, "verdict %s, expected %s" % (d["verdict"], expected))
    fails += _expect((d["core"] is None) == inside, "full-entropy core present inside a window")
    return fails


def _entropy(op, d):
    fails = _expect(d["states"] >= 1, "no automaton states")
    h_lo, h_hi = _iv(d["h"])
    d_lo, d_hi = _iv(d["dim"])
    fails += _expect(0 <= h_lo <= h_hi <= LOG2_HI, "entropy outside [0, log 2]")
    fails += _expect(0 <= d_lo <= d_hi <= 1, "dimension outside [0, 1]")
    if _arg(op, "--alpha") == "(1)" and _arg(op, "--lower") == "(01)":
        fails += _expect(h_lo <= LOG_PHI[0] and LOG_PHI[1] <= h_hi, "entropy misses log phi")
    return fails


def _gap(op, d):
    alpha = W.parse(_arg(op, "--alpha"))
    m = int(_arg(op, "--m"))
    s, _ = W.depth1_class(alpha)
    big = max(W.rotations(s))
    u = s[next(i for i in range(len(s)) if s[i:] + s[:i] == big):]
    expected = W.canon(W.minus(s) + big * m + W.minus(u), big)
    return _expect(W.parse(d["seq"]) == expected, "gap point %s, expected %s" % (d["seq"], W.fmt(expected)))


def _bifdiff(op, d):
    chain = _arg(op, "--chain").split(",")
    n = len(chain) - 1 if _arg(op, "--which") == "l" else len(chain)
    fails = _expect(len(d["points"]) == n, "wrong number of exceptional points")
    if n:
        fails += _expect(W.parse(d["points"][0]) == W.canon("", chain[0]), "first point is not r_1^inf")
    return fails


CHECKS = {
    "plateaus": _plateaus,
    "beta": _beta,
    "classify": _classify,
    "tau": _tau,
    "alpha": _alpha,
    "windows": _windows,
    "transitive": _transitive,
    "entropy": _entropy,
    "gap": _gap,
    "bifdiff": _bifdiff,
}


def _is_enclosure(x):
    return isinstance(x, dict) and set(x) == {"lo", "hi"}


def _same(new, ref, path):
    if _is_enclosure(ref) and _is_enclosure(new):
        (a, b), (c, e) = _iv(new), _iv(ref)
        return [] if a <= e and c <= b else ["%s: enclosure disjoint from the reference" % path]
    if isinstance(ref, dict) and isinstance(new, dict):
        if set(new) != set(ref):
            return ["%s: keys differ" % path]
        return [m for k in ref for m in _same(new[k], ref[k], path + "." + k)]
    if isinstance(ref, list) and isinstance(new, list):
        if len(new) != len(ref):
            return ["%s: length differs" % path]
        return [m for i, (x, y) in enumerate(zip(new, ref)) for m in _same(x, y, "%s[%d]" % (path, i))]
    return [] if new == ref else ["%s: %r != %r" % (path, new, ref)]


def _csv_tree(text):
    rows = [line.split(",") for line in text.splitlines()]
    return [rows[0]] + [[{"lo": r[0], "hi": r[1]}, {"lo": r[2], "hi": r[3]}, r[4]] for r in rows[1:]]


def golden_mismatch(op, text, ref):
    """Differences between an output and the recorded reference output."""
    try:
        if op[0] == "staircase":
            return _same(_csv_tree(text), _csv_tree(ref), "csv")
        return _same(json.loads(text), json.loads(ref), "$")
    except (ValueError, IndexError) as exc:
        return ["unreadable output: %r" % (exc,)]
