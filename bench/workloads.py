"""Seeded workload generator.

Every operation is the argument list of one ``betahole`` command.  A
workload is an endless sequence of rounds; round ``r`` of a workload is
drawn from ``random.Random("<workload>:<seed>:<r>")`` alone, so the first
``n`` rounds are the same however far a run gets.  Each round has the same
make-up (one input per stratum), so runs with different seeds do the same
kinds of work in the same proportions.  The warm-up round comes from its own
generator, and no timed round reuses an alpha or a beta drawn for it.

Strata are chosen from properties of the input, never from measured times:
the leading digits of alpha (which fix the range of beta), the lengths of
its preperiod and period, the class of the base, and the length of the
window words that need the ``v*`` search.

Run ``python3 bench/workloads.py --workload queries --seed 1 --rounds 3`` to
print the operations of the first rounds and their digest.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import words as W

PLATEAUS_LEN = 9
# Every plateaus alpha begins with 11101, so beta lies in one narrow range,
# and has one of two fixed shapes, one per operation of a round: purely
# periodic with period 14, and preperiod 11101 with period 8.  The length
# of alpha sizes the automata behind every Perron root, so alphas of mixed
# lengths (or mixed leading digits) make rounds of unequal cost, and the
# mean and the median of a run then move with the seed.
PLATEAUS_LEAD = "11101"
PLATEAUS_SHAPES = ((0, 14), (5, 8))
STAIRCASE_POINTS = 60
STAIRCASE_LEADS = ("110", "1110", "1111")
SHORT_PERIODS = (3, 20)
LONG_PERIODS = (50, 100, 150, 200)
VSTAR_LENS = (10, 11, 12)
CHEAP_VSTAR_MAX = 9
LYNDON_POOL = list(W.lyndon_words(10, min_len=2))

WORKLOADS = ("plateaus", "staircase", "queries")


class Drawer:
    """Random inputs for one round, never repeating an excluded alpha."""

    def __init__(self, rng, exclude):
        self.rng = rng
        self.exclude = exclude

    def word(self, n):
        return "".join(self.rng.choice("01") for _ in range(n))

    def alpha(self, periods, lead=""):
        """A largest rotation of a random word (always admissible) or, for
        short periods, an admissible eventually periodic draw pre(per);
        either way beginning with ``lead``."""
        lo, hi = periods
        while True:
            if hi > 20 or self.rng.random() < 0.75:
                w = lead + self.word(self.rng.randint(max(lo, len(lead) + 1), hi) - len(lead))
                a = W.canon("", max(W.rotations(w)))
            else:
                n_pre = self.rng.randint(1, 4)
                per_len = self.rng.randint(max(1, lo - n_pre), max(1, hi - n_pre))
                a = W.canon(lead + self.word(n_pre), self.word(per_len))
                if not W.is_admissible(a):
                    continue
            if a != ("", "1") and W.prefix(a, len(lead)) == lead and a not in self.exclude:
                return a

    def shaped(self, lead, pre_len, per_len):
        """An admissible alpha beginning with ``lead`` whose canonical form
        has a preperiod of ``pre_len`` digits and a period of ``per_len``:
        a largest rotation when ``pre_len`` is 0, else ``pre(per)`` with
        ``pre`` beginning with ``lead``."""
        while True:
            if pre_len == 0:
                a = W.canon("", max(W.rotations(lead + self.word(per_len - len(lead)))))
            else:
                a = W.canon(lead + self.word(pre_len - len(lead)), self.word(per_len))
            if (len(a[0]), len(a[1])) == (pre_len, per_len) and W.is_admissible(a) \
                    and W.prefix(a, len(lead)) == lead and a not in self.exclude:
                return a

    def classified(self, periods, want, accept=lambda a, s: True):
        while True:
            a = self.alpha(periods)
            c = W.depth1_class(a)
            if c is not None and c[1] in want and accept(a, c[0]):
                return a, c[0], c[1]

    def endpoint(self, kind):
        """A left or star endpoint of a random first-level basic interval."""
        while True:
            s = self.rng.choice([f for f in W.FAREY if len(f) <= 8])
            left, star, _ = W.endpoints(s)
            a = left if kind == "left" else star
            if a not in self.exclude:
                return a, s

    def below_tau(self, alpha, s, position):
        tau = W.tau_seq(s, position)
        pool = [w for w in LYNDON_POOL
                if W.parry(w, alpha) and W.cmp(W.canon("", w), tau) < 0]
        return self.rng.choice(pool) if pool else None

    def beta(self):
        while True:
            q = self.rng.randint(10, 1000)
            b = Fraction(self.rng.randint(q + 1, 2 * q), q)
            if b not in self.exclude:
                return b


def vstar_lens(alpha, s):
    """Lengths of the window words whose window needs the v* search."""
    return [len(v) for _, v in W.window_words(alpha, s)
            if not (W.is_lyndon(v) and W.parry(v, alpha))]


def gap_threshold(alpha, s):
    """Smallest N with sigma^{|s|}(alpha) < s^- L(s)^N 0^inf, or None."""
    big = max(W.rotations(s))
    tail = W.shift(alpha, len(s))
    for n in range(W.n_tails(alpha) + len(s) + 9):
        if W.cmp(tail, W.canon(W.minus(s) + big * n, "0")) < 0:
            return n
    return None


def plateaus_round(d, warmup):
    length = 6 if warmup else PLATEAUS_LEN
    return [["plateaus", "--alpha", W.fmt(d.shaped(PLATEAUS_LEAD, pre_len, per_len)),
             "--max-len", str(length)]
            for pre_len, per_len in PLATEAUS_SHAPES]


def staircase_round(d, warmup):
    points = 10 if warmup else STAIRCASE_POINTS
    return [["staircase", "--alpha", W.fmt(d.alpha((4, 12), lead)), "--points", str(points)]
            for lead in STAIRCASE_LEADS]


def queries_round(d, r, warmup):
    """Fifteen requests over a pool of four alphas plus alpha = (1).

    The long period, the v* word length and the endpoint kind cycle with
    the round number, so every run has the same mix.  Six requests are
    cheap (a few ms), five bisect beta to 1e-30 on a short alpha (about
    10 ms) and four are heavy, so the median falls inside the middle group.
    """
    def cheap(a, s):
        return max(vstar_lens(a, s), default=0) <= CHEAP_VSTAR_MAX

    vstar_len = VSTAR_LENS[r % len(VSTAR_LENS)]

    def searching(a, s):
        return max(vstar_lens(a, s), default=0) == vstar_len

    while True:
        a_int, s_int, _ = d.classified(SHORT_PERIODS, ("interior",), cheap)
        w = d.below_tau(a_int, s_int, "interior")
        lower = d.below_tau(a_int, s_int, "interior")
        m = gap_threshold(a_int, s_int)
        if w and lower and m is not None:
            break
    a_vs, _, _ = d.classified(SHORT_PERIODS, ("interior",), searching)
    period = LONG_PERIODS[r % len(LONG_PERIODS)]
    a_long, _, _ = d.classified((period, period), ("two", "left", "star", "right", "interior", "deeper"))
    a_end, _ = d.endpoint(("left", "star")[r % 2])
    chain = [d.rng.choice([f for f in W.FAREY if len(f) <= 5]) for _ in range(d.rng.randint(1, 3))]
    fa, fi, fv, fe = W.fmt(a_int), W.fmt(a_long), W.fmt(a_vs), W.fmt(a_end)
    ops = [
        ["beta", "--alpha", fi],
        ["classify", "--alpha", fi],
        ["classify", "--alpha", fe],
        ["tau", "--alpha", fe],
        ["tau", "--alpha", fa],
        ["beta", "--alpha", fa],
        ["classify", "--alpha", fa],
        ["alpha", "--beta", str(d.beta()), "--digits", "64"],
        ["windows", "--alpha", fa],
        ["windows", "--alpha", fv],
        ["transitive", "--alpha", fa, "--word", w],
        ["entropy", "--alpha", fa, "--lower", W.fmt(W.canon("", lower))],
        ["gap", "--alpha", fa, "--m", str(m + d.rng.randint(0, 2))],
        ["bifdiff", "--chain", ",".join(chain), "--which", d.rng.choice("lsr")],
    ]
    # the base beta = 2, the one class with a single member; kept out of the
    # warm-up so that no timed answer is computed before timing starts
    return ops if warmup else ops + [["classify", "--alpha", "(1)"]]


def _round(workload, seed, tag, exclude, r):
    d = Drawer(random.Random("%s:%s:%s" % (workload, seed, tag)), exclude)
    if workload == "plateaus":
        return plateaus_round(d, tag == "warmup")
    if workload == "staircase":
        return staircase_round(d, tag == "warmup")
    return queries_round(d, r, tag == "warmup")


def inputs_of(ops):
    """The alphas and betas named by a list of operations."""
    out = set()
    for op in ops:
        for flag, value in zip(op, op[1:]):
            if flag == "--alpha":
                out.add(W.parse(value))
            elif flag == "--beta":
                out.add(Fraction(value))
    return out


class Workload:
    """The warm-up round and the timed rounds of one workload and seed."""

    def __init__(self, name, seed):
        if name not in WORKLOADS:
            raise ValueError("unknown workload %r" % (name,))
        self.name, self.seed = name, seed
        self.warmup = _round(name, seed, "warmup", set(), 0)
        self._exclude = inputs_of(self.warmup)

    def round(self, r):
        return _round(self.name, self.seed, r, self._exclude, r)

    def rounds(self):
        for r in itertools.count():
            yield self.round(r)


def digest(ops):
    return hashlib.sha256(json.dumps(ops, separators=(",", ":")).encode()).hexdigest()


def properties(ops):
    """Input properties of a list of operations: periods, class mix, sizes
    and how many requests share an alpha."""
    pairs = [(flag, value) for op in ops for flag, value in zip(op, op[1:])]
    alphas = Counter(value for flag, value in pairs if flag == "--alpha")
    sizes = {flag[2:]: int(value) for flag, value in pairs if flag in ("--max-len", "--points")}
    classes = Counter((W.depth1_class(W.parse(a)) or ("", "unresolved"))[1] for a in alphas)
    periods = [len(W.parse(a)[1]) for a in alphas]
    shares = sorted(alphas.values())
    return {
        "operations": len(ops),
        "distinct_alphas": len(alphas),
        "period_range": [min(periods), max(periods)] if periods else None,
        "class_mix": dict(sorted(classes.items())),
        "sizes": sizes,
        "requests_per_alpha": {"max": shares[-1], "median": shares[len(shares) // 2]} if shares else None,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args()
    wl = Workload(args.workload, args.seed)
    ops = [op for _, rnd in zip(range(args.rounds), wl.rounds()) for op in rnd]
    for op in ops:
        print(" ".join(op))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": args.rounds,
                      "warmup_digest": digest(wl.warmup), "digest": digest(ops),
                      "properties": properties(ops)}, sort_keys=True))


if __name__ == "__main__":
    main()
