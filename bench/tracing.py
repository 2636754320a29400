"""Outside-in tracing of betahole's layers.

``Tracer.install`` replaces each function in ``TRACED`` by a wrapper, in
every ``betahole`` module namespace that holds it, so a call is seen
whichever module makes it (``lyndon_intervals.seq_le`` reaches
``seq_core.lex_cmp`` through seq_core's own namespace, ``classifier``
calls its imported ``lex_cmp`` directly; both are recorded).  Each call
records a span in memory: function, start, end, parent span and the id
of the operation it serves.  Nothing is written until ``metrics`` folds
the spans into per-layer numbers at the end of the run.

A span's self time is its duration minus the durations of its child
spans.  Busy time counts a span only when no enclosing span belongs to
the same function (or, for a layer, to the same module), so recursion
and calls within one layer are not counted twice.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from array import array

LAYERS = (
    "seq_core",
    "word_combinatorics",
    "substitution",
    "base_solver",
    "classifier",
    "lyndon_intervals",
    "windows",
    "survivor_shift",
    "cli",
)

TRACED = {
    "seq_core": ("lex_cmp", "pi_beta", "pi_beta_at", "log_interval", "format_interval"),
    "word_combinatorics": ("lyndon_words", "is_lyndon", "cyclic_max", "is_farey"),
    "substitution": ("compose_chain", "bullet", "phi", "phi_inverse", "phi_inverse_word"),
    "base_solver": ("beta_from_alpha", "alpha_from_beta", "check_admissible_alpha",
                    "t_point_value", "detect_eventually_periodic"),
    "classifier": ("classify", "tau", "tau_greedy_seq"),
    "lyndon_intervals": ("is_beta_lyndon", "v_star", "ebli", "plateaus",
                         "exceptional_points", "gap_point"),
    "windows": ("build_windows", "maximal_windows", "is_transitive", "transitive_core"),
    "survivor_shift": ("build_automaton", "minimize", "perron_root", "spectral_radius",
                       "entropy", "dimension", "is_transitive_sofic"),
    "cli": ("run",),
}

GENERATORS = {"word_combinatorics.lyndon_words"}

# (metric, unit): the per-function metrics reported besides the per-layer ones
FUNCTION_METRICS = (
    ("seq_core.lex_cmp.calls", "count"),
    ("seq_core.log_interval.calls", "count"),
    ("seq_core.log_interval.busy_s", "s"),
    ("seq_core.pi_beta.busy_s", "s"),
    ("word_combinatorics.lyndon_words.yielded", "count"),
    ("base_solver.beta_from_alpha.calls", "count"),
    ("base_solver.beta_from_alpha.busy_s", "s"),
    ("classifier.classify.calls", "count"),
    ("classifier.classify.busy_s", "s"),
    ("lyndon_intervals.is_beta_lyndon.calls", "count"),
    ("lyndon_intervals.is_beta_lyndon.busy_s", "s"),
    ("lyndon_intervals.is_beta_lyndon.accept_ratio", "ratio"),
    ("lyndon_intervals.ebli.calls", "count"),
    ("lyndon_intervals.plateaus.self_s", "s"),
    ("lyndon_intervals.plateaus.kept_ratio", "ratio"),
    ("lyndon_intervals.v_star.calls", "count"),
    ("lyndon_intervals.v_star.busy_s", "s"),
    ("windows.build_windows.calls", "count"),
    ("windows.build_windows.busy_s", "s"),
    ("windows.maximal_windows.calls", "count"),
    ("windows.maximal_windows.busy_s", "s"),
    ("windows.is_transitive.calls", "count"),
    ("windows.is_transitive.busy_s", "s"),
    ("windows.transitive_core.calls", "count"),
    ("windows.transitive_core.busy_s", "s"),
    ("survivor_shift.build_automaton.calls", "count"),
    ("survivor_shift.build_automaton.busy_s", "s"),
    ("survivor_shift.build_automaton.states_max", "count"),
    ("survivor_shift.build_automaton.states_median", "count"),
    ("survivor_shift.perron_root.calls", "count"),
    ("survivor_shift.perron_root.busy_s", "s"),
    ("survivor_shift.perron_root.dim_max", "count"),
    ("survivor_shift.perron_root.missed_tol", "count"),
    ("survivor_shift.dimension.calls", "count"),
    ("survivor_shift.dimension.busy_s", "s"),
    ("survivor_shift.minimize.calls", "count"),
    ("survivor_shift.minimize.busy_s", "s"),
    ("survivor_shift.is_transitive_sofic.calls", "count"),
    ("survivor_shift.is_transitive_sofic.busy_s", "s"),
    ("cli.run.self_s", "s"),
)

LAYER_METRICS = tuple(
    ("%s.%s" % (layer, what), unit)
    for layer in LAYERS
    for what, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))
)

# measured by run.py from the traced pass and the untraced pass of the same rounds
RUN_METRICS = (("trace.overhead_ratio", "ratio"), ("enclosure_width_max", "1"))

PER_LAYER = LAYER_METRICS + FUNCTION_METRICS + RUN_METRICS


class Tracer:
    """Span recorder.  Spans live in flat arrays until ``metrics``."""

    def __init__(self):
        # function id -> "module.function"
        self.names = ["%s.%s" % (layer, fn) for layer, fns in TRACED.items() for fn in fns]
        self.kind = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = -1
        self.observed = {}  # "module.function.what" -> list of values

    def install(self):
        """Rebind every traced function in every betahole namespace."""
        modules = [m for n, m in sys.modules.items() if n == "betahole" or n.startswith("betahole.")]
        for nid, name in enumerate(self.names):
            layer, fn_name = name.split(".")
            original = getattr(importlib.import_module("betahole." + layer), fn_name)
            if name in GENERATORS:
                wrapper = self._wrap_generator(nid, original)
            else:
                wrapper = self._wrap(nid, original, _OBSERVERS.get(name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def _begin(self, nid):
        idx = len(self.kind)
        self.kind.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _finish(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, nid, fn, observe):
        begin, finish, observed = self._begin, self._finish, self.observed

        def wrapper(*args, **kwargs):
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            if observe is not None:
                observe(observed, args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, nid, fn):
        """Each resumption of the generator is one span."""
        begin, finish = self._begin, self._finish
        counts = self.observed.setdefault(self.names[nid] + ".yielded", [0])

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = begin(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    finish(idx)
                counts[0] += 1
                yield item

        return wrapper

    def metrics(self):
        """Fold the spans into {metric name: value}.

        Spans are stored in the order they began, so a parent precedes its
        children and the open path of ancestors is a stack; a span's self
        time is final when it leaves that stack.
        """
        names = self.names
        n_fn = len(names)
        layer_of = [LAYERS.index(name.split(".")[0]) for name in names]
        fn_bit = [1 << i for i in range(n_fn)]
        layer_bit = [1 << (n_fn + layer_of[i]) for i in range(n_fn)]
        plateaus_bit = fn_bit[names.index("lyndon_intervals.plateaus")]
        ebli_id = names.index("lyndon_intervals.ebli")

        calls = [0] * n_fn
        busy = [0] * n_fn
        self_ns = [0] * n_fn
        layer_busy = [0] * len(LAYERS)
        ebli_in_plateaus = 0
        path = []  # open ancestors: [span index, kind, mask, duration, child time]

        def close():
            _, k, _, d, child = path.pop()
            self_ns[k] += d - child

        for i, (k, s, e, p) in enumerate(zip(self.kind, self.start, self.end, self.parent)):
            while path and path[-1][0] != p:
                close()
            d = e - s
            above = 0
            if path:
                path[-1][4] += d
                above = path[-1][2]
            calls[k] += 1
            if not above & fn_bit[k]:
                busy[k] += d
            if not above & layer_bit[k]:
                layer_busy[layer_of[k]] += d
            if k == ebli_id and above & plateaus_bit:
                ebli_in_plateaus += 1
            path.append([i, k, above | fn_bit[k] | layer_bit[k], d, 0])
        while path:
            close()

        out = {}
        for j, layer in enumerate(LAYERS):
            ids = [i for i in range(n_fn) if layer_of[i] == j]
            out[layer + ".calls"] = sum(calls[i] for i in ids)
            out[layer + ".busy_s"] = layer_busy[j] / 1e9
            out[layer + ".self_s"] = sum(self_ns[i] for i in ids) / 1e9
        for i, name in enumerate(names):
            out[name + ".calls"] = calls[i]
            out[name + ".busy_s"] = busy[i] / 1e9
            out[name + ".self_s"] = self_ns[i] / 1e9
        def count(key):
            return self.observed.get(key, [0])[0]

        def values(key):
            return self.observed.get(key, [])

        out["word_combinatorics.lyndon_words.yielded"] = count("word_combinatorics.lyndon_words.yielded")
        out["lyndon_intervals.is_beta_lyndon.accept_ratio"] = _ratio(
            count("lyndon_intervals.is_beta_lyndon.accepted"), out["lyndon_intervals.is_beta_lyndon.calls"])
        out["lyndon_intervals.plateaus.kept_ratio"] = _ratio(
            count("lyndon_intervals.plateaus.kept"), ebli_in_plateaus)
        states = values("survivor_shift.build_automaton.states")
        out["survivor_shift.build_automaton.states_max"] = max(states, default=0)
        out["survivor_shift.build_automaton.states_median"] = statistics.median(states) if states else 0
        out["survivor_shift.perron_root.dim_max"] = max(values("survivor_shift.perron_root.dim"), default=0)
        out["survivor_shift.perron_root.missed_tol"] = count("survivor_shift.perron_root.missed_tol")
        return out


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _count(observed, key, k=1):
    observed.setdefault(key, [0])[0] += k


def _observe_is_beta_lyndon(observed, args, kwargs, result):
    _count(observed, "lyndon_intervals.is_beta_lyndon.accepted", bool(result))


def _observe_plateaus(observed, args, kwargs, result):
    _count(observed, "lyndon_intervals.plateaus.kept", sum(p.kind == "ebli" for p in result.plateaus))


def _observe_build_automaton(observed, args, kwargs, result):
    observed.setdefault("survivor_shift.build_automaton.states", []).append(result.n_states)


def _observe_perron_root(observed, args, kwargs, result):
    from betahole.survivor_shift import ENTROPY_TOL

    tol = args[1] if len(args) > 1 else kwargs.get("tol", ENTROPY_TOL)
    observed.setdefault("survivor_shift.perron_root.dim", []).append(len(args[0]))
    _count(observed, "survivor_shift.perron_root.missed_tol", result.width() > tol)


_OBSERVERS = {
    "lyndon_intervals.is_beta_lyndon": _observe_is_beta_lyndon,
    "lyndon_intervals.plateaus": _observe_plateaus,
    "survivor_shift.build_automaton": _observe_build_automaton,
    "survivor_shift.perron_root": _observe_perron_root,
}

