"""Spans and counters around the package's layer entry points.

Each span wraps a name where its caller looks it up (a module attribute such
as `cauchybi.hp.solve`, or a method on its class), records its parent span,
and is kept in memory until the worker ends.  A layer's self time is its
span durations minus the time covered by their direct children, so the
self times of all layers plus the untraced remainder equal the traced wall
time.  Nothing in the package itself is modified on disk.
"""

import functools
import os
import time
import weakref

# span names, in report order; `precision` and `poly` have none, so their
# cost lands in their callers' self time
SPANS = (
    "measures.make_measure",
    "nikishin.gram",
    "nikishin.s_hat",
    "nikishin.s_moments",
    "linalg.solve",
    "hp.solve_hp_vector",
    "hp.solve_reversed",
    "hp.eval_form",
    "hp.zeros",
    "polyzeros.real_roots",
    "hp.biorthogonality_matrix",
    "hp.form_identity_residual",
    "hp.solution_from_json",
    "hp.solution_to_json",
    "polyzeros.moment_distance",
    "equilibrium.solve_equilibrium",
    "asymptotics.empirical_tables",
    "cli.main",
)
CALL_COUNTS = (
    "nikishin.gram",
    "nikishin.s_hat",
    "linalg.solve",
    "hp.eval_form",
    "equilibrium.solve_equilibrium",
)
COUNTERS = ("nikishin.systems_built", "cli.bytes_read", "cli.bytes_written")


class Tracer:
    def __init__(self):
        # one entry per span: [name, parent index or -1, start, end, value]
        self.spans = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []

    def wrap(self, name, fn, value=None):
        """`fn` inside a span; `value(args, result)` is stored with it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if value is not None:
                span[4] = value(args, result)
            return result

        return traced

    def install(self):
        """Patch the package's lookup points with traced wrappers."""
        from mpmath import log10

        from cauchybi import asymptotics, cli, equilibrium, hp, measures, polyzeros
        from cauchybi.hp import HPSolution
        from cauchybi.nikishin import NikishinSystem

        seen_grams = weakref.WeakKeyDictionary()

        def gram_is_new(args, _result):
            keys = seen_grams.setdefault(args[0], set())
            new = (args[1], args[2]) not in keys
            keys.add((args[1], args[2]))
            return new

        points = (
            (measures, "make_measure", "measures.make_measure", None),
            (cli, "make_measure", "measures.make_measure", None),
            (NikishinSystem, "gram", "nikishin.gram", gram_is_new),
            (NikishinSystem, "s_hat", "nikishin.s_hat", None),
            (NikishinSystem, "s_moments", "nikishin.s_moments", None),
            (hp, "solve", "linalg.solve",
             lambda _a, r: float(log10(r[1]["condition"]))),
            (hp, "solve_hp_vector", "hp.solve_hp_vector", None),
            (hp, "solve_reversed", "hp.solve_reversed", None),
            (HPSolution, "eval_form", "hp.eval_form", None),
            (HPSolution, "zeros", "hp.zeros", lambda _a, r: len(r)),
            (hp, "real_roots", "polyzeros.real_roots", None),
            (hp, "biorthogonality_matrix", "hp.biorthogonality_matrix", None),
            (hp, "form_identity_residual", "hp.form_identity_residual", None),
            (hp, "solution_from_json", "hp.solution_from_json", None),
            (hp, "solution_to_json", "hp.solution_to_json", None),
            (polyzeros, "moment_distance", "polyzeros.moment_distance", None),
            (equilibrium, "solve_equilibrium", "equilibrium.solve_equilibrium", None),
            (asymptotics, "empirical_tables", "asymptotics.empirical_tables",
             lambda _a, r: len(r)),
            (cli, "main", "cli.main", None),
        )
        for owner, attr, name, value in points:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), value))

        counters = self.counters
        init = NikishinSystem.__init__

        @functools.wraps(init)
        def counted_init(system, *args, **kwargs):
            counters["nikishin.systems_built"] += 1
            init(system, *args, **kwargs)

        NikishinSystem.__init__ = counted_init

        write = cli.atomic_write

        @functools.wraps(write)
        def counted_write(path, text):
            counters["cli.bytes_written"] += len(text.encode())
            write(path, text)

        cli.atomic_write = counted_write

        # the CLI reads every file through the builtin `open`; a module
        # global of that name shadows it for the CLI alone
        def counted_open(file, mode="r", *args, **kwargs):
            if "r" in mode and "+" not in mode:
                counters["cli.bytes_read"] += os.path.getsize(file)
            return open(file, mode, *args, **kwargs)

        cli.open = counted_open

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the traced section that took `wall_s`."""
        spans = self.spans
        duration = [end - start for _, _, start, end, _ in spans]
        children = [0.0] * len(spans)
        for i, span in enumerate(spans):
            if span[1] >= 0:
                children[span[1]] += duration[i]
        self_s = dict.fromkeys(SPANS, 0.0)
        calls = dict.fromkeys(SPANS, 0)
        covered = 0.0
        for i, span in enumerate(spans):
            self_s[span[0]] += duration[i] - children[i]
            calls[span[0]] += 1
            if span[1] < 0:
                covered += duration[i]

        # zero finding: form evaluations made while finding zeros, per zero
        # found by a call that had to evaluate the form
        evals = [0] * len(spans)
        for span in spans:
            if span[0] == "hp.eval_form" and span[1] >= 0 and spans[span[1]][0] == "hp.zeros":
                evals[span[1]] += 1
        found = sum(s[4] for i, s in enumerate(spans) if s[0] == "hp.zeros" and evals[i])
        conds = [s[4] for s in spans if s[0] == "linalg.solve"]

        metrics = {f"{name}.self_s": self_s[name] for name in SPANS}
        metrics.update({f"{name}.calls": calls[name] for name in CALL_COUNTS})
        metrics["nikishin.gram.computed"] = sum(
            1 for s in spans if s[0] == "nikishin.gram" and s[4]
        )
        metrics["linalg.solve.cond_log10_max"] = max(conds, default=0.0)
        metrics["hp.zeros.evals_per_zero"] = sum(evals) / found if found else 0.0
        metrics["asymptotics.empirical_tables.rows"] = sum(
            s[4] for s in spans if s[0] == "asymptotics.empirical_tables"
        )
        metrics.update(self.counters)
        metrics["trace.wall_s"] = wall_s
        metrics["trace.untraced_s"] = wall_s - covered
        return metrics
