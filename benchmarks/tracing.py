"""Spans around hyplab's layers, recorded from outside the package.

A :class:`Tracer` replaces each traced function by a wrapper at every
place it can be reached from: every ``hyplab.*`` module attribute that
holds the function (so ``haar_values`` is wrapped inside ``verify``,
``cli``, ``chebconnect``, ``measures`` ... alike), the class attribute
for methods, and the suite lists of ``verify``.  :meth:`Tracer.uninstall`
puts every original back, so untraced passes run the plain code.

Each span records an id, its parent's id, the id of the benchmark
operation it belongs to, its name, start and end.  Spans stay in memory
until :meth:`Tracer.write`.  A layer's self time is its span minus the
time of its child spans; a call into a layer from inside the same layer
(``c`` calling ``c_exact`` on the convex backbone, a recursive
serializer) opens no new span, so self time is never counted twice.

Only public functions are wrapped, plus the private hooks the per-layer
table needs: ``dual._profile``, which ``chebconnect`` calls directly,
and the serializers in ``cli``.  A hook the program no longer
has is skipped and listed in :attr:`Tracer.unobserved`; its metrics
read 0.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

import numpy as np

# Group -> the metric suffix its span time is reported under: "self_s"
# is self time, "s" is inclusive time.
_SELF, _TOTAL = "self_s", "s"


class _ModuleProxy(types.ModuleType):
    """Stands in for a module at one import site, overriding a few names."""

    def __init__(self, module, **overrides):
        super().__init__(module.__name__)
        self.__dict__.update(overrides)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stats: dict[str, float] = {}
        self.run_id = ""
        self.active = False  # spans are recorded only inside op()
        self.unobserved: list[str] = []
        self._stack: list[list] = []  # [group, span id, start, child time]
        self._next_id = 0
        self._undo: list = []

    # -- recording -----------------------------------------------------

    def add(self, name: str, value: float) -> None:
        self.stats[name] = self.stats.get(name, 0.0) + value

    def raise_to(self, name: str, value: float) -> None:
        self.stats[name] = max(self.stats.get(name, 0.0), value)

    def wrap(self, fn, group, *, kind=_SELF, name=None, count=None):
        """Wrapper that records a span of ``group`` around ``fn``.

        ``name(args, kwargs)`` may refine the span name (the report tag);
        ``count(tracer, args, kwargs, result)`` records the layer's work.
        Its cost is kept out of every layer's self time.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stack = tracer._stack
            if not tracer.active or (stack and stack[-1][0] == group):
                return fn(*args, **kwargs)
            span_name = name(args, kwargs) if name else group
            parent = stack[-1][1] if stack else None
            frame = [group, tracer._next_id, time.perf_counter(), 0.0]
            tracer._next_id += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.add(f"{group}.failed", 1)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[2]
                tracer.add(
                    f"{span_name}.{kind}",
                    duration if kind == _TOTAL else duration - frame[3],
                )
                if stack:
                    stack[-1][3] += duration
                tracer.spans.append(
                    (frame[1], parent, tracer.run_id, span_name, frame[2], end)
                )
            if count is not None:
                t0 = time.perf_counter()
                count(tracer, args, kwargs, result)
                spent = time.perf_counter() - t0
                tracer.add("trace.counter_s", spent)
                if stack:
                    stack[-1][3] += spent
            return result

        return wrapped

    def op(self, run_id: str, label: str, call):
        """Run one benchmark operation as a root span."""
        self.run_id = run_id
        self.active = True
        try:
            return self.wrap(call, "op", kind=_TOTAL, name=lambda a, k: f"op.{label}")()
        finally:
            self.active = False

    # -- installing ----------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, wrapped) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "hyplab" or mod_name.startswith("hyplab.")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapped)

    def _function(self, module, attr, group, **kw) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.unobserved.append(f"{module.__name__}.{attr}")
            return
        self._replace_everywhere(original, self.wrap(original, group, **kw))

    def _method(self, cls, attr, group, **kw) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            self.unobserved.append(f"{cls.__qualname__}.{attr}")
            return
        self._patch(cls, attr, self.wrap(original, group, **kw))

    def install(self) -> None:
        """Wrap every traced layer of the already imported package."""
        self.unobserved = []
        from hyplab import (
            appendixcheck, chebconnect, cli, core, dual, families,
            linearization, measures, quadrature, verify,
        )

        self._function(core, "haar_values", "core.haar_values",
                       count=_counter("core.haar_values.calls"))
        self._function(core, "eval_basis_grid", "core.eval_basis_grid",
                       count=_count_cells)
        for attr in ("lam_exact", "lam", "q1_exact", "q1", "c_exact", "c",
                     "a_exact", "inv_a", "haar"):
            self._method(families.ConvexSeqSpec, attr,
                         "families.convex_backbone", count=_count_degree)
        self._method(linearization.LinearizationTable, "__init__",
                     "linearization.table", count=_count_table)
        self._function(linearization, "check_nlp", "linearization.check_nlp")
        self._function(chebconnect, "connection_coeffs",
                       "chebconnect.connection_coeffs", count=_count_entries)
        self._function(chebconnect, "criterion_report",
                       "chebconnect.criterion_report")
        self._function(measures, "integrate_positive", "measures.integrate",
                       count=_counter("measures.integrate.calls"))
        for attr in ("jacobi_spectrum", "spectrum_atoms"):
            self._function(measures, attr, "measures.spectrum",
                           count=_count_order)
        self._function(dual, "_profile", "dual.profile", count=_count_profile)
        for attr in getattr(appendixcheck, "__all__", ()):
            if isinstance(getattr(appendixcheck, attr, None), types.FunctionType):
                self._function(appendixcheck, attr, "appendixcheck",
                               count=_counter("appendixcheck.calls"))
        self._install_levels(quadrature)
        self._install_criteria(verify)

        self._function(cli, "build_report", "cli.report", kind=_TOTAL,
                       name=_report_tag)
        for attr in ("_jsonable", "_report_csv_rows", "_emit", "_write_csv"):
            self._function(cli, attr, "cli.serialize")
        if isinstance(getattr(cli, "json", None), types.ModuleType):
            dumps = self.wrap(cli.json.dumps, "cli.serialize")
            self._patch(cli, "json", _ModuleProxy(cli.json, dumps=dumps))
        self._function(cli, "explore_rows", "cli.explore", kind=_TOTAL)
        self._function(cli, "write_figure", "cli.figure", kind=_TOTAL)

    def _install_levels(self, quadrature) -> None:
        """Count calls to the shared default tanh-sinh rule's level table."""
        rule = quadrature.default_rule()
        original = rule.level_nodes
        tracer = self

        def level_nodes(level):
            if tracer.active:
                tracer.add("quadrature.levels", 1)
            return original(level)

        rule.level_nodes = level_nodes
        self._undo.append((rule, "level_nodes", None))

    def _install_criteria(self, verify) -> None:
        """Time each acceptance criterion, named by its place in CRITERIA."""
        for i, fn in enumerate(list(verify.CRITERIA), start=1):
            wrapped = self.wrap(fn, "verify.criteria", kind=_TOTAL,
                                name=lambda a, k, i=i: f"verify.criterion-{i}")
            self._replace_everywhere(fn, wrapped)
            for suite in verify.SUITES.values():
                for j, member in enumerate(suite):
                    if member is fn:
                        suite[j] = wrapped
                        self._undo.append((suite, j, fn))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, list):
                owner[key] = original
            elif original is None:
                delattr(owner, key)
            else:
                setattr(owner, key, original)
        self._undo.clear()

    # -- output ---------------------------------------------------------

    def take_stats(self) -> dict[str, float]:
        """Return the counters gathered since the last call and reset them."""
        stats, self.stats = self.stats, {}
        return stats

    def write(self, path) -> None:
        """Write the spans kept so far as JSON lines."""
        with open(path, "w") as fh:
            for span_id, parent, run_id, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "run": run_id,
                    "name": name, "start": start, "end": end,
                }) + "\n")


# -- work counters ------------------------------------------------------


def _counter(metric):
    def count(tracer, args, kwargs, result):
        tracer.add(metric, 1)
    return count


def _count_cells(tracer, args, kwargs, result):
    tracer.add("core.eval_basis_grid.cells", np.size(result))


def _count_degree(tracer, args, kwargs, result):
    n = args[1] if len(args) > 1 else kwargs.get("n", 0)
    tracer.raise_to("families.convex_backbone.max_degree", n)


def _count_table(tracer, args, kwargs, result):
    table = args[0]
    rows = nbytes = 0
    for n in range(table.N + 1):
        for m in range(n + 1):
            rows += 1
            nbytes += table.row(m, n).nbytes
    tracer.add("linearization.table.rows", rows)
    tracer.add("linearization.table.bytes", nbytes)


def _count_entries(tracer, args, kwargs, result):
    tracer.add("chebconnect.connection_coeffs.entries", np.size(result))


def _count_order(tracer, args, kwargs, result):
    tracer.add("measures.spectrum.order", args[1] if len(args) > 1 else kwargs["N"])


def _count_profile(tracer, args, kwargs, result):
    """Degrees iterated per point: up to divergence, else all of N."""
    N = args[2] if len(args) > 2 else kwargs["N"]
    dvg = np.asarray(result[1]).ravel()
    tracer.add("dual.profile.point_degrees", float(np.where(dvg > 0, dvg, N).sum()))
    tracer.add("dual.survivors", int(np.count_nonzero(dvg == 0)))


def _report_tag(args, kwargs):
    family = args[0] if args else kwargs["family"]
    return "cli.report." + family.split(":", 1)[0].strip().lower()
