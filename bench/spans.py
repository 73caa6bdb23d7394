"""Span recorder for the traced benchmark run.

``Tracer.install`` wraps the public entry points of each ``orenaka``
module from the outside: a function is replaced in its defining module
and in every ``orenaka`` module that imported it by name, a method on
its class.  Each call becomes a span ``[name, start, end, parent,
request]`` kept in memory; ``Tracer.summary`` turns the spans into
self times (span duration minus the direct child spans), and
``Tracer.dump`` writes them out once the run is over.

Alongside the spans the wrappers keep a few counters read off the
arguments and results (rows offered, ranks, tensor sizes); exceptions
that leave a span are counted per module as ``<module>.errors``.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

from workloads import bits  # first: puts the checkout's src/ on sys.path

from orenaka import linalg, quadratic

# (module, function) pairs wrapped as spans named "<module>.<function>"
FUNCTIONS = (
    ("linalg", "solve_columns"),
    ("linalg", "subspace_intersect"),
    ("morphisms", "admissible_lift_space"),
    ("morphisms", "check_automorphism"),
    ("morphisms", "extend_derivation"),
    ("morphisms", "nakayama_of_A"),
    ("morphisms", "twist_solve"),
    ("ore", "build_sequence_pair"),
    ("ore", "nakayama_of_B"),
    ("ore", "twisted_superpotential_hat"),
    ("catalog", "enumerate_solution"),
    ("catalog", "cy_classifier_dim2"),
    ("catalog", "dim2_nakayama_oracle"),
    ("cli", "main"),
    ("cli", "render_report"),
)

# (span name, class, method) wrapped on the class
METHODS = (
    ("quadratic.koszul_space", quadratic.QuadraticAlgebra, "koszul_space"),
    ("quadratic.dim_A", quadratic.QuadraticAlgebra, "dim_A"),
    ("quadratic.certify_koszul", quadratic.QuadraticAlgebra, "certify_koszul"),
    ("linalg.Subspace", linalg.Subspace, "__init__"),
)


def _after_certify_koszul(tr, args, out):
    tr.add("quadratic.certify_koszul.rank_sum", sum(out.ranks.values()))


def _after_dim_A(tr, args, out):
    tr.high("quadratic.A.dim_max", out)


def _after_koszul_space(tr, args, out):
    tr.high("quadratic.W.dim_max", out.dim)


def _after_solve_columns(tr, args, out):
    tr.high("linalg.solve_columns.unknowns_max", len(args[0]))


def _after_sequence_pair(tr, args, out):
    nnz = sum(len(t.entries) for tower in (out.right, out.left) for stage in tower for t in stage)
    tr.add("ore.sequence_pair.nnz", nnz)


def _after_superpotential(tr, args, out):
    tr.add("ore.omega_hat.nnz", len(out.entries))
    tr.high("ore.omega_hat.max_bits", max((bits(c) for c in out.entries.values()), default=0))


AFTER = {
    "quadratic.certify_koszul": _after_certify_koszul,
    "quadratic.dim_A": _after_dim_A,
    "quadratic.koszul_space": _after_koszul_space,
    "linalg.solve_columns": _after_solve_columns,
    "ore.build_sequence_pair": _after_sequence_pair,
    "ore.twisted_superpotential_hat": _after_superpotential,
}


class Tracer:
    """In-memory spans and counters for one traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = "setup"
        self.paused = False
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._undo: list[tuple] = []

    # -- counters -----------------------------------------------------------

    def _bucket(self) -> dict:
        return self.counts["setup" if self.request == "setup" else "passes"]

    def add(self, name: str, n: int) -> None:
        self._bucket()[name] += n

    def high(self, name: str, n: int) -> None:
        b = self._bucket()
        b[name] = max(b[name], n)

    @contextlib.contextmanager
    def pause(self):
        """Run the benchmark's own checks without recording them."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    # -- spans --------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.request]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except BaseException:
            self.add(name.split(".")[0] + ".errors", 1)
            raise
        finally:
            rec[2] = perf_counter()
            self.stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        after = AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, out)
            return out

        return wrapper

    def _wrap_subspace_init(self, fn):
        tracer = self

        @functools.wraps(fn)
        def __init__(sub, ambient, rows=()):
            if tracer.paused:
                return fn(sub, ambient, rows)
            rows = list(rows)
            with tracer.span("linalg.Subspace"):
                fn(sub, ambient, rows)
            tracer.add("linalg.Subspace.rows_in", len(rows))
            tracer.add("linalg.Subspace.dim_out", sub.dim)

        return __init__

    def _wrap_tensor_add(self, fn):
        tracer = self

        @functools.wraps(fn)
        def __add__(t, other):
            if not tracer.paused:
                tracer.add("linalg.Tensor.add.calls", 1)
                tracer.add("linalg.Tensor.add.entries_copied", len(t.entries))
            return fn(t, other)

        return __add__

    def install(self) -> None:
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "orenaka" or name.startswith("orenaka."))
        }
        for mod_name, fn_name in FUNCTIONS:
            orig = getattr(mods["orenaka." + mod_name], fn_name)
            wrapped = self._wrap(f"{mod_name}.{fn_name}", orig)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
        for name, cls, meth in METHODS:
            orig = cls.__dict__[meth]
            wrapped = (
                self._wrap_subspace_init(orig) if meth == "__init__" else self._wrap(name, orig)
            )
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, wrapped)
        orig = linalg.Tensor.__dict__["__add__"]
        self._undo.append((linalg.Tensor, "__add__", orig))
        linalg.Tensor.__add__ = self._wrap_tensor_add(orig)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Self time and call count per span name, split into the set-up
        and the timed passes, plus the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {"setup": defaultdict(float), "passes": defaultdict(float)}
        for k, (name, start, end, _, request) in enumerate(self.spans):
            part = out["setup" if request == "setup" else "passes"]
            part[name + ".self_s"] += end - start - child[k]
            part[name + ".calls"] += 1
        for part, counts in self.counts.items():
            out[part].update(counts)
        return {part: dict(vals) for part, vals in out.items()}

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
