"""Spans and kernel counters added around ppqnd at run time.

Nothing here edits the package source.  Every public function of each
layer (the names in the module's ``__all__``, plus ``cli.main`` and the
``StateVector.to_density_matrix`` method) is rebound to a wrapper,
everywhere ppqnd holds a reference to it: the defining module, the
package namespace, and each module that imported the name directly
(``ppqnd.qnd.evolve`` is the same object as ``ppqnd.fock.evolve``).
``Patch.undo`` puts every original back.

Span names are ``<module>.<function>``; ``fock.evolve`` is split by path
into ``fock.evolve.double`` and ``fock.evolve.longdouble``.  These are the
stage names a later in-program ``--trace`` option reuses, so benchmark and
production traces share one vocabulary.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter

import numpy as np

LAYERS = ("cli", "qnd", "polarization", "secular", "schemes", "fock")


def _namespaces() -> list:
    return [importlib.import_module("ppqnd")] + [
        importlib.import_module(f"ppqnd.{layer}") for layer in LAYERS]


def public_functions() -> list[tuple[str, object, str]]:
    """(span name, owner, attribute) of every instrumented function."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"ppqnd.{layer}")
        for name in ["main"] if layer == "cli" else mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out.append((f"{layer}.{name}", mod, name))
    fock = importlib.import_module("ppqnd.fock")
    out.append(("fock.to_density_matrix", fock.StateVector, "to_density_matrix"))
    return out


def span_names() -> list[str]:
    names = [name for name, _, _ in public_functions() if name != "fock.evolve"]
    return names + ["fock.evolve.double", "fock.evolve.longdouble"]


class Patch:
    """Rebinds functions wherever ppqnd holds them; undo() restores all."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def rebind(self, owner, attr: str, make) -> None:
        """Replace owner.attr and every module-level alias of it by make(original)."""
        original = vars(owner)[attr]
        new = make(original)
        self.set(owner, attr, new)
        for ns in _namespaces():
            for name, value in list(vars(ns).items()):
                if value is original:
                    self.set(ns, name, new)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _evolve_path(args, kwargs) -> tuple[str, int]:
    h = args[0] if args else kwargs["h"]
    extended = kwargs.get("extended", args[3] if len(args) > 3 else False)
    name = "fock.evolve.longdouble" if extended else "fock.evolve.double"
    return name, h.space.total_dim


class Tracer:
    """In-memory spans: (name, start, end, parent id, op index, dim)."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._patch = Patch()

    def install(self) -> None:
        for name, owner, attr in public_functions():
            split = _evolve_path if name == "fock.evolve" else None
            self._patch.rebind(owner, attr, functools.partial(self._wrap, name, split=split))

    def uninstall(self) -> None:
        self._patch.undo()

    def _wrap(self, name: str, fn, split=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name, dim = split(args, kwargs) if split else (name, None)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (span_name, start, end, parent, self.op, dim)
        return traced

    def layer_table(self) -> dict[str, dict]:
        """Per span name: calls, self seconds (duration minus children), max dim."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict[str, dict] = {}
        for sid, (name, start, end, _, _, dim) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "self_s": 0.0, "max_dim": 0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child[sid]
            if dim is not None:
                row["max_dim"] = max(row["max_dim"], dim)
        return table

    def root_seconds(self) -> float:
        """Time spent inside top-level spans."""
        return sum(end - start for _, start, end, parent, _, _ in self.spans if parent < 0)

    def write_jsonl(self, path: str, t0: float, op_keys: list[str]) -> None:
        """A header line naming the fields, then one JSON array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start_s", "end_s", "parent", "op", "dim"],
                                 "op_keys": op_keys}) + "\n")
            for sid, (name, start, end, parent, op, dim) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, start - t0, end - t0, parent, op, dim]) + "\n")


class Counters:
    """Computed kernel sizes and cache-potential ratios for one untimed pass.

    Counted apart from the traced phase so that the bookkeeping (a
    diagonality test per evolve, a set lookup per operator build) adds to
    no span's self time.  Dense bytes are computed as 16 * D^2 per
    decomposition, not measured.
    """

    KERNELS = ("eigh", "eigvalsh", "jacobi_longdouble")

    def __init__(self):
        self.kernels = {k: {"calls": 0, "max_dim": 0, "dense_bytes": 0} for k in self.KERNELS}
        self.evolve_calls = 0
        self.evolve_diagonal = 0
        self.builds = {k: {"calls": 0, "repeats": 0} for k in ("annihilation_op", "number_op")}
        self._built: set = set()
        self._patch = Patch()

    def install(self) -> None:
        fock = importlib.import_module("ppqnd.fock")
        self._patch.set(np.linalg, "eigh", self._kernel("eigh", np.linalg.eigh))
        self._patch.set(np.linalg, "eigvalsh", self._kernel("eigvalsh", np.linalg.eigvalsh))
        self._patch.rebind(fock, "_jacobi_eigh_longdouble",
                           functools.partial(self._kernel, "jacobi_longdouble"))
        self._patch.rebind(fock, "evolve", self._evolve)
        for name in self.builds:
            self._patch.rebind(fock, name, functools.partial(self._build, name))

    def uninstall(self) -> None:
        self._patch.undo()

    def _kernel(self, kernel: str, fn):
        row = self.kernels[kernel]

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            dim = np.shape(a)[-1]
            row["calls"] += 1
            row["max_dim"] = max(row["max_dim"], dim)
            row["dense_bytes"] += 16 * dim * dim
            return fn(a, *args, **kwargs)
        return counted

    def _evolve(self, fn):
        @functools.wraps(fn)
        def counted(h, *args, **kwargs):
            m = h.matrix
            self.evolve_calls += 1
            self.evolve_diagonal += np.count_nonzero(m) == np.count_nonzero(np.diagonal(m))
            return fn(h, *args, **kwargs)
        return counted

    def _build(self, name: str, fn):
        row = self.builds[name]

        @functools.wraps(fn)
        def counted(space, mode):
            key = (name, space, mode)
            row["calls"] += 1
            row["repeats"] += key in self._built
            self._built.add(key)
            return fn(space, mode)
        return counted

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for kernel, row in self.kernels.items():
            out[f"computed.{kernel}.calls"] = (row["calls"], "calls/pass")
            out[f"computed.{kernel}.max_dim"] = (row["max_dim"], "dim")
            out[f"computed.{kernel}.dense_bytes"] = (row["dense_bytes"], "B/pass")
        out["fock.evolve.diagonal_input_share"] = (
            self.evolve_diagonal / self.evolve_calls if self.evolve_calls else 0.0, "fraction")
        for name, row in self.builds.items():
            out[f"fock.{name}.repeat_share"] = (
                row["repeats"] / row["calls"] if row["calls"] else 0.0, "fraction")
        return out
