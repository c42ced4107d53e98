"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each traced function, on every module attribute
of the package through which a caller looks it up, with a wrapper that
records a span (name, start, end, parent, operation) and, for a few
functions, counts derived from the call's arguments or result.  ``remove``
puts the originals back.  Spans stay in memory in flat arrays and are
written out once, at the end of the run.  A traced name that the program no
longer has is reported as absent, not as an error.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

from checks import recursive_bound, stein_semigroup_bound

# one span per public function of each layer (module) the workloads reach
SPANS = (
    "cli.main",
    "core.enumerate_rn",
    "core.factorize",
    "algebra.from_json_dict",
    "algebra.to_groupoid",
    "algebra.to_semigroup",
    "algebra.convolve_semigroup",
    "algebra.inner2",
    "tableaux.nstandard_tableaux",
    "symmetric.seminormal_rep",
    "symmetric.sn_fft",
    "rook_reps.halverson_rep",
    "rook_reps.stein_rep",
    "rook_reps.HalversonRep.eval_groupoid",
    "rook_reps.HalversonRep.evaluate",
    "transforms.stein_fft",
    "transforms.stein_fft_semigroup",
    "transforms.recursive_fft",
    "transforms.fourier_invert",
    "transforms.blockwise_product",
    "transforms.to_json_dict",
    "spectral.ingest",
    "spectral.spectrum",
)

# stein_fft runs its per-cell S_k transforms through the private recursion of
# sn_fft; that binding is traced as sn_fft too, but only outside its own
# module, so each cell is one span and the recursion inside it is not traced
ALIASES = {"symmetric.sn_fft": "symmetric._sn_fft"}

# constructors and per-element image caches: their work lands in the first
# (cold) operation of a fresh process, which is what set-up time measures
COLD_SPANS = (
    "core.enumerate_rn",
    "tableaux.nstandard_tableaux",
    "symmetric.seminormal_rep",
    "rook_reps.halverson_rep",
    "rook_reps.stein_rep",
    "rook_reps.HalversonRep.eval_groupoid",
    "rook_reps.HalversonRep.evaluate",
)


def _additions(args, result):
    f = args[0]
    return {"additions": sum(1 << s.rank for s in f.coeffs)}


def _stein_ops(args, result):
    ops = result.ops.multiply_adds
    return {"multiply_adds": ops, "bound_ratio": ops / stein_semigroup_bound(result.n)}


def _recursive_ops(args, result):
    ops = result.ops.multiply_adds
    return {"multiply_adds": ops, "bound_ratio": ops / recursive_bound(result.n)}


def _rows(args, result):
    return {"rows": len(result.records)}


# counts per span, summed over the calls in an operation (ratios: maximum)
COUNTS = {
    "algebra.to_groupoid": _additions,
    "transforms.stein_fft_semigroup": _stein_ops,
    "transforms.recursive_fft": _recursive_ops,
    "spectral.ingest": _rows,
}
COUNT_NAMES = (
    "algebra.to_groupoid.additions",
    "transforms.stein_fft_semigroup.multiply_adds",
    "transforms.stein_fft_semigroup.bound_ratio",
    "transforms.recursive_fft.multiply_adds",
    "transforms.recursive_fft.bound_ratio",
    "spectral.ingest.rows",
)

PACKAGE = "rookfft"
ROOT_SPAN = "op"


class Tracer:
    def __init__(self):
        self.names: list[str] = [ROOT_SPAN]
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_op = -1
        self.counts: dict[tuple[int, str], float] = {}
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing and removing wrappers ---------------------------------

    def _modules(self):
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _resolve(self, dotted: str):
        """(owner, attribute, original) for "module.func" or "module.Class.method"."""
        parts = dotted.split(".")
        try:
            owner = importlib.import_module(f"{PACKAGE}.{parts[0]}")
        except ModuleNotFoundError:
            return None
        for part in parts[1:-1]:
            owner = getattr(owner, part, None)
        if owner is None or parts[-1] not in vars(owner):
            return None
        return owner, parts[-1], vars(owner)[parts[-1]]

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        found_all = {span: self._resolve(span) for span in SPANS}
        modules = self._modules()
        for span, found in found_all.items():
            if found is None:
                self.absent.append(span)
                continue
            owner, attr, original = found
            wrapper = self._wrap(span, original, COUNTS.get(span))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)
            alias = ALIASES.get(span)
            hidden = self._resolve(alias) if alias else None
            if hidden is not None:
                home, _, private = hidden
                alias_wrapper = self._wrap(span, private, None)
                for module in modules:
                    if module is home:
                        continue
                    for name, value in list(vars(module).items()):
                        if value is private:
                            self._patch(module, name, alias_wrapper)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- recording ----------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _wrap(self, span: str, fn, count):
        nid = len(self.names)
        self.names.append(span)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                tracer._count(span, count, args, result)
            return result

        return wrapper

    def _count(self, span: str, count, args, result) -> None:
        try:
            values = count(args, result)
        except Exception:  # a changed signature makes the count absent, not the run fail
            return
        for key, value in values.items():
            slot = (self.current_op, f"{span}.{key}")
            old = self.counts.get(slot)
            if old is None:
                self.counts[slot] = value
            elif key.endswith("ratio"):
                self.counts[slot] = max(old, value)
            else:
                self.counts[slot] = old + value

    def begin_op(self, op: int) -> int:
        self.current_op = op
        return self._open(0)

    def end_op(self, idx: int) -> None:
        self._close(idx)
        self.current_op = -1

    def count(self, op: int, name: str):
        return self.counts.get((op, name))

    # -- results ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def dump(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def per_op(self) -> dict[int, dict]:
        """Per operation: self seconds and calls per span, the op's wall time, and counts.

        A span's self time is its duration minus the durations of its child
        spans; spans outside any operation are ignored.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], dur[nested])
        own = dur - child
        nnames = len(self.names)
        out = {}
        for op in np.unique(a["op"]):
            if op < 0:
                continue
            sel = a["op"] == op
            ids = a["name_id"][sel]
            self_s = np.bincount(ids, weights=own[sel], minlength=nnames)
            calls = np.bincount(ids, minlength=nnames)
            wall = float(dur[sel][ids == 0].sum())
            spans: dict[str, list[float]] = {}
            for nid in range(1, nnames):
                entry = spans.setdefault(self.names[nid], [0.0, 0])
                entry[0] += float(self_s[nid])
                entry[1] += int(calls[nid])
            out[int(op)] = {
                "wall_s": wall,
                "root_self_s": float(self_s[0]),
                "spans": spans,
                "counts": {name: v for (o, name), v in self.counts.items() if o == op},
            }
        return out
