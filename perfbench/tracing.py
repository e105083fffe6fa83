"""Traced mode: spans and counts at pforge's module boundaries.

`Tracer.install()` wraps every public function of each pforge module,
and the public methods and arithmetic operators of the classes those
modules define.  A function is patched under every name by which a
caller looks it up: `multivec.lichnerowicz_dp` and the copy that
`from .multivec import lichnerowicz_dp` left in `homology` and `cli`
both point at the same wrapper.  Nothing under `src/` changes.

Each call records one span (name, start, end, parent) in flat arrays in
memory.  A layer's self time is the time in its spans minus the time
their child spans cover; since pforge runs on one thread, child spans
never overlap, so that is the span's duration minus its children's.
A few boundaries also record counts: block sizes and nonzeros in
`homology.block_matrix`, matrix cells and nonzeros in `linalg`, and the
bytes the JSON wire format carries in and out.
"""

import inspect
from array import array
from time import perf_counter

LAYERS = ("cli", "serialize", "ratpoly", "multivec", "forms", "symplectic",
          "homology", "linalg", "analysis", "ncalg", "superalg")

# dunder methods that do a layer's work; other dunders are plumbing
_OPERATORS = {"__init__", "__add__", "__sub__", "__mul__", "__rmul__",
              "__neg__", "__eq__", "__str__"}

COUNTS = ("serialize.in_bytes", "serialize.out_bytes",
          "homology.distinct_blocks", "homology.block_cells",
          "homology.block_nnz", "linalg.rank_cells", "linalg.rank_nnz",
          "linalg.max_cells")

_MATRIX_FUNCS = {"rank", "rref", "nullspace", "solve", "row_space_basis",
                 "in_span", "intersect", "complement_basis",
                 "coordinates_in_basis", "invert", "mat_mul"}


def _cells(mat):
    if not isinstance(mat, list) or not mat or not isinstance(mat[0], list):
        return 0, 0
    return (len(mat) * len(mat[0]),
            sum(1 for row in mat for x in row if x))


class Tracer:
    def __init__(self, modules):
        self.modules = modules          # layer name -> module
        self.names = []                 # span name id -> "layer.function"
        self.layer_of = []              # span name id -> layer
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counts = {}
        self.blocks_seen = set()
        self._patches = self._prepare()     # (owner, attr, original, traced)

    # -- patching -----------------------------------------------------

    def _name_id(self, layer, name):
        self.names.append("%s.%s" % (layer, name))
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _wrap(self, layer, name, fn, observe=None):
        nid = self._name_id(layer, name)
        ids, parents, starts, ends = (self.ids, self.parents, self.starts,
                                      self.ends)
        stack = self.stack

        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result
        return traced

    def _prepare(self):
        """One wrapper per public function and method, and every place
        it must be patched."""
        patches, wrapped = [], {}
        for layer, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    wrapped[obj] = self._wrap(layer, name, obj,
                                              self._observer(layer, name))
                elif inspect.isclass(obj):
                    patches.extend(self._class_patches(layer, obj))
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    patches.append((mod, name, obj, wrapped[obj]))
        return patches

    def _class_patches(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in _OPERATORS:
                continue
            label = "%s.%s" % (cls.__name__, name)
            if isinstance(attr, (classmethod, staticmethod)):
                traced = type(attr)(self._wrap(layer, label, attr.__func__))
            elif inspect.isfunction(attr):
                traced = self._wrap(layer, label, attr)
            else:
                continue
            yield cls, name, attr, traced

    def install(self):
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- counts at chosen boundaries ----------------------------------

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _observer(self, layer, name):
        if layer == "homology" and name == "block_matrix":
            return self._observe_block
        if layer == "linalg" and name in _MATRIX_FUNCS:
            return self._observe_matrix(name)
        if layer == "serialize" and name == "dump":
            return lambda args, out: self._add("serialize.out_bytes",
                                               len(out.encode()))
        return None

    def _observe_block(self, args, blk):
        p, kind, grade, weight = args
        key = (self._job, kind, grade, weight)
        self._add("homology.distinct_blocks", key not in self.blocks_seen)
        self.blocks_seen.add(key)
        cells, nnz = _cells(blk.matrix)
        self._add("homology.block_cells", cells)
        self._add("homology.block_nnz", nnz)

    def _observe_matrix(self, name):
        def observe(args, result):
            cells, nnz = _cells(args[0]) if args else (0, 0)
            if name == "rank":
                self._add("linalg.rank_cells", cells)
                self._add("linalg.rank_nnz", nnz)
            self.counts["linalg.max_cells"] = max(
                self.counts.get("linalg.max_cells", 0), cells)
        return observe

    # -- per job ------------------------------------------------------

    _job = None

    def begin_job(self, key, input_bytes):
        """Mark the start of a job's spans; returns the first span index."""
        self._job = key
        self._add("serialize.in_bytes", input_bytes)
        return len(self.ids)

    def reset(self):
        for arr in (self.ids, self.parents, self.starts, self.ends):
            del arr[:]
        self.stack[:] = [-1]
        self.counts.clear()
        self.blocks_seen.clear()

    # -- reduction ----------------------------------------------------

    def summarize(self, lo=0, hi=None):
        """Per-name calls, self time and total time over spans [lo, hi),
        which must be whole trees.  Total time sums a name's spans, so it
        is the inclusive time only for functions that do not recurse."""
        hi = len(self.ids) if hi is None else hi
        nn = len(self.names)
        calls = [0] * nn
        self_s = [0.0] * nn
        incl = [0.0] * nn
        child = {}
        ids, parents, starts, ends = (self.ids, self.parents, self.starts,
                                      self.ends)
        for i in range(hi - 1, lo - 1, -1):
            d = ends[i] - starts[i]
            nid = ids[i]
            calls[nid] += 1
            self_s[nid] += d - child.pop(i, 0.0)
            incl[nid] += d
            par = parents[i]
            if par >= lo:
                child[par] = child.get(par, 0.0) + d
        return calls, self_s, incl

    def layer_metrics(self, lo=0, hi=None):
        """The per-layer metrics that spans [lo, hi) give."""
        calls, self_s, incl = self.summarize(lo, hi)
        out = {}
        for layer in LAYERS:
            ids = [i for i, lay in enumerate(self.layer_of) if lay == layer]
            out[layer + ".calls"] = sum(calls[i] for i in ids)
            out[layer + ".self_s"] = sum(self_s[i] for i in ids)
        by_name = {name: i for i, name in enumerate(self.names)}

        def of(name, table):
            i = by_name.get(name)
            return table[i] if i is not None else 0
        out["homology.blocks"] = of("homology.block_matrix", calls)
        out["homology.jacobiator_calls"] = self._calls_from(
            by_name.get("multivec.jacobiator"), "homology", lo, hi)
        for fn in ("rank", "rref"):
            out["linalg.%s_calls" % fn] = of("linalg." + fn, calls)
            out["linalg.%s_s" % fn] = of("linalg." + fn, incl)
        out["linalg.in_span_calls"] = of("linalg.in_span", calls)
        out["ncalg.derivations_calls"] = of("ncalg.derivations", calls)
        out["ncalg.derivations_s"] = of("ncalg.derivations", incl)
        return out

    def _calls_from(self, nid, layer, lo, hi):
        """Spans of name `nid` whose caller span belongs to `layer`."""
        hi = len(self.ids) if hi is None else hi
        return sum(1 for i in range(lo, hi) if self.ids[i] == nid
                   and self.parents[i] >= 0
                   and self.layer_of[self.ids[self.parents[i]]] == layer)

    def top_self(self, lo=0, hi=None, limit=12):
        """The span names with the largest self time, for the report."""
        calls, self_s, _ = self.summarize(lo, hi)
        order = sorted(range(len(self.names)), key=lambda i: -self_s[i])
        return [{"name": self.names[i], "calls": calls[i],
                 "self_s": self_s[i]} for i in order[:limit] if calls[i]]
