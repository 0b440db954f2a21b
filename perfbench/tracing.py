"""Per-layer self times and counts, recorded from outside the library.

The tracer wraps the public functions and methods of each effalg module
(nothing under ``src/`` is edited).  A wrapped call records its wall time
minus the time spent in wrapped calls below it (its *self* time) under
the layer it belongs to, so the layers of one run add up without double
counting.  The time a wrapper spends on its own bookkeeping is charged to
no layer.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref

# Per-layer metrics, in the order they are printed: (name, unit).
LAYER_METRICS = [
    ("core.tables_ms", "ms"),
    ("core.table_mb", "MB"),
    ("core.validate_axioms_ms", "ms"),
    ("core.scalar_calls", "count"),
    ("core.scalar_ms", "ms"),
    ("core.state_validate_ms", "ms"),
    ("kernels.assoc_ms", "ms"),
    ("kernels.assoc_triples", "count"),
    ("kernels.map_additivity_ms", "ms"),
    ("kernels.cancellation_ms", "ms"),
    ("kernels.normality_ms", "ms"),
    ("kernels.mackey_ms", "ms"),
    ("compbase.validate_base_ms", "ms"),
    ("compbase.map_table_calls", "count"),
    ("compbase.map_table_ms", "ms"),
    ("compbase.central_base_ms", "ms"),
    ("compbase.blocks_ms", "ms"),
    ("compbase.base_tables_ms", "ms"),
    ("comparability.b_comparability_ms", "ms"),
    ("comparability.split_ms", "ms"),
    ("comparability.splits", "count"),
    ("comparability.p_le_set_ms", "ms"),
    ("spectral.tree_ms", "ms"),
    ("spectral.tree_nodes", "count"),
    ("spectral.grid_ms", "ms"),
    ("spectral.grid_entries", "count"),
    ("spectral.rational_ms", "ms"),
    ("spectral.verify_ms", "ms"),
    ("matrices.split_ms", "ms"),
    ("groups.group_ms", "ms"),
    ("instances.load_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.output_ms", "ms"),
]


def _triples(args, kwargs, out):
    """Defined triples scanned by the associativity kernel."""
    pairs = args[1] if len(args) > 1 else kwargs.get("pairs")
    if pairs is None:
        return 0
    rows = pairs.indptr[pairs.s + 1] - pairs.indptr[pairs.s]
    return int(rows.sum())


# (layer, dotted target, counter name or None, counter function or None).
# A target is "module.function" or "module.Class.method"; a method may be a
# property, whose getter is wrapped.  Layers without a "_ms" metric (the
# load layer is reported inclusive, see Tracer.load_s) still record time so
# that it is not charged to their callers.
WRAPS = [
    ("core.tables", "core.FiniteAlgebra._tabulate", None, None),
    ("core.tables", "core.GridAlgebra._tabulate", None, None),
    ("core.tables", "core.ProductAlgebra._tabulate", None, None),
    ("core.tables", "core.TableAlgebra._derive_order", None, None),
    ("core.tables", "core.FiniteAlgebra.defined_pairs", None, None),
    ("core.validate_axioms", "core.validate_axioms", None, None),
    ("core.scalar", "core.FiniteAlgebra.sum", "core.scalar_calls", None),
    ("core.scalar", "core.FiniteAlgebra.leq", "core.scalar_calls", None),
    ("core.scalar", "core.FiniteAlgebra.ominus", "core.scalar_calls", None),
    ("core.state_validate", "core.State.validate", None, None),
    ("kernels.assoc", "kernels.associativity_violation", "kernels.assoc_triples", _triples),
    ("kernels.map_additivity", "kernels.map_additivity_violation", None, None),
    ("kernels.cancellation", "kernels.cancellation_violation", None, None),
    ("kernels.normality", "kernels.normality_violation", None, None),
    ("kernels.mackey", "kernels.mackey_matrix", None, None),
    ("kernels.mackey", "kernels.mackey_witness", None, None),
    ("compbase.validate_base", "compbase.validate_base", None, None),
    ("compbase.map_table", "compbase.CompressionBase.map_table", "compbase.map_table_calls", None),
    ("compbase.central_base", "compbase.central_base", None, None),
    ("compbase.blocks", "compbase.blocks", None, None),
    ("compbase.base_tables", "compbase.CompressionBase.pc_matrix", None, None),
    ("compbase.base_tables", "compbase.CompressionBase.cover_vec", None, None),
    ("compbase.base_tables", "compbase.CompressionBase.bicommutant_mask_all", None, None),
    ("compbase.base_tables", "compbase.CompressionBase.p_meet_table", None, None),
    ("comparability.b_comparability", "comparability.check_b_comparability", None, None),
    ("comparability.split", "comparability.split", "comparability.splits", None),
    ("comparability.p_le_set", "comparability.p_le_set", None, None),
    ("spectral.tree", "spectral.splitting_tree", "spectral.tree_nodes",
     lambda a, k, out: len(out._u)),
    ("spectral.grid", "spectral.binary_resolution", "spectral.grid_entries",
     lambda a, k, out: len(out.entries)),
    ("spectral.rational", "spectral.rational_resolution", None, None),
    ("spectral.verify", "spectral.verify_resolution", None, None),
    ("matrices.split", "matrices.MatrixCompressionBase.split", None, None),
    ("groups.group", "groups.group_spectral", None, None),
    ("groups.group", "groups.dyadic_approximation", None, None),
    ("instances.load", "instances.parse_document", None, None),
    ("cli.output", "cli.cmd_validate", None, None),
    ("cli.output", "cli.cmd_analyze", None, None),
    ("cli.output", "cli.cmd_spectral", None, None),
    ("cli.output", "cli.cmd_check_spectral", None, None),
    ("cli.output", "cli.cmd_group", None, None),
    ("cli.output", "cli.cmd_expect", None, None),
]

_TABLE_BUILDERS = {"_tabulate", "_derive_order", "defined_pairs"}


class Tracer:
    """Self times (seconds), call counts and work counters per layer."""

    def __init__(self):
        self.enabled = True
        self.self_s = {}
        self.counts = {}
        self.load_s = 0.0  # parse_document, inclusive of what it calls
        self.import_s = 0.0
        self._stack = []  # time spent in wrapped children, per open frame
        self._load_depth = 0
        self._table_bytes = weakref.WeakKeyDictionary()
        self.table_bytes_max = 0

    # -- recording ------------------------------------------------------------

    def _count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _note_tables(self, algebra):
        total = 0
        for attr in ("_sum_table", "_leq_table", "_ominus_table"):
            table = getattr(algebra, attr, None)
            if table is not None:
                total += table.nbytes
        pairs = getattr(algebra, "_defined_pairs", None)
        if pairs is not None:
            total += sum(getattr(pairs, f).nbytes for f in ("a", "b", "s", "indptr"))
        self._table_bytes[algebra] = total
        self.table_bytes_max = max(self.table_bytes_max, total)

    def wrap(self, layer, fn, counter=None, count_fn=None, tables=False, load=False):
        perf = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            start = perf()
            stack.append(0.0)
            if load:
                self._load_depth += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf()
                children = stack.pop()
                self.self_s[layer] = self.self_s.get(layer, 0.0) + (end - start - children)
                if load:
                    self._load_depth -= 1
                    if self._load_depth == 0:
                        self.load_s += end - start
            if counter is not None:
                self._count(counter, count_fn(args, kwargs, out) if count_fn else 1)
            if tables:
                self._note_tables(args[0])
            if stack:  # the caller's self time excludes this call and its bookkeeping
                stack[-1] += perf() - start
            return out

        return traced

    # -- installing -----------------------------------------------------------

    def install(self):
        """Wrap every target of WRAPS in the loaded effalg modules."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if (name == "effalg" or name.startswith("effalg.")) and mod is not None}
        for layer, target, counter, count_fn in WRAPS:
            parts = target.split(".")
            owner = modules["effalg." + parts[0]]
            if len(parts) == 3:
                owner = getattr(owner, parts[1])
            name = parts[-1]
            original = owner.__dict__[name]
            tables = name in _TABLE_BUILDERS
            load = layer == "instances.load"
            if isinstance(original, property):
                wrapped = property(self.wrap(layer, original.fget, counter, count_fn, tables))
                setattr(owner, name, wrapped)
                continue
            wrapped = self.wrap(layer, original, counter, count_fn, tables, load)
            if len(parts) == 3:
                setattr(owner, name, wrapped)
                continue
            # module function: rebind it wherever it was imported by name
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    # -- results --------------------------------------------------------------

    def to_dict(self):
        return {"self_s": self.self_s, "counts": self.counts, "load_s": self.load_s,
                "import_s": self.import_s, "table_bytes_max": self.table_bytes_max}

    def absorb(self, part: dict):
        """Add the figures another (child) process recorded, from to_dict()."""
        for name, value in part["self_s"].items():
            self.self_s[name] = self.self_s.get(name, 0.0) + value
        for name, value in part["counts"].items():
            self._count(name, value)
        self.load_s += part["load_s"]
        self.import_s += part["import_s"]
        self.table_bytes_max = max(self.table_bytes_max, part["table_bytes_max"])


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer metrics: self time per op run in ms, counts as run totals."""
    figures = tracer.to_dict()
    out = {}
    per_op_ms = 1000.0 / ops
    for name, unit in LAYER_METRICS:
        if unit == "count":
            value = figures["counts"].get(name, 0)
        elif unit == "MB":
            value = figures["table_bytes_max"] / 1e6
        elif name == "instances.load_ms":
            value = figures["load_s"] * per_op_ms
        elif name == "cli.import_ms":
            value = figures["import_s"] * per_op_ms
        else:
            value = figures["self_s"].get(name[:-3], 0.0) * per_op_ms
        out[name] = {"value": value, "unit": unit}
    return out
