"""Span recorder for the traced benchmark run.

Tracing works from outside afkit: each traced function is replaced by a
wrapper in every afkit module namespace that holds it (methods are replaced
on their class).  A wrapper records one span per call -- name, start, end,
parent span and job id -- in flat arrays, and per-layer metrics are derived
from the spans after the run.  Nothing under src/ is changed.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from time import perf_counter

# (layer, attribute in afkit.<layer>, span name).  "Class.method" wraps a method.
TARGETS = (
    ("abelian", "smith_normal_form", "abelian.smith_normal_form"),
    ("abelian", "IntMatrix.__matmul__", "abelian.IntMatrix.__matmul__"),
    ("abelian", "IntMatrix.apply", "abelian.IntMatrix.apply"),
    ("abelian", "hermite_row_basis", "abelian.hermite_row_basis"),
    ("abelian", "kernel_basis", "abelian.kernel_basis"),
    ("abelian", "preimage_lattice_rows", "abelian.preimage_lattice_rows"),
    ("abelian", "cokernel_invariants", "abelian.cokernel_invariants"),
    ("abelian", "solve_row_combination", "abelian.solve_row_combination"),
    ("abelian", "hermite_row_basis_augmented", "abelian.hermite_row_basis_augmented"),
    ("limits", "saturate_preimages", "limits.saturate_preimages"),
    ("limits", "death_lattice_rows", "limits.death_lattice_rows"),
    ("limits", "push", "limits.push"),
    ("limits", "limit_equal", "limits.limit_equal"),
    ("rordam", "rordam_pair", "rordam.rordam_pair"),
    ("rordam", "rordam_verify", "rordam.rordam_verify"),
    ("dimension", "shen_solve", "dimension.shen_solve"),
    ("dimension", "ehs_realize_with_endo", "dimension.ehs_realize_with_endo"),
    ("dimension", "validate_diagram", "dimension.validate_diagram"),
    ("dimension", "validate_endomorphism", "dimension.validate_endomorphism"),
    ("invariants", "pipeline", "invariants.pipeline"),
    ("invariants", "assemble_pipeline_system", "invariants.assemble_pipeline_system"),
    ("invariants", "pv_check", "invariants.pv_check"),
    ("eplag", "membership", "eplag.membership"),
    ("eplag", "EplagGroup.generators", "eplag.EplagGroup.generators"),
    ("schreier", "coset_representative", "schreier.coset_representative"),
    ("schreier", "schreier_generators", "schreier.schreier_generators"),
    ("schreier", "SubgroupOracle.__contains__", "schreier.oracle"),
    ("cli", "_load_json", "cli._load_json"),
    ("cli", "_emit", "cli._emit"),
)

# Spans whose calls/self/total are all reported; the rest report what the list below adds.
TIMED = tuple(name for _, _, name in TARGETS if name not in ("schreier.oracle", "cli._load_json", "cli._emit"))


def _max_bits(values) -> int:
    return max((abs(x).bit_length() for x in values), default=0)


class Recorder:
    """Spans in flat arrays plus the few per-call values the metrics need."""

    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.nested = array("b")  # 1 when an enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self.stack: list = []
        self.open_names: dict = {}
        self.job_id = -1
        self.out_bits: dict = {}
        self.oracle_hits = 0
        self.lattice_keys: set = set()

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        depth = self.open_names.get(nid, 0)
        self.nested.append(1 if depth else 0)
        self.open_names[nid] = depth + 1
        self.stack.append(idx)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int, nid: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()
        self.open_names[nid] -= 1

    def note_bits(self, name: str, bits: int) -> None:
        if bits > self.out_bits.get(name, 0):
            self.out_bits[name] = bits

    def write(self, path) -> None:
        """Spans as gzipped CSV: name,start_s,end_s,parent,job."""
        with gzip.open(path, "wt") as f:
            f.write("name,start_s,end_s,parent,job\n")
            names = self.names
            for i in range(len(self.start)):
                f.write(f"{names[self.name[i]]},{self.start[i]:.9f},{self.end[i]:.9f},"
                        f"{self.parent[i]},{self.job[i]}\n")

    # -- derived metrics ---------------------------------------------------

    def per_name(self) -> dict:
        """calls, self_s, total_s per span name; total counts outermost spans only."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        stats = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            s = stats[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            s[0] += 1
            s[1] += dur - child[i]
            if not self.nested[i]:
                s[2] += dur
        return stats

    def children_per_call(self, parent_name: str, child_name: str) -> float:
        pid, cid = self.name_ids.get(parent_name), self.name_ids.get(child_name)
        if pid is None or cid is None:
            return 0.0
        calls = sum(1 for x in self.name if x == pid)
        kids = sum(1 for i, x in enumerate(self.name) if x == cid and self.parent[i] >= 0
                   and self.name[self.parent[i]] == pid)
        return kids / calls if calls else 0.0


def _find_modules():
    return [m for name, m in sys.modules.items() if name == "afkit" or name.startswith("afkit.")]


class Tracing:
    """Context manager that installs the wrappers and restores the originals on exit."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self.undo: list = []

    def _wrapper(self, name, fn):
        rec = self.rec
        nid = rec.name_id(name)

        if name == "abelian.smith_normal_form":
            def post(out, args):
                rec.note_bits(name, _max_bits(x for m in out for x in m.entries))
        elif name == "abelian.hermite_row_basis":
            def post(out, args):
                rec.note_bits(name, _max_bits(x for row in out for x in row))
        elif name == "schreier.oracle":
            def post(out, args):
                rec.oracle_hits += bool(out)
        elif name == "eplag.membership":
            def post(out, args):
                bound = args[2] if len(args) > 2 else out.bound
                # one CLI job parses one graph object, so (job, graph, bound) names a lattice
                rec.lattice_keys.add((rec.job_id, id(args[0]), bound))
        else:
            post = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(idx, nid)
            if post is not None:
                post(out, args)
            return out

        return wrapper

    def __enter__(self):
        for layer, attr, name in TARGETS:
            module = importlib.import_module(f"afkit.{layer}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrapper(name, original))
                self.undo.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrapper(name, original)
            for mod in _find_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self.undo.append((mod, key, original))
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self.undo):
            setattr(owner, key, original)
        self.undo.clear()
        return False


# Per-layer metric names, units and direction, in print order.
def per_layer_spec() -> list:
    spec = []
    for name in TIMED:
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower"),
                 (f"{name}.total_s", "s", "lower")]
        if name in ("abelian.smith_normal_form", "abelian.hermite_row_basis"):
            spec.append((f"{name}.out_bits_max", "bit", "lower"))
        if name == "limits.saturate_preimages":
            spec.append((f"{name}.iterations", "1/call", "lower"))
        if name == "rordam.rordam_verify":
            spec.append((f"{name}.saturate_calls", "1/call", "lower"))
    spec += [
        ("eplag.lattice_reuse", "ratio", "higher"),
        ("schreier.oracle.calls", "count", "lower"),
        ("schreier.oracle.hit_ratio", "ratio", "higher"),
        ("cli._load_json.self_s", "s", "lower"),
        ("cli._emit.self_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ]
    return spec


def per_layer_metrics(rec: Recorder, overhead: float) -> dict:
    stats = rec.per_name()
    values = {}
    for name in TIMED:
        calls, self_s, total_s = stats.get(name, (0, 0.0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
        values[f"{name}.total_s"] = total_s
        if name in ("abelian.smith_normal_form", "abelian.hermite_row_basis"):
            values[f"{name}.out_bits_max"] = rec.out_bits.get(name, 0)
    values["limits.saturate_preimages.iterations"] = rec.children_per_call(
        "limits.saturate_preimages", "abelian.preimage_lattice_rows")
    values["rordam.rordam_verify.saturate_calls"] = rec.children_per_call(
        "rordam.rordam_verify", "limits.saturate_preimages")
    builds = sum(1 for i, x in enumerate(rec.name)
                 if rec.names[x] == "abelian.solve_row_combination" and rec.parent[i] >= 0
                 and rec.names[rec.name[rec.parent[i]]] == "eplag.membership")
    values["eplag.lattice_reuse"] = len(rec.lattice_keys) / builds if builds else 0.0
    oracle_calls = stats.get("schreier.oracle", (0,))[0]
    values["schreier.oracle.calls"] = oracle_calls
    values["schreier.oracle.hit_ratio"] = rec.oracle_hits / oracle_calls if oracle_calls else 0.0
    values["cli._load_json.self_s"] = stats.get("cli._load_json", (0, 0.0))[1]
    values["cli._emit.self_s"] = stats.get("cli._emit", (0, 0.0))[1]
    values["trace.spans"] = len(rec.start)
    values["trace.overhead"] = overhead
    return values
