"""Wrapper-based per-layer tracing of the yangian package, from outside it.

`Tracer.install()` wraps the public functions listed in LAYERS.  A function
imported with `from .x import f` is a separate binding in every importing
module, so each wrapper is patched into every `yangian.*` namespace that
holds the original object; methods are patched on their class.  The hot
inner helpers of the operator realization (`apply_word`, `apply_atom`) are
deliberately not wrapped: they run tens of millions of times per config.

Each call records a span (function, start, end, parent span, config id) in
flat in-memory arrays, written out by `save()` at the end of the run.
Self time is a span's duration minus the time its child spans cover; the
time the tracer spends on its own work counts go to no span.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from fractions import Fraction
from math import lcm

# layer -> public functions; "Class.method" names a method, where "init"
# and "mul" stand for __init__ and __mul__
LAYERS: dict[str, tuple[str, ...]] = {
    "linalg": ("MatPoly.kron", "MatPoly.mul", "RatMatrix.init",
               "RatMatrix.mul", "RatMatrix.kron", "RatMatrix.rref",
               "RatMatrix.nullspace", "RatMatrix.inverse", "RatMatrix.solve",
               "nullspace", "int_matmul", "poly_rational_roots"),
    "fock": ("block_basis", "FockSpace.operator_matrix",
             "FockSpace.gl_action_matrix"),
    "modules": ("fock_module", "tensor_module", "pattern_module",
                "distinguished_vector"),
    "verify": ("check_rtt", "highest_weight_vectors", "hw_eigenvalues",
               "drinfeld_data", "closed_form_eigenvalues"),
    "intertwine": ("step", "compose_word", "check_hw_image", "hom_space",
                   "hom_intertwiner", "kernel_quotient",
                   "irreducibility_test", "modules_isomorphic"),
    "hd": ("realize", "x_series", "check_e_relations", "check_zeta",
           "check_alpha", "check_x_identities", "alpha_coefficient"),
    "cli": ("config_from_dict", "run"),
}

_DUNDER = {"init": "__init__", "mul": "__mul__"}

# layers whose functions also report their inclusive time: their work sits
# mostly in linalg children, so self time alone does not locate them
INCLUSIVE_LAYERS = ("modules", "verify", "intertwine", "hd")

# work counters, reported next to calls and self time
COUNTERS = (
    "linalg.MatPoly.kron.out_entries",
    "linalg.RatMatrix.mul.mults",
    "linalg.int_matmul.mults",
    "linalg.int_matmul.max_bits",
    "linalg.int_matmul.int64_ratio",
    "linalg.RatMatrix.nullspace.max_cols",
    "linalg.nullspace.max_cols",
    "linalg.poly_rational_roots.max_coeff_bits",
    "modules.tensor_module.max_dim",
    "modules.pattern_module.repeat_ratio",
    "verify.check_rtt.grid_products",
    "verify.check_rtt.max_size",
    "intertwine.hom_space.max_unknowns",
    "intertwine.step.errors",
    "hd.identities_checked",
)

# the int64 bound of yangian.linalg.int_matmul at the seed commit
_INT64_LIMIT = 2 ** 62

_HD_CHECKS = ("hd.check_e_relations", "hd.check_zeta", "hd.check_alpha",
              "hd.check_x_identities")


def function_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def metric_names() -> list[str]:
    """Per-layer metric names in report order (work counters come last)."""
    out = []
    for qual in function_names():
        out += [f"{qual}.calls", f"{qual}.self_s"]
        if qual.split(".")[0] in INCLUSIVE_LAYERS:
            out.append(f"{qual}.total_s")
    return out + list(COUNTERS)


def _max_abs(arr) -> int:
    return max((abs(int(x)) for x in arr.flat), default=0)


class Tracer:
    """Spans and work counts for one traced run; not thread-safe."""

    def __init__(self):
        self.names = function_names()
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        # span arrays: function index, start, end, parent span, config index
        self.fid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.config = array("i")
        self.config_ids: list[str] = []
        self._stack: list[list] = []   # [span index, fid, child seconds]
        self._restore: list[tuple] = []
        self._built: set = set()
        self.counts = {
            "kron_entries": 0, "ratmul_mults": 0, "matmul_mults": 0,
            "matmul_bits": 0, "matmul_calls": 0, "matmul_int64": 0,
            "rm_null_cols": 0, "null_cols": 0, "root_bits": 0,
            "tensor_dim": 0, "pattern_calls": 0, "pattern_repeats": 0,
            "rtt_products": 0, "rtt_size": 0, "hom_unknowns": 0,
            "step_errors": 0, "identities": 0}

    # -- config scoping ---------------------------------------------------

    def begin_config(self, config_id: str) -> None:
        self.config_ids.append(config_id)
        self._built = set()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import yangian.cli  # noqa: F401  (loads every layer)

        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "yangian"
                                         or name.startswith("yangian."))]
        for fid, qual in enumerate(self.names):
            layer, fn = qual.split(".", 1)
            mod = sys.modules[f"yangian.{layer}"]
            if "." in fn:
                cls_name, meth = fn.split(".")
                cls = getattr(mod, cls_name)
                attr = _DUNDER.get(meth, meth)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(fid, qual, original))
                self._restore.append((cls, attr, original))
            else:
                original = getattr(mod, fn)
                wrapper = self._wrap(fid, qual, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._restore.append((m, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fid: int, qual: str, fn):
        count = getattr(self, "_count_" + qual.replace(".", "_"), None)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.fid)
            parent = stack[-1][0] if stack else -1
            self.fid.append(fid)
            self.parent.append(parent)
            self.config.append(len(self.config_ids) - 1)
            self.start.append(0.0)
            self.end.append(0.0)
            frame = [idx, fid, 0.0]
            stack.append(frame)
            result = None
            failed = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                self.calls[fid] += 1
                self.self_s[fid] += (t1 - t0) - frame[2]
                self.total_s[fid] += t1 - t0
                if count is not None:
                    count(args, result, failed)
                if stack:
                    # the counter's own work is charged to no span
                    stack[-1][2] += clock() - t0

        return wrapper

    # -- work counts (args, result, raised) -------------------------------

    def _count_linalg_MatPoly_kron(self, args, res, failed):
        if not failed:
            self.counts["kron_entries"] += (res.shape[0] * res.shape[1]
                                            * len(res.coeffs))

    def _count_linalg_RatMatrix_mul(self, args, res, failed):
        a, b = args
        r, k = a.data.shape
        if type(b) is type(a):
            self.counts["ratmul_mults"] += r * k * b.data.shape[1]
        else:
            self.counts["ratmul_mults"] += r * k

    def _count_linalg_int_matmul(self, args, res, failed):
        a, b = args
        c = self.counts
        c["matmul_calls"] += 1
        if a.size == 0 or b.size == 0:
            return
        c["matmul_mults"] += a.shape[0] * a.shape[1] * b.shape[1]
        ma, mb = _max_abs(a), _max_abs(b)
        c["matmul_bits"] = max(c["matmul_bits"], ma.bit_length(),
                               mb.bit_length())
        if ma and mb and a.shape[1] * ma * mb < _INT64_LIMIT:
            c["matmul_int64"] += 1

    def _count_linalg_RatMatrix_nullspace(self, args, res, failed):
        self.counts["rm_null_cols"] = max(self.counts["rm_null_cols"],
                                          args[0].data.shape[1])

    def _count_linalg_nullspace(self, args, res, failed):
        mat = args[0]
        cols = (mat.data if hasattr(mat, "data") else mat).shape[1]
        self.counts["null_cols"] = max(self.counts["null_cols"], cols)

    def _count_linalg_poly_rational_roots(self, args, res, failed):
        coeffs = [Fraction(c) for c in args[0].coeffs]
        if not coeffs:
            return
        scale = lcm(*(c.denominator for c in coeffs))
        bits = max(abs(int(c * scale)).bit_length() for c in coeffs)
        self.counts["root_bits"] = max(self.counts["root_bits"], bits)

    def _count_modules_tensor_module(self, args, res, failed):
        if not failed:
            self.counts["tensor_dim"] = max(self.counts["tensor_dim"], res.dim)

    def _count_modules_pattern_module(self, args, res, failed):
        params, factors = args[0], args[1]
        key = (params.theta, params.n, tuple(factors))
        self.counts["pattern_calls"] += 1
        if key in self._built:
            self.counts["pattern_repeats"] += 1
        self._built.add(key)

    def _count_verify_check_rtt(self, args, res, failed):
        mod = args[0]
        self.counts["rtt_size"] = max(self.counts["rtt_size"],
                                      mod.n * mod.n * mod.dim)
        if not failed:
            self.counts["rtt_products"] += len(res.points_u) * len(res.points_v)

    def _count_intertwine_hom_space(self, args, res, failed):
        self.counts["hom_unknowns"] = max(self.counts["hom_unknowns"],
                                          args[0].dim * args[1].dim)

    def _count_intertwine_step(self, args, res, failed):
        if failed:
            self.counts["step_errors"] += 1

    def _count_identities(self, res, failed):
        if failed or self._inside(_HD_CHECKS):
            return
        reports = (res.yangian, res.commutant) if hasattr(res, "yangian") else (res,)
        self.counts["identities"] += sum(r.checked for r in reports)

    def _count_hd_check_e_relations(self, args, res, failed):
        self._count_identities(res, failed)

    _count_hd_check_zeta = _count_hd_check_e_relations
    _count_hd_check_alpha = _count_hd_check_e_relations
    _count_hd_check_x_identities = _count_hd_check_e_relations

    def _inside(self, quals) -> bool:
        ids = {self.names.index(q) for q in quals}
        return any(frame[1] in ids for frame in self._stack)

    # -- results ----------------------------------------------------------

    def metrics(self, configs: int) -> dict[str, float]:
        """Per-config calls, seconds and work sums; maxima and ratios."""
        per = 1 / max(configs, 1)
        out: dict[str, float] = {}
        for fid, qual in enumerate(self.names):
            out[f"{qual}.calls"] = self.calls[fid] * per
            out[f"{qual}.self_s"] = self.self_s[fid] * per
            if qual.split(".")[0] in INCLUSIVE_LAYERS:
                out[f"{qual}.total_s"] = self.total_s[fid] * per
        c = self.counts
        values = (
            c["kron_entries"] * per, c["ratmul_mults"] * per,
            c["matmul_mults"] * per, c["matmul_bits"],
            c["matmul_int64"] / c["matmul_calls"] if c["matmul_calls"] else 0.0,
            c["rm_null_cols"], c["null_cols"], c["root_bits"], c["tensor_dim"],
            (c["pattern_repeats"] / c["pattern_calls"]
             if c["pattern_calls"] else 0.0),
            c["rtt_products"] * per, c["rtt_size"], c["hom_unknowns"],
            c["step_errors"] * per, c["identities"] * per)
        out.update(zip(COUNTERS, values))
        return out

    def save(self, path) -> None:
        """Write the spans as flat numpy arrays (function names alongside)."""
        import numpy as np

        np.savez(path,
                 names=np.array(self.names),
                 config_ids=np.array(self.config_ids or [""]),
                 fid=np.frombuffer(self.fid, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 config=np.frombuffer(self.config, dtype=np.int32))
