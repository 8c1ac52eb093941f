"""Span tracing of the coprox layers, installed from outside the library.

``Tracer.install()`` replaces every public function of the layer modules
(and the few methods listed below) with a wrapper that records a span:
bucket, start, end and parent span.  The replacement is made in every
``coprox`` module namespace that binds the function, so calls through
``from .x import f`` bindings are seen too; ``uninstall()`` restores the
originals.  Spans stay in memory as flat arrays; ``self_times()`` turns
them into per-bucket self time (a span's duration minus the time its
child spans cover) next to the counts gathered by the wrappers.

Work done inside forked pool workers is not traced; it shows as the
parent's wait inside ``cocycle.batch`` plus ``cocycle.worker_cpu_s``.
"""

from __future__ import annotations

import functools
import inspect
import multiprocessing.pool
import resource
import sys
import time
from array import array

import numpy as np

LAYERS = ("sft", "cocycle", "matnum", "proximal", "typicality", "synthesis",
          "analysis", "thermo")

# Functions with a bucket of their own.  Every other public function of a
# layer module lands in its layer's default bucket, "<layer>.self" unless
# DEFAULT_BUCKET says otherwise.  Methods are named "layer.Class.method".
BUCKET_OF = {
    **dict.fromkeys(("sft.enumerate_words", "sft.enumerate_periodic",
                     "sft.count_words"), "sft.enumerate"),
    **dict.fromkeys(("sft.PointSpec.coords", "sft.PointSpec.shift",
                     "sft.PointSpec.reach", "sft.bracket", "sft.in_local_stable",
                     "sft.in_local_unstable", "sft.stable_shift",
                     "sft.unstable_shift", "sft.point_from_word", "sft.same_point",
                     "sft.dist", "sft.is_fixed_point", "sft.reverse_point",
                     "sft.periodic_point", "sft.fixed_point",
                     "sft.homoclinic_point", "sft.shift", "sft.coord"), "sft.point"),
    **dict.fromkeys(("cocycle.batch_log_singular", "cocycle.batch_products"),
                    "cocycle.batch"),
    **dict.fromkeys(("cocycle.product", "cocycle.product_scaled",
                     "cocycle.orbit_mu_vec", "cocycle.orbit_chi_vec"), "cocycle.orbit"),
    **dict.fromkeys(("cocycle.holonomy_s", "cocycle.holonomy_u",
                     "cocycle.global_holonomy_s", "cocycle.global_holonomy_u",
                     "cocycle.holonomy_loop", "cocycle.rectangle",
                     "cocycle.distortion_residual"), "cocycle.holonomy"),
    **dict.fromkeys(("synthesis.exterior_family_context",
                     "synthesis.build_family_context"), "synthesis.context"),
    **dict.fromkeys(("synthesis.path_matrix", "matnum.ams_hyperplane"),
                    "synthesis.g_path"),
    "synthesis.transversal_path": "synthesis.transversal",
    "synthesis.turn_direction": "synthesis.turn",
    "analysis.periodic_spectrum": "analysis.spectrum",
    "analysis.gap_profile": "analysis.gap",
    "thermo.log_phi_s": "thermo.potential",
}
DEFAULT_BUCKET = {"proximal": "proximal.witness"}
METHODS = ("sft.PointSpec.coords", "sft.PointSpec.shift", "sft.PointSpec.reach")

# Called too often for a span each (coord) or bookkeeping whose time belongs
# to the caller (exterior_cocycle): counted, not timed.
COUNT_ONLY = {
    "sft.PointSpec.coord": "sft.coord_calls",
    "cocycle.exterior_cocycle": "cocycle.exterior_builds",
}

SELF_TIME_METRICS = (
    "sft.enumerate", "sft.point", "sft.self",
    "cocycle.batch", "cocycle.orbit", "cocycle.holonomy", "cocycle.self",
    "matnum.self", "proximal.witness", "typicality.self",
    "synthesis.context", "synthesis.g_path", "synthesis.transversal",
    "synthesis.turn", "synthesis.self",
    "analysis.spectrum", "analysis.gap", "analysis.self",
    "thermo.potential", "thermo.self",
)

COUNT_METRICS = (
    "sft.words_enumerated", "sft.cycles_enumerated", "sft.coord_calls",
    "cocycle.batch_words", "cocycle.pool_starts", "cocycle.orbit_steps",
    "cocycle.exterior_builds", "matnum.exterior_power_calls",
    "proximal.witness_calls", "typicality.frames_built",
    "thermo.potential_calls",
)


def self_metric_name(bucket: str) -> str:
    """'sft.point' -> 'sft.point_self_s'; 'matnum.self' -> 'matnum.self_s'."""
    return bucket + "_s" if bucket.endswith(".self") else bucket + "_self_s"


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


class Tracer:
    """In-memory span recorder for one traced section of a run."""

    def __init__(self):
        self.buckets: list[str] = []
        self.bucket_ids: dict[str, int] = {}
        self.span_bucket = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.witness_passes = 0
        self.spectrum_orbits = 0
        self.spectrum_cycles = 0
        self._patches: list[tuple[object, str, object]] = []
        self._children_cpu0 = 0.0
        self.worker_cpu_s = 0.0
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------

    def _bucket_id(self, bucket: str) -> int:
        if bucket not in self.bucket_ids:
            self.bucket_ids[bucket] = len(self.buckets)
            self.buckets.append(bucket)
        return self.bucket_ids[bucket]

    def _span_wrapper(self, fn, bucket: str, after=None):
        bid = self._bucket_id(bucket)
        parents, kinds = self.span_parent, self.span_bucket
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            parents.append(stack[-1])
            kinds.append(bid)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(out, args, kwargs)
            return out

        return traced

    def _count_wrapper(self, fn, metric: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return counted

    def _inside(self, bucket: str) -> bool:
        parent = self.stack[-1]
        return parent >= 0 and self.span_bucket[parent] == self.bucket_ids.get(bucket, -2)

    def _after_hooks(self):
        c = self.counts

        def add(metric, amount):
            c[metric] += amount

        def orbit_steps(out, args, kwargs):
            # steps asked for by callers; nested ladder rungs are not recounted
            if not self._inside("cocycle.orbit"):
                add("cocycle.orbit_steps", abs(kwargs.get("n", args[2] if len(args) > 2 else 0)))

        def witness(out, args, kwargs):
            add("proximal.witness_calls", 1)
            self.witness_passes += bool(out.verdict)

        def spectrum(out, args, kwargs):
            self.spectrum_orbits += len(out)

        def enumerate_periodic(out, args, kwargs):
            add("sft.cycles_enumerated", len(out))
            self.spectrum_cycles += len(out) if self._inside("analysis.spectrum") else 0

        return {
            "sft.enumerate_words": lambda out, a, k: add("sft.words_enumerated", len(out)),
            "sft.enumerate_periodic": enumerate_periodic,
            "cocycle.batch_log_singular": lambda out, a, k: add("cocycle.batch_words", len(out)),
            "cocycle.batch_products": lambda out, a, k: add("cocycle.batch_words", len(out[0])),
            "cocycle.product": orbit_steps,
            "cocycle.product_scaled": orbit_steps,
            "cocycle.orbit_mu_vec": orbit_steps,
            "cocycle.orbit_chi_vec": orbit_steps,
            "matnum.exterior_power": lambda out, a, k: add("matnum.exterior_power_calls", 1),
            "proximal.eps_proximal_witness": witness,
            "typicality.eigen_frame": lambda out, a, k: add("typicality.frames_built", 1),
            "analysis.periodic_spectrum": spectrum,
            "thermo.log_phi_s": lambda out, a, k: add("thermo.potential_calls", 1),
        }

    # -- installation ----------------------------------------------------

    def _targets(self):
        """(owner, attribute, original, wrapper) for every function and
        method to replace; names a later version of the library dropped
        are listed in ``missing``."""
        hooks = self._after_hooks()
        mods = {layer: sys.modules[f"coprox.{layer}"] for layer in LAYERS}
        out = []
        for layer, mod in mods.items():
            default = DEFAULT_BUCKET.get(layer, f"{layer}.self")
            for name, fn in _public_functions(mod):
                qual = f"{layer}.{name}"
                if qual in COUNT_ONLY:
                    wrapper = self._count_wrapper(fn, COUNT_ONLY[qual])
                else:
                    wrapper = self._span_wrapper(fn, BUCKET_OF.get(qual, default),
                                                 hooks.get(qual))
                out.append((mod, name, fn, wrapper))
        for qual in METHODS + tuple(q for q in COUNT_ONLY if q.count(".") == 2):
            layer, cls, attr = qual.split(".")
            owner = getattr(mods[layer], cls, None)
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:
                self.missing.append(qual)
                continue
            wrapper = (self._count_wrapper(fn, COUNT_ONLY[qual]) if qual in COUNT_ONLY
                       else self._span_wrapper(fn, BUCKET_OF[qual]))
            out.append((owner, attr, fn, wrapper))
        return out

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        targets = self._targets()
        by_id = {id(fn): wrapper for _, _, fn, wrapper in targets}
        namespaces = [m for name, m in sys.modules.items()
                      if name == "coprox" or name.startswith("coprox.")]
        for owner, attr, fn, wrapper in targets:
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._patch(mod, attr, wrapper)
        pool_init = multiprocessing.pool.Pool.__init__
        counts = self.counts

        @functools.wraps(pool_init)
        def counted_pool_init(pool_self, *args, **kwargs):
            counts["cocycle.pool_starts"] += 1
            return pool_init(pool_self, *args, **kwargs)

        self._patch(multiprocessing.pool.Pool, "__init__", counted_pool_init)
        self._children_cpu0 = _children_cpu()

    def uninstall(self):
        self.worker_cpu_s += _children_cpu() - self._children_cpu0
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per bucket, over every recorded span."""
        n = len(self.span_start)
        out = {b: 0.0 for b in SELF_TIME_METRICS}
        if n == 0:
            return out
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        bucket = np.frombuffer(self.span_bucket, dtype=np.int32)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        per_bucket = np.bincount(bucket, weights=dur - child, minlength=len(self.buckets))
        for name, total in zip(self.buckets, per_bucket):
            out[name] = out.get(name, 0.0) + float(total)
        return out

    @property
    def span_count(self) -> int:
        return len(self.span_start)


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime
