"""Outside-in tracing of weylkit: spans around public functions, counts at their boundaries.

``Tracer.install()`` replaces each spanned function in every ``weylkit.*``
namespace that holds it, so calls between modules and inside a module are
both seen.  Spans are kept in memory; ``write`` saves them once, at the end
of a run.  The instance counters wrap ``Phase.__init__`` and
``Character.__init__`` and exist only while the tracer is installed.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

from weylkit import dual, phases

SPANNED = {
    "io": ("parse_groupoid_data",),
    "groupoid": ("validate_groupoid", "build_groupoid", "quotient_by_bundle",
                 "subgroupoid_properties", "kernel_of_grading"),
    "cocycle": ("check_cocycle", "check_symmetric_on", "is_maximal_symmetric_abelian"),
    "dual": ("bundle_from_subgroupoid", "dual_bundle"),
    "weyl": ("check_gamma_cartan_hypotheses", "check_immediately_centralizing",
             "weyl_action", "build_weyl_groupoid", "weyl_twist_cocycle",
             "conditional_expectation"),
    "semidirect": ("verify_untwisting", "semidirect_weyl_action"),
    "reconstruct": ("derive_weyl_actions", "verify_action_package", "quotient_HT",
                    "diamond_action", "theta_for_package", "verify_theta",
                    "build_boxtimes", "reconstruction_iso",
                    "verify_reconstruction_hypotheses", "check_imm_centralizing_action"),
    "algebra": ("regular_representation", "total_representation", "wedderburn_blocks",
                "compare_algebras", "commutant_check", "expectation_checks",
                "reduced_norm"),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Sizes seen at a layer boundary: span name -> (counter, f(args, kwargs, result)).
SIZES = {
    "groupoid.validate_groupoid": (
        ("groupoid.arrows_validated", lambda a, k, r: len(_arg(a, k, 1, "arrows"))),
        ("groupoid.pairs_validated", lambda a, k, r: len(_arg(a, k, 2, "compose"))),
    ),
    "cocycle.check_cocycle": (
        ("cocycle.pairs_checked", lambda a, k, r: len(_arg(a, k, 0, "G").compose)),
    ),
    "dual.dual_bundle": (("dual.characters", lambda a, k, r: len(r.by_id)),),
    "weyl.weyl_action": (("weyl.classes", lambda a, k, r: len(r[0].arrows)),),
    "reconstruct.derive_weyl_actions": (
        ("reconstruct.T_elements", lambda a, k, r: len(r.t_elements())),
    ),
    # computed, not measured: |G| complex128 matrices of size |G| x |G|
    "algebra.total_representation": (
        ("algebra.rep_bytes_computed", lambda a, k, r: 16 * len(_arg(a, k, 0, "G")) ** 3),
    ),
}

INSTANCES = {"phases.Phase.instances": phases.Phase, "dual.Character.instances": dual.Character}

# Counters added by the benchmark itself, at the op boundary.
OP_COUNTERS = ("io.document_bytes",)

COUNTERS = tuple(c for hooks in SIZES.values() for c, _ in hooks) + tuple(INSTANCES) + OP_COUNTERS


def span_names() -> list:
    return [f"{m}.{f}" for m, fs in SPANNED.items() for f in fs]


def per_layer_names() -> list:
    """Every per-layer metric a traced run reports, in order."""
    names = []
    for s in span_names():
        names += [f"{s}.self_s", f"{s}.calls"]
    return names + list(COUNTERS) + ["trace.spans", "trace.overhead_frac"]


class Tracer:
    """Records spans ``[name, parent index, start, end]`` per op, plus counts."""

    def __init__(self):
        self.ops = []          # one dict per traced op, see begin_op
        self._stack = []
        self._restore = []

    # -- recording
    def begin_op(self, key: str):
        self._op = {"key": key, "spans": [], "counts": defaultdict(int)}
        self._stack = []
        return self._open("op")

    def end_op(self, span, wall_s: float):
        self._close(span)
        self._op["wall_s"] = wall_s
        self.ops.append(self._op)

    def count(self, name: str, amount: int):
        self._op["counts"][name] += amount

    def _open(self, name):
        spans = self._op["spans"]
        rec = [name, self._stack[-1] if self._stack else None, time.perf_counter(), None]
        self._stack.append(len(spans))
        spans.append(rec)
        return rec

    def _close(self, rec):
        rec[3] = time.perf_counter()
        self._stack.pop()

    # -- installation
    def _spanned(self, name, fn):
        hooks = SIZES.get(name, ())

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            for counter, size in hooks:
                self._op["counts"][counter] += size(args, kwargs, result)
            return result

        return spanned

    def _counted(self, counter, init):
        @functools.wraps(init)
        def counted(obj, *args, **kwargs):
            self._op["counts"][counter] += 1
            init(obj, *args, **kwargs)

        return counted

    def install(self):
        namespaces = [m for n, m in sys.modules.items()
                      if n == "weylkit" or n.startswith("weylkit.")]
        for mod_name, fnames in SPANNED.items():
            home = sys.modules[f"weylkit.{mod_name}"]
            for fname in fnames:
                orig = getattr(home, fname)
                wrapped = self._spanned(f"{mod_name}.{fname}", orig)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is orig:
                            setattr(ns, attr, wrapped)
                            self._restore.append((ns, attr, orig))
        for counter, cls in INSTANCES.items():
            self._restore.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._counted(counter, cls.__init__)

    def uninstall(self):
        for ns, attr, orig in reversed(self._restore):
            setattr(ns, attr, orig)
        self._restore = []

    # -- results
    def write(self, path, **meta):
        with open(path, "w") as fh:
            json.dump({**meta, "ops": self.ops}, fh)


def self_times(spans) -> list:
    """Per-span self time: duration minus the durations of direct children.

    Calls are single-threaded and nested, so children never overlap and the
    sum of their durations is the part of the interval they cover.
    """
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def op_profile(op) -> dict:
    """Self seconds, call counts and counters of one traced op, by metric name."""
    out = defaultdict(float)
    for (name, *_), own in zip(op["spans"], self_times(op["spans"])):
        if name != "op":
            out[f"{name}.self_s"] += own
            out[f"{name}.calls"] += 1
    out.update(op["counts"])
    out["trace.spans"] = len(op["spans"]) - 1
    return out


def layer_metrics(ops) -> dict:
    """Per-layer metrics for the fixed op mix.

    Each op key's median over its repeats, averaged over the keys: a value
    per op of the mix, not weighted by how often an op happened to repeat.
    """
    by_key = defaultdict(list)
    for op in ops:
        by_key[op["key"]].append(op_profile(op))
    names = [n for n in per_layer_names() if n != "trace.overhead_frac"]
    return {
        name: statistics.fmean(
            statistics.median(p.get(name, 0.0) for p in profiles)
            for profiles in by_key.values()
        )
        for name in names
    }
