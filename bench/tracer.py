"""Per-layer tracing of pnhier from outside the package.

A layer is one pnhier module.  ``Tracer.install()`` wraps every public
function a layer defines in a span and patches the wrapper in under every
name that refers to the original, in the defining module and in each
``pnhier.*`` module that did ``from .x import name``.  It also wraps the
verify row runners in ``report.REGISTRY``/``CONTROLS``, the ``System``
methods that build coordinate jets and bivector tables, the flow
right-hand side that ``hamiltonian_flow_rhs`` returns, and counts ``Jet2``
constructions.  ``uninstall()`` puts every original back.

Spans are aggregated as they close, one process and one thread:

* ``calls[name]``: how often the span ran;
* ``incl[name]``: seconds under the span, counting only calls not nested in
  another call of the same name (``lax_eigenvalues`` recurses);
* ``self_s[layer]``: span durations minus the time their child spans cover.

``Jet2`` arithmetic and constructors are methods, not module functions, so
they are not spans: their time counts to the layer that called them.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("jets", "fields", "modular", "hierarchy", "master", "systems",
          "dynamics", "report", "cli")

# jmatpow and the jinv calls made by it or beside it: the work a hierarchy
# cache would remove.  Time under either, outermost call only.
POWERS = "jets.jmatpow_jinv"
SPAN_KEYS = {"jets.jmatpow": ("jets.jmatpow", POWERS),
             "jets.jinv": ("jets.jinv", POWERS)}

SYSTEM_METHODS = {"pi0": "systems.pi", "pi1": "systems.pi",
                  "jets": "systems.jets", "sample": "systems.sample",
                  "domain_ok": "systems.domain_ok"}


class Tracer:
    """Span and counter aggregation for one traced operation at a time."""

    def __init__(self):
        self._stack = []
        self._depth = Counter()
        self._undo = []
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.incl = Counter()
        self.self_s = Counter()
        self.jet2_new = 0
        self.pow_factors = 0
        self.pow_keys = set()

    # ---- spans -------------------------------------------------------------

    def wrap(self, name, fn, keys=None):
        """``fn`` inside a span named ``layer.thing``."""
        layer = name.split(".", 1)[0]
        keys = (name,) if keys is None else keys
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            for k in keys:
                depth[k] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                self.self_s[layer] += dur - child
                self.calls[name] += 1
                for k in keys:
                    depth[k] -= 1
                    if depth[k] == 0:
                        self.incl[k] += dur

        return span

    # ---- patching ----------------------------------------------------------

    def install(self):
        """Patch spans and counters into every loaded pnhier module."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = {layer: importlib.import_module(f"pnhier.{layer}")
                for layer in LAYERS}
        jets, report = mods["jets"], mods["report"]

        swap = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                swap[id(obj)] = (obj, self.wrap(name, self._adapt(name, obj),
                                                SPAN_KEYS.get(name)))

        for name, mod in list(sys.modules.items()):
            if name != "pnhier" and not name.startswith("pnhier."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = swap.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

        self._set(report, "REGISTRY", tuple(
            (name, identity, need, self.wrap(f"report.row.{name}", run))
            for name, identity, need, run in report.REGISTRY))
        self._set(report, "CONTROLS", tuple(
            (name, identity, self.wrap(f"report.row.{name}", run))
            for name, identity, run in report.CONTROLS))

        system_cls = mods["systems"].System
        for attr, name in SYSTEM_METHODS.items():
            self._set(system_cls, attr, self.wrap(name, getattr(system_cls, attr)))

        init = jets.Jet2.__init__

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            self.jet2_new += 1
            init(obj, *args, **kwargs)

        self._set(jets.Jet2, "__init__", counted_init)

    def _adapt(self, name, fn):
        """Counters for jmatpow; a span around each flow right-hand side."""
        if name == "jets.jmatpow":
            @functools.wraps(fn)
            def counted(A, k):
                k = int(k)
                self.pow_factors += abs(k)
                digest = hashlib.blake2b(A.val.tobytes(), digest_size=16).digest()
                self.pow_keys.add((A.val.shape, A.order, digest, k))
                return fn(A, k)
            return counted
        if name == "dynamics.hamiltonian_flow_rhs":
            @functools.wraps(fn)
            def traced_factory(*args, **kwargs):
                return self.wrap("dynamics.rhs", fn(*args, **kwargs))
            return traced_factory
        return fn

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        """Restore every patched name, last patch first."""
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # ---- per-operation metrics -----------------------------------------------

    def snapshot(self, row_names):
        """Counts and times of the operation traced since ``reset()``."""
        calls, incl = self.calls, self.incl
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = sum(c for n, c in calls.items()
                                        if n.startswith(layer + "."))
            out[f"{layer}.self_s"] = self.self_s[layer]
        for fn in ("jinv", "jmatmul", "jstack"):
            out[f"jets.{fn}.calls"] = calls[f"jets.{fn}"]
            out[f"jets.{fn}.s"] = incl[f"jets.{fn}"]
        out["jets.jmatpow.calls"] = calls["jets.jmatpow"]
        out["jets.jmatpow.s"] = incl["jets.jmatpow"]
        out[f"{POWERS}.s"] = incl[POWERS]
        out["jets.jlogabsdet.s"] = incl["jets.jlogabsdet"]
        out["jets.Jet2.new"] = self.jet2_new
        out["jets.jmatpow.factors"] = self.pow_factors
        out["fields.lie_bracket.calls"] = calls["fields.lie_bracket"]
        out["fields.lie_bracket.s"] = incl["fields.lie_bracket"]
        out["fields.lie_der_bivector.s"] = incl["fields.lie_der_bivector"]
        out["fields.schouten_bb.s"] = incl["fields.schouten_bb"]
        out["fields.sharp.calls"] = calls["fields.sharp"]
        out["modular.koszul_d.calls"] = calls["modular.koszul_d"]
        out["modular.koszul_d.s"] = incl["modular.koszul_d"]
        for fn in ("hierarchy_bivector", "hierarchy_hamiltonian"):
            out[f"hierarchy.{fn}.calls"] = calls[f"hierarchy.{fn}"]
        pow_calls = calls["jets.jmatpow"]
        out["hierarchy.power_reuse"] = (len(self.pow_keys) / pow_calls
                                        if pow_calls else 0.0)
        out["master.master_field.calls"] = calls["master.master_field"]
        out["master.master_field.s"] = incl["master.master_field"]
        out["systems.pi.calls"] = calls["systems.pi"]
        out["systems.pi.s"] = incl["systems.pi"]
        rhs_calls = calls["dynamics.rhs"]
        out["dynamics.rhs.calls"] = rhs_calls
        out["dynamics.rhs.us_per_call"] = (1e6 * incl["dynamics.rhs"] / rhs_calls
                                           if rhs_calls else 0.0)
        out["dynamics.hierarchy_monitors.s"] = incl["dynamics.hierarchy_monitors"]
        out["dynamics.lax_eigenvalues.s"] = incl["dynamics.lax_eigenvalues"]
        for row in row_names:
            out[f"report.row.{row}.s"] = incl[f"report.row.{row}"]
        out["report.render_report.s"] = incl["report.render_report"]
        out["report.trajectory_csv.s"] = incl["report.trajectory_csv"]
        return out
