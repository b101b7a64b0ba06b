"""Outside-in layer trace: wrap fermichain's public functions from the benchmark.

Infrequent calls (config, basis, assembly, S^2, observable binding, the
trajectory loop, reductions, CSV writes) become spans with a start, an end
and a parent.  Frequent calls (matvec, propagator ``advance``, per-sample
observable callables) only add to a call count and to the self time of the
span they run in, which keeps the tracer light.  Spans stay in memory and are
written out once, after the run.

A layer's self time is the time it was the innermost open call.  Where
threads overlap (the sweep workload runs two), every instant is split evenly
between the leaves of the open-span tree, so the self times of all layers add
up to the traced wall time; ``trace.other_s`` is the part no wrapped layer
covers (CLI and scenario glue).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict

import numpy as np

from fermichain import cli, evolution, observables, scenarios
from fermichain.hamiltonian import SparseHamiltonian

clock = time.perf_counter

# (module, public name, layer); a name that another module imported is
# patched where the caller looks it up
SPANS = [
    (scenarios, "resolve_config", "scenarios.config"),
    (cli, "resolve_config", "scenarios.config"),
    (scenarios, "product_basis", "basis"),
    (scenarios, "build_hamiltonian", "hamiltonian"),
    (observables, "total_spin_squared", "hamiltonian.s2"),
    (scenarios, "observable_functions", "observables.bind"),
    (scenarios, "evolve_trajectory", "evolution.loop"),
    (scenarios, "time_average", "scenarios.reduce"),
    (scenarios, "trap_time", "scenarios.reduce"),
    (scenarios, "write_rows_csv", "scenarios.write"),
]
PROPAGATORS = (evolution.DensePropagator, evolution.KrylovPropagator, evolution.TaylorPropagator)


class Span:
    __slots__ = ("id", "layer", "thread", "parent", "start", "end", "covered", "agg")

    def __init__(self, id, layer, thread, parent, start):
        self.id, self.layer, self.thread, self.parent = id, layer, thread, parent
        self.start, self.end = start, None
        self.covered = 0.0  # time of directly nested spans in the same thread
        self.agg = defaultdict(float)  # layer -> self time of frequent calls inside


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []  # frames: [layer, start, child_s, enclosing span]
        self.counts = defaultdict(int)
        self.last_state = None  # latest propagator output, for end-of-run drift


class Tracer:
    """Installs the wrappers, collects spans and counters, and reports layers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.root: Span | None = None
        self._tls = _ThreadState()
        self._all_counts = []
        self._lock = threading.Lock()
        self._saved = []
        self.drift = {"norm": 0.0, "energy": 0.0}
        self.simulated_t = 0.0
        self.write_bytes = 0
        self.nnz = []

    # -- per-thread state -------------------------------------------------

    def _state(self):
        tls = self._tls
        if not hasattr(tls, "registered"):
            tls.registered = True
            with self._lock:
                self._all_counts.append(tls.counts)
        return tls

    # -- frames -----------------------------------------------------------

    def _push_span(self, layer):
        st = self._state()
        enclosing = st.stack[-1][3] if st.stack else self.root
        with self._lock:
            span = Span(len(self.spans), layer, threading.get_ident(),
                        enclosing.id if enclosing else None, clock())
            self.spans.append(span)
        st.stack.append([layer, span.start, 0.0, span])
        return st, span

    def _pop_span(self, st, span):
        span.end = clock()
        st.stack.pop()
        duration = span.end - span.start
        if st.stack:
            st.stack[-1][2] += duration
            st.stack[-1][3].covered += duration

    def span(self, layer, fn):
        def wrapper(*args, **kwargs):
            st, span = self._push_span(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._pop_span(st, span)
        return wrapper

    def frequent(self, layer, fn):
        """Wrap a hot call: count it and fold its self time into the enclosing span."""
        def wrapper(*args, **kwargs):
            st = self._state()
            stack = st.stack
            frame = [layer, clock(), 0.0, stack[-1][3] if stack else self.root]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                st.counts[layer] += 1
                frame[3].agg[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
        return wrapper

    # -- wrappers with extra bookkeeping ----------------------------------

    def _wrap_matvec(self, fn):
        timed = self.frequent("kernels.matvec", fn)

        def matvec(H, x):
            st = self._state()
            st.counts["kernels.matvec_nnz"] += len(H.indices)
            st.counts["kernels.matvec_rows"] += len(H.indptr) - 1
            if st.stack and st.stack[-1][0] == "evolution.advance":
                st.counts["evolution.matvecs"] += 1
            return timed(H, x)
        return matvec

    def _wrap_advance(self, fn):
        timed = self.frequent("evolution.advance", fn)

        def advance(prop, amps, dt):
            out = timed(prop, amps, dt)
            self._tls.last_state = out
            return out
        return advance

    def _wrap_evolve(self, fn, raw_matvec):
        timed = self.span("evolution.loop", fn)

        def evolve_trajectory(H, psi0, times, *args, **kwargs):
            st = self._state()
            st.last_state = None
            traj = timed(H, psi0, times, *args, **kwargs)
            # end-of-run drift of the invariants, outside the layer's span
            if st.last_state is not None:
                a, b = psi0.amplitudes, st.last_state

                def energy(v):
                    return np.vdot(v, raw_matvec(H, v)).real / np.vdot(v, v).real

                with self._lock:
                    self.simulated_t += float(times[-1])
                    self.drift["norm"] = max(self.drift["norm"], abs(np.vdot(b, b).real - np.vdot(a, a).real))
                    self.drift["energy"] = max(self.drift["energy"], abs(energy(b) - energy(a)))
            return traj
        return evolve_trajectory

    def _wrap_bind(self, fn):
        timed = self.span("observables.bind", fn)

        def observable_functions(*args, **kwargs):
            fns = timed(*args, **kwargs)
            return {name: self.frequent("observables", f) for name, f in fns.items()}
        return observable_functions

    def _wrap_hamiltonian(self, fn):
        timed = self.span("hamiltonian", fn)

        def build_hamiltonian(*args, **kwargs):
            H = timed(*args, **kwargs)
            with self._lock:
                self.nnz.append(H.nnz)
            return H
        return build_hamiltonian

    def _wrap_write(self, fn):
        timed = self.span("scenarios.write", fn)

        def write_rows_csv(path, *args, **kwargs):
            timed(path, *args, **kwargs)
            with self._lock:
                self.write_bytes += os.path.getsize(path)
        return write_rows_csv

    # -- install / run / remove -------------------------------------------

    def _patch(self, owner, name, wrapper):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def install(self):
        raw_matvec = SparseHamiltonian.matvec
        special = {
            "evolve_trajectory": lambda f: self._wrap_evolve(f, raw_matvec),
            "observable_functions": self._wrap_bind,
            "build_hamiltonian": self._wrap_hamiltonian,
            "write_rows_csv": self._wrap_write,
        }
        for module, name, layer in SPANS:
            fn = getattr(module, name)
            self._patch(module, name, special[name](fn) if name in special else self.span(layer, fn))
        self._patch(SparseHamiltonian, "matvec", self._wrap_matvec(raw_matvec))
        for cls in PROPAGATORS:
            self._patch(cls, "advance", self._wrap_advance(cls.advance))

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def run(self, fn):
        """Call fn() inside the root span with every wrapper installed."""
        self.install()
        try:
            st, self.root = self._push_span("root")
            try:
                return fn()
            finally:
                self._pop_span(st, self.root)
        finally:
            self.uninstall()

    # -- reporting --------------------------------------------------------

    def _shares(self) -> dict:
        """Wall-clock share of each span: time it was a leaf of the open-span tree,
        split evenly with the other leaves open at the same instant."""
        events = sorted([(s.start, 1, s.id) for s in self.spans] +
                        [(s.end, -1, s.id) for s in self.spans])
        open_children = defaultdict(int)
        is_open = set()
        share = defaultdict(float)
        last = events[0][0]
        for t, kind, sid in events:
            leaves = [s for s in is_open if open_children[s] == 0]
            for s in leaves:
                share[s] += (t - last) / len(leaves)
            last = t
            parent = self.spans[sid].parent
            if kind == 1:
                is_open.add(sid)
                if parent is not None:
                    open_children[parent] += 1
            else:
                is_open.discard(sid)
                if parent is not None:
                    open_children[parent] -= 1
        return share

    def layer_self(self) -> dict:
        """Self time per layer; the values add up to the root span's duration."""
        share = self._shares()
        out = defaultdict(float)
        for s in self.spans:
            exclusive = (s.end - s.start) - s.covered
            if exclusive <= 0:
                continue
            f = share[s.id] / exclusive
            inner = sum(s.agg.values())
            out["trace.other" if s is self.root else s.layer] += f * (exclusive - inner)
            for layer, t in s.agg.items():
                out[layer] += f * t
        return dict(out)

    def counts(self) -> dict:
        total = defaultdict(int)
        for c in self._all_counts:
            for k, v in c.items():
                total[k] += v
        total["basis.calls"] = sum(s.layer == "basis" for s in self.spans)
        total["hamiltonian.calls"] = sum(s.layer == "hamiltonian" for s in self.spans)
        return dict(total)

    def wall(self) -> float:
        return self.root.end - self.root.start

    def dump(self, path):
        t0 = self.root.start
        with open(path, "w") as fh:
            json.dump({
                "spans": [{"id": s.id, "layer": s.layer, "thread": s.thread, "parent": s.parent,
                           "start_s": s.start - t0, "end_s": s.end - t0,
                           "frequent_self_s": dict(s.agg)} for s in self.spans],
                "counts": self.counts(),
            }, fh, indent=1)
