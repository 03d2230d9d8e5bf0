"""Spans around the library's layers, recorded from the benchmark alone.

In a traced run the tracer replaces, for the timed part of each round only,
the module attributes that library code looks up at call time:
``mrarc.kernels.active`` (so the solvers receive a namespace of wrapped
kernels) and every ``solve_*``, ``solve_spd``, ``atomic_norm`` and
``adaptive_sigma`` bound in ``mrarc.classify`` and ``mrarc.solver``.  A span
is named ``<layer>.<function>`` after the module that defines the function.
Spans are aggregated as they close (calls, total time, self time), so memory
does not grow with the number of iterations; self time is a span's duration
minus the time covered by its direct children.
"""

import importlib
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

_WRAPPED_ATTRS = ("solve_spd", "atomic_norm", "adaptive_sigma")


def hq_inner_gflop(m, n, passes, woodbury):
    """Floating-point work of ``passes`` HQ passes, from the dominant terms.

    Each pass forms the residual and the right-hand side (4mn).  The dual
    form then scales X X^T, factors the m x m system and applies X and X^T
    (m^3/3 + 4m^2 + 2mn); the primal form builds X^T W X and factors it
    (2mn^2 + n^3/3 + 2n^2).
    """
    if woodbury:
        per_pass = 6.0 * m * n + m ** 3 / 3.0 + 4.0 * m * m
    else:
        per_pass = 4.0 * m * n + 2.0 * m * n * n + n ** 3 / 3.0 + 2.0 * n * n
    return passes * per_pass * 1e-9


class Tracer:
    def __init__(self):
        self.totals = {}  # span name -> [calls, seconds, self seconds]
        self.hq_passes = 0
        self.hq_gflop = 0.0
        self.admm_solves = 0
        self.admm_iters = 0
        self.admm_converged = 0
        self._stack = []  # child-time accumulator of each open span
        self._kernel_ns = {}

    def call(self, name, fn, *args, **kwargs):
        frame = [0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += dur
            tot = self.totals.setdefault(name, [0, 0.0, 0.0])
            tot[0] += 1
            tot[1] += dur
            tot[2] += dur - frame[0]

    def _wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(args, out)
            return out

        return traced

    def _on_hq_inner(self, args, out):
        m, n = args[0].shape
        passes = int(out[1])
        self.hq_passes += passes
        self.hq_gflop += hq_inner_gflop(m, n, passes, bool(args[10]))

    def _on_solve(self, args, out):
        iterations = getattr(out, "iterations", None)
        if iterations is None:  # closed-form solves return a bare vector
            return
        self.admm_solves += 1
        self.admm_iters += int(iterations)
        self.admm_converged += int(bool(out.converged))

    def _kernels(self, impl):
        ns = self._kernel_ns.get(id(impl))
        if ns is None:
            wrapped = {}
            for key, fn in vars(impl).items():
                if callable(fn):
                    hook = self._on_hq_inner if key == "hq_inner" else None
                    wrapped[key] = self._wrap(f"kernels.{key}", fn, hook)
                else:
                    wrapped[key] = fn
            ns = SimpleNamespace(**wrapped)
            self._kernel_ns[id(impl)] = ns
        return ns

    @contextmanager
    def patched(self):
        """Route the library's layer calls through spans while the block runs."""
        kern = importlib.import_module("mrarc.kernels")
        saved = []

        def swap(mod, attr, new):
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, new)

        real_active = kern.active
        swap(kern, "active", lambda: self._kernels(real_active()))
        for modname in ("mrarc.classify", "mrarc.solver"):
            mod = importlib.import_module(modname)
            for attr, fn in list(vars(mod).items()):
                if not callable(fn) or not (attr.startswith("solve_") or attr in _WRAPPED_ATTRS):
                    continue
                if getattr(fn, "__module__", "").split(".")[0] != "mrarc":
                    continue
                layer = fn.__module__.split(".")[-1]
                hook = self._on_solve if layer == "solver" else None
                swap(mod, attr, self._wrap(f"{layer}.{fn.__name__}", fn, hook))
        try:
            yield
        finally:
            for mod, attr, old in reversed(saved):
                setattr(mod, attr, old)

    def span_totals(self, prefix):
        """(calls, seconds, self seconds) summed over spans whose name starts with prefix."""
        calls = secs = own = 0.0
        for name, (c, s, o) in self.totals.items():
            if name.startswith(prefix):
                calls += c
                secs += s
                own += o
        return calls, secs, own
