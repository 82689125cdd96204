"""Spans at the public-function boundaries of pellkit's modules.

The tracer wraps every public function of the layer modules and binds each
wrapper to every `pellkit` module attribute that held the original, because
`cli`, `families` and `classgroup` import functions by name.  Nothing under
`src/` changes.  Functions whose call costs less than a wrapper (LEAVES) stay
unwrapped; their time lands in the caller's self time.

A span is (name, start, end, self seconds, parent index).  Self time is the
span's duration minus the time its child spans cover.  A generator gets one
span from its first to its last `next`, whose self time is the time spent
inside `next`.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "pellkit"
LAYERS = ("cli", "families", "classgroup", "pell", "cfrac", "intkit")
LEAVES = frozenset({"isqrt", "gcd", "rho"})

# Per-layer metrics: name -> (unit, function of the aggregated spans).
# Each is reported per traced op list.
PER_LAYER = {
    "cli.main.calls": ("count", lambda a: a.calls("cli.main")),
    "cli.main.self_s": ("s", lambda a: a.self_s("cli.main")),
    "cli.bytes_out": ("bytes", lambda a: a.counter("cli.bytes_out")),
    "families.verify_member.calls": ("count", lambda a: a.calls("families.verify_member")),
    "families.verify_member.self_s": ("s", lambda a: a.self_s("families.verify_member")),
    "families.reproduce_table.self_s": ("s", lambda a: a.self_s("families.reproduce_table")),
    "families.gen_members.self_s": ("s", lambda a: a.self_s("families.gen_members")),
    "classgroup.class_number.calls": ("count", lambda a: a.calls("classgroup.class_number")),
    "classgroup.class_number.self_s": ("s", lambda a: a.self_s("classgroup.class_number")),
    "classgroup.reduced_forms.self_s": ("s", lambda a: a.self_s("classgroup.reduced_forms")),
    "classgroup.reduced_forms.forms": ("count", lambda a: a.counter("classgroup.reduced_forms.forms")),
    "classgroup.forms_per_s": ("1/s", lambda a: a.ratio("classgroup.reduced_forms.forms",
                                                          "classgroup.reduced_forms")),
    "classgroup.narrow_class_number.self_s": ("s", lambda a: a.self_s("classgroup.narrow_class_number")),
    "pell.solve.convergents.calls": ("count", lambda a: a.calls("pell.solve.convergents")),
    "pell.solve.convergents.self_s": ("s", lambda a: a.self_s("pell.solve.convergents")),
    "pell.solve.convergents.scan": ("count", lambda a: a.counter("pell.solve.convergents.scan")),
    "pell.solve.bounded.calls": ("count", lambda a: a.calls("pell.solve.bounded")),
    "pell.solve.bounded.self_s": ("s", lambda a: a.self_s("pell.solve.bounded")),
    "pell.solve.bounded.scan": ("count", lambda a: a.counter("pell.solve.bounded.scan")),
    "pell.fundamental_unit.calls": ("count", lambda a: a.calls("pell.fundamental_unit")),
    "pell.fundamental_unit.self_s": ("s", lambda a: a.self_s("pell.fundamental_unit")),
    "pell.pell_fundamental.self_s": ("s", lambda a: a.self_s("pell.pell_fundamental")),
    "pell.neg_pell.self_s": ("s", lambda a: a.self_s("pell.neg_pell")),
    "cfrac.cf_sqrt.calls": ("count", lambda a: a.calls("cfrac.cf_sqrt")),
    "cfrac.cf_sqrt.self_s": ("s", lambda a: a.self_s("cfrac.cf_sqrt")),
    "cfrac.pqa_steps": ("count", lambda a: a.counter("cfrac.pqa_steps")),
    "cfrac.convergents.count": ("count", lambda a: a.calls("cfrac.iter_convergents")),
    "cfrac.convergents.self_s": ("s", lambda a: a.self_s("cfrac.iter_convergents")),
    "intkit.factorize.calls": ("count", lambda a: a.calls("intkit.factorize")),
    "intkit.factorize.self_s": ("s", lambda a: a.self_s("intkit.factorize")),
    "intkit.is_prime.calls": ("count", lambda a: a.calls("intkit.is_prime")),
    "intkit.is_prime.self_s": ("s", lambda a: a.self_s("intkit.is_prime")),
    "intkit.squarefree_core.calls": ("count", lambda a: a.calls("intkit.squarefree_core")),
    "intkit.euler_phi.calls": ("count", lambda a: a.calls("intkit.euler_phi")),
}

_SOLVE_METHOD = {"convergents": "pell.solve.convergents", "bounded-search": "pell.solve.bounded"}


class Aggregate:
    """Calls, self time and counters of all spans, divided by `per` (the
    number of traced op lists)."""

    def __init__(self, spans, counters, per: int):
        self._per = per
        self._counters = defaultdict(int, counters)
        self._calls = defaultdict(int)
        self._self = defaultdict(float)
        for name, _start, _end, self_s, _parent, calls in spans:
            self._calls[name] += calls
            self._self[name] += self_s

    def calls(self, name: str) -> float:
        return self._calls[name] / self._per

    def self_s(self, name: str) -> float:
        return self._self[name] / self._per

    def counter(self, name: str) -> float:
        return self._counters[name] / self._per

    def ratio(self, counter: str, span: str) -> float:
        t = self._self[span]
        return self._counters[counter] / t if t else 0.0

    def top(self, n: int) -> list[tuple[str, float]]:
        """The n spans with the most self time per op list."""
        ranked = sorted(self._self.items(), key=lambda kv: -kv[1])[:n]
        return [(name, t / self._per) for name, t in ranked]


class _TimedIterator:
    """Times each `next` of a generator as part of one span."""

    def __init__(self, tracer: "Tracer", name: str, it):
        self._tracer, self._name, self._it = tracer, name, it
        self._span = None

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        t0 = perf_counter()
        try:
            return next(self._it)
        finally:
            t1 = perf_counter()
            if tracer._stack:
                tracer._stack[-1][1] += t1 - t0
            if self._span is None:
                self._span = len(tracer.spans)
                parent = tracer._stack[-1][0] if tracer._stack else -1
                tracer.spans.append([self._name, t0, t1, 0.0, parent, 0])
            span = tracer.spans[self._span]
            span[2] = t1
            span[3] += t1 - t0
            span[5] += 1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, self_s, parent, calls]
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._wrappers = {}           # original function -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_") and attr not in LEAVES):
                    self._wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        self._patched: list[tuple] = []

    def install(self) -> None:
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    setattr(module, attr, self._wrappers[value])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in self._patched:
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                return _TimedIterator(tracer, name, fn(*args, **kwargs))
            return gen_wrapper

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                tracer.spans[index] = [tracer._finish(name, result), t0, t1,
                                       t1 - t0 - frame[1], parent, 1]
        return wrapper

    def _finish(self, name: str, result) -> str:
        """The span's name, after adding the counters its result carries."""
        counters = self.counters
        if name == "pell.solve_pm_N" and result is not None:
            name = _SOLVE_METHOD.get(result.method, f"pell.solve.{result.method}")
            counters[name + ".scan"] += result.scan_length
        elif name == "cfrac.cf_sqrt" and result is not None:
            counters["cfrac.pqa_steps"] += result.period_length + 1
        elif name == "classgroup.reduced_forms" and result is not None:
            counters["classgroup.reduced_forms.forms"] += len(result)
        return name

    def aggregate(self, per: int) -> Aggregate:
        return Aggregate(self.spans, self.counters, per)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
