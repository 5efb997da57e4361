"""Span tracer that wraps fecam's public functions from outside the package.

Every public function of the six layer modules is replaced, in each fecam
module that looks it up by name, by a wrapper that records a span: name,
start, end, parent span and invocation id. Spans stay in memory until the run
ends. A span's self time is its duration minus the time covered by its child
spans, so the self times of one invocation add up to the duration of its root
span (``cli.main``).

cli's command handlers and ``build_parser`` are not wrapped: they are the
command-line glue and count toward ``cli.main``'s self time.
"""

from __future__ import annotations

import functools
import json
import time

LAYERS = ("cli", "data", "spectral", "attention", "nncore", "forecaster")


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` patch and restore."""

    def __init__(self, modules: dict):
        # modules maps a layer name ("cli", "data", ...) to the imported module.
        self.modules = modules
        self.spans: list[list] = []  # [name, start, end, parent index, invocation]
        self.counts: list[dict] = []  # per invocation: extra counters from results
        self._stack: list[int] = []
        self._invocation = -1
        self._saved: list[tuple] = []

    def begin_invocation(self) -> int:
        self._invocation += 1
        self.counts.append({})
        return self._invocation

    def _count(self, key: str, amount: float) -> None:
        counts = self.counts[self._invocation]
        counts[key] = counts.get(key, 0) + amount

    def _wrap(self, span_name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = _OBSERVERS.get(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([span_name, clock(), 0.0, stack[-1] if stack else -1,
                          self._invocation])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if observe is not None:
                for key, amount in observe(result).items():
                    self._count(f"{span_name}.{key}", amount)
            return result

        return wrapper

    def install(self) -> None:
        targets = {}
        for layer in LAYERS:
            module = self.modules[layer]
            for name, fn in _public_functions(module):
                if layer == "cli" and name != "main":
                    continue
                targets[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for module in self.modules.values():
            for name, obj in list(vars(module).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    self._saved.append((module, name, obj))
                    setattr(module, name, targets[id(obj)][1])

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._saved):
            setattr(module, name, obj)
        self._saved.clear()

    def self_times(self) -> tuple[list[dict], list[float]]:
        """Per invocation: {span name: [self seconds, calls]}, and root span time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_inv = [dict() for _ in self.counts]
        roots = [0.0] * len(self.counts)
        for i, (name, start, end, parent, inv) in enumerate(self.spans):
            entry = per_inv[inv].setdefault(name, [0.0, 0])
            entry[0] += (end - start) - child[i]
            entry[1] += 1
            if parent < 0:
                roots[inv] += end - start
        return per_inv, roots

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, inv in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "invocation": inv}) + "\n")


def _owned_bytes(dataset) -> dict:
    owned = sum(a.nbytes for a in (dataset.inputs, dataset.targets) if a.flags.owndata)
    return {"owned_bytes": owned}


_OBSERVERS = {
    "data.load_csv": lambda series: {"rows": series.length},
    "data.make_windows": _owned_bytes,
}
