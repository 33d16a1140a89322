"""Spans and counters recorded around the package's public functions.

The tracer replaces each function listed in ``LAYERS`` with a wrapper in
every ``embdebias`` module that holds a reference to it, so calls made
through ``from .x import f`` aliases are caught too. A function that no
longer exists raises at install time instead of silently dropping a layer.

Spans are kept in memory as ``[name, start, end, parent]`` with start and
end from ``time.monotonic()``, which on Linux reads the same clock in every
process. A span's self time is its duration minus that of its direct
children.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
import weakref
from collections import Counter

#: (module, function, span name) of every traced layer boundary.
LAYERS = (
    ("embeddings", "load_embeddings", "embeddings.load"),
    ("embeddings", "normalize", "embeddings.normalize"),
    ("embeddings", "save_embeddings", "embeddings.save"),
    ("wordsets", "resolve_words", "wordsets.resolve"),
    ("subspace", "bias_subspace", "subspace.bias_subspace"),
    ("compose", "compose", "compose.compose"),
    ("compose", "validate_hypothesis", "compose.validate_hypothesis"),
    ("debias", "run_plan", "debias.run_plan"),
    ("debias", "hard_debias", "debias.hard_debias"),
    ("evaluate", "mac_for_category", "evaluate.mac"),
    ("evaluate", "paired_t_test", "evaluate.ttest"),
    ("cli", "main", "cli.main"),
)
SPAN_NAMES = tuple(name for _, _, name in LAYERS)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        # debiased sets still alive, and the rows of each already credited as
        # useful (read by a MAC or written to a file)
        self._debiased = weakref.WeakValueDictionary()
        self._credited: dict[int, set] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        hooks = {
            "embeddings.load": self._after_load,
            "embeddings.save": self._after_save,
            "wordsets.resolve": self._after_resolve,
            "debias.run_plan": self._after_run_plan,
            "debias.hard_debias": self._after_hard_debias,
            "evaluate.mac": self._after_mac,
        }
        for module, func, name in LAYERS:
            mod = importlib.import_module(f"embdebias.{module}")
            original = getattr(mod, func, None)
            if original is None:
                raise RuntimeError(f"traced function embdebias.{module}.{func} is gone")
            wrapper = self._wrap(name, original, hooks.get(name))
            for holder in list(sys.modules.values()):
                if not getattr(holder, "__name__", "").startswith("embdebias"):
                    continue
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
                        self._patched.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            i = len(spans)
            spans.append([name, time.monotonic(), 0.0, stack[-1] if stack else -1])
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[i][2] = time.monotonic()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # -- counters ---------------------------------------------------------

    def _after_load(self, args, kwargs, result):
        self.counts["embeddings.load_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _after_save(self, args, kwargs, result):
        self.counts["embeddings.save_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))
        emb = _arg(args, kwargs, 0, "emb")
        self._credit(emb, emb.vocab)

    def _after_resolve(self, args, kwargs, result):
        self.counts["wordsets.words_requested"] += len(_arg(args, kwargs, 0, "words"))

    def _after_run_plan(self, args, kwargs, result):
        self._debiased[id(result)] = result
        self._credited[id(result)] = set()

    def _after_hard_debias(self, args, kwargs, result):
        self.counts["debias.rows_computed"] += len(result)
        self.counts["debias.bytes_computed"] += result.matrix.nbytes

    def _after_mac(self, args, kwargs, result):
        spec, emb = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "emb")
        groups = spec.target_words + spec.attribute_sets
        self._credit(emb, [w for ws in groups for w in ws if w in emb])

    def _credit(self, emb, words):
        """Count rows of a debiased set that reach a reported result."""
        if self._debiased.get(id(emb)) is not emb:
            return
        credited = self._credited[id(emb)]
        fresh = set(words) - credited
        credited |= fresh
        self.counts["debias.useful_rows"] += len(fresh)

    # -- results ----------------------------------------------------------

    def take(self) -> dict:
        """Spans and counts recorded since the last call, then reset."""
        out = {"spans": self.spans[:], "counts": dict(self.counts)}
        self.spans.clear()
        self.counts.clear()
        self._credited = {k: v for k, v in self._credited.items()
                          if k in self._debiased}
        return out


def summarize(spans) -> dict:
    """Per span name: call count, total duration and self time; plus the
    summed duration of the top-level spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
    top = 0.0
    for (name, start, end, parent), children in zip(spans, child_time):
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - children
        if parent < 0:
            top += end - start
    return {"layers": out, "top_level_s": top}
