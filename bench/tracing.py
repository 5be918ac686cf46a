"""Spans around the public functions of the infobounds modules, from outside.

``Tracer.install`` wraps every public function and every public class
constructor of the layer modules.  The wrapper replaces the module
attribute and every copy another ``infobounds`` module bound with
``from .x import y``, so calls across layers (``bounds`` ->
``stat_model.fisher_information``, ``cli`` -> ``mi_oracle.mutual_information``)
become child spans of their caller.  Spans stay in memory until ``dump``.

Self time is a span's duration minus the time its direct children cover.
A name that a later refactor removes simply records no calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("cli", "random_models", "stat_model", "bounds", "numerics", "mi_oracle",
          "quantum_metrology")


def _channel_kind(args, kwargs):
    return args[0] if args else kwargs.get("kind")


def _oracle_bytes(args, kwargs):
    # computed, not measured: one pass over the K x P float64 joint table
    joint = args[0] if args else kwargs["joint"]
    return 8 * joint.conditional.n_outcomes * joint.grid.points


def _mle_trials(args, kwargs):
    n_list = args[1] if len(args) > 1 else kwargs["n_list"]
    trials = args[2] if len(args) > 2 else kwargs["trials"]
    return trials * len(list(n_list))


# span-name suffix from the call's arguments
LABELS = {"quantum_metrology.channel_outcome_model": _channel_kind}
# per-call work size recorded on the span
AMOUNTS = {"mi_oracle.mutual_information": _oracle_bytes,
           "mi_oracle.mle_convergence_study": _mle_trials}


class Tracer:
    def __init__(self):
        self.spans: list = []       # [id, parent id or -1, name, start, end, amount]
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name: str, layer: str, fn):
        label = LABELS.get(name)
        amount = AMOUNTS.get(name)
        spans, stack, calls, errors = self.spans, self._stack, self.calls, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = f"{name}.{label(args, kwargs)}" if label else name
            calls[name] += 1
            sid = len(spans)
            span = [sid, stack[-1] if stack else -1, span_name, 0.0, 0.0,
                    amount(args, kwargs) if amount else 0]
            spans.append(span)
            stack.append(sid)
            span[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                span[4] = time.perf_counter()
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Wrap the layer modules' public callables wherever infobounds binds them."""
        replacements = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"infobounds.{layer}")
            except ImportError:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj):
                    replacements[id(obj)] = self._wrap(name, layer, obj)
                elif (inspect.isclass(obj) and not issubclass(obj, BaseException)
                      and "__init__" in vars(obj)):
                    init = vars(obj)["__init__"]
                    self._restore.append((obj, "__init__", init))
                    setattr(obj, "__init__", self._wrap(name, layer, init))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "infobounds"
                                      or module_name.startswith("infobounds.")):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def state(self) -> dict:
        return {"spans": self.spans, "calls": dict(self.calls), "errors": dict(self.errors)}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.state(), handle)


def merge(states: list[dict]) -> dict:
    """Concatenate the trace states of several processes, renumbering span ids."""
    spans, calls, errors = [], Counter(), Counter()
    for state in states:
        base = len(spans)
        for sid, parent, name, start, end, amount in state["spans"]:
            spans.append([base + sid, base + parent if parent >= 0 else -1,
                          name, start, end, amount])
        calls.update(state["calls"])
        errors.update(state["errors"])
    return {"spans": spans, "calls": dict(calls), "errors": dict(errors)}


def summarize(state: dict) -> dict:
    """Per span name: count, inclusive seconds, self seconds and recorded amount."""
    spans = state["spans"]
    child_time = [0.0] * len(spans)
    for _, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    rows: dict = {}
    for sid, _, name, start, end, amount in spans:
        row = rows.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "amount": 0})
        row["count"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[sid]
        row["amount"] += amount
    return rows
