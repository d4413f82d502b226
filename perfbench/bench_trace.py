"""Per-layer tracing from outside the library.

The traced run wraps public functions of each hilmod module at every
place they are looked up: modules import each other by name (for example
``modgrp.contains_root_of`` and ``classify.has_square_root`` are separate
bindings of one function), so every module attribute and class attribute
bound to the original object is replaced.  Spans are kept in memory and
summarised, and written out, once at the end.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Optional

# (metric prefix, module, attribute path, extra statistic)
#   extra None: span with calls and self_s; "count": call count only;
#   "outcome": span plus found/absent/exhausted counts of the SearchOutcome;
#   "bisections": span plus log2(input width / output width) per call;
#   "involution": span plus the divisions (pairs) and check_sl calls
#   (verified) made inside it.
TARGETS = [
    ("cli.main", "cli", "main", None),
    ("exactnum.refine_root", "exactnum", "refine_root", "bisections"),
    ("exactnum.isolate_real_roots", "exactnum", "isolate_real_roots", None),
    ("exactnum.Poly.mul", "exactnum", "Poly.__mul__", "count"),
    ("exactnum.Poly.divmod", "exactnum", "Poly.divmod", "count"),
    ("numfield.FieldElement.mul", "numfield", "FieldElement.__mul__", None),
    ("numfield.FieldElement.truediv", "numfield", "FieldElement.__truediv__", None),
    ("numfield.FieldElement.inverse", "numfield", "FieldElement.inverse", None),
    ("numfield.FieldElement.embed_sign", "numfield", "FieldElement.embed_sign", None),
    ("numfield.has_square_root", "numfield", "has_square_root", "outcome"),
    ("numfield.contains_root_of", "numfield", "contains_root_of", "outcome"),
    ("numfield.NumberField.init", "numfield", "NumberField.__init__", None),
    ("modgrp.Mat2.mul", "modgrp", "Mat2.__mul__", None),
    ("modgrp.psl_normalize", "modgrp", "psl_normalize", None),
    ("modgrp.check_sl", "modgrp", "check_sl", None),
    ("modgrp.element_order", "modgrp", "element_order", None),
    ("modgrp.torsion_orders", "modgrp", "torsion_orders", None),
    ("classify.classify", "classify", "classify", None),
    ("classify.per_embedding_types", "classify", "per_embedding_types", None),
    ("classify.is_hp", "classify", "is_hp", None),
    ("classify.classification_json", "classify", "classification_json", None),
    ("normalizer.involution_search", "normalizer", "involution_search", "involution"),
    ("normalizer.normalizer_json", "normalizer", "normalizer_json", None),
    ("ktheory.wh_decomposition_psl", "ktheory", "wh_decomposition_psl", None),
    ("ktheory.wh_decomposition_sl", "ktheory", "wh_decomposition_sl", None),
    ("topk.ktop_json", "topk", "ktop_json", None),
]

EXTRA_STATS = {
    "outcome": ("found", "absent", "exhausted"),
    "bisections": ("bisections",),
    "involution": ("pairs", "verified"),
}
BURST = "bench.calibration"  # spans of calibration bursts; not a layer
# spans counted inside an involution_search span
_PAIRS, _VERIFIED = "numfield.FieldElement.truediv", "modgrp.check_sl"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric of the traced run, as (name, unit)."""
    out = []
    for prefix, _, _, extra in TARGETS:
        out.append((f"{prefix}.calls", "count"))
        if extra != "count":
            out.append((f"{prefix}.self_s", "s"))
        out.extend((f"{prefix}.{stat}", "count") for stat in EXTRA_STATS.get(extra, ()))
    return out


def outcome_tag(args, result) -> str:
    if result.value is not None:
        return "found"
    return "exhausted" if getattr(result, "exhausted", False) else "absent"


def bisections_tag(args, result) -> int:
    """Bisection steps of one refine_root call: log2 of input width over
    output width (each step halves the width; an exact hit counts 0)."""
    before, after = args[0].width, result.width
    if before == 0 or after == 0:
        return 0
    ratio = before / after
    return (ratio.numerator // ratio.denominator).bit_length() - 1


_TAGS = {"outcome": outcome_tag, "bisections": bisections_tag}


def hilmod_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "hilmod" or name.startswith("hilmod.")]


def rebind(original, replacement, namespaces) -> int:
    """Point every attribute bound to ``original`` in ``namespaces``
    (modules or classes) at ``replacement``; returns how many."""
    count = 0
    for ns in namespaces:
        for key, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, key, replacement)
                count += 1
    return count


def resolve(module: str, path: str):
    """(original object, namespaces to rebind in), or None when the library
    no longer has the target."""
    mod = sys.modules.get(f"hilmod.{module}")
    if mod is None:
        return None
    if "." not in path:
        orig = getattr(mod, path, None)
        return (orig, hilmod_modules()) if orig is not None else None
    cls_name, attr = path.split(".")
    cls = getattr(mod, cls_name, None)
    orig = vars(cls).get(attr) if cls is not None else None
    return (orig, [cls]) if orig is not None else None


class Tracer:
    """In-memory spans: [name, parent span, query, start, end, tag]."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.stack: list[int] = []
        self.query = -1

    def wrap_span(self, name: str, fn, tag: Optional[Callable] = None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, self.clock

        def wrapper(*args, **kwargs):
            rec = [name_id, stack[-1] if stack else -1, self.query, clock(), 0.0, None]
            spans.append(rec)  # before the push: a burst span may come in between
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if tag is not None:
                rec[5] = tag(args, result)
            return result

        return wrapper

    def burst_span(self, t0: float, t1: float) -> None:
        """Record a calibration burst, which ran on a signal inside the open
        span, as a child span, so its time is not the open span's own."""
        if BURST not in self.names:
            self.names.append(BURST)
        self.spans.append([self.names.index(BURST), self.stack[-1] if self.stack else -1,
                           self.query, t0, t1, None])

    def wrap_count(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> list[str]:
        """Wrap every target the library still has; returns the missing ones."""
        missing = []
        for prefix, module, path, extra in TARGETS:
            found = resolve(module, path)
            if found is None:
                missing.append(prefix)
                continue
            orig, namespaces = found
            if extra == "count":
                wrapper = self.wrap_count(prefix, orig)
            else:
                wrapper = self.wrap_span(prefix, orig, _TAGS.get(extra))
            rebind(orig, wrapper, namespaces)
        return missing

    def self_times(self) -> dict[str, tuple[int, float]]:
        """calls and self time per span name.  Spans of one thread nest, so
        the part of a span covered by its children is the sum of their
        durations."""
        child = [0.0] * len(self.spans)
        for _, parent, _, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list] = {}
        for (name_id, _, _, t0, t1, _), covered in zip(self.spans, child):
            acc = out.setdefault(self.names[name_id], [0, 0.0])
            acc[0] += 1
            acc[1] += (t1 - t0) - covered
        return {name: (calls, self_s) for name, (calls, self_s) in out.items()}

    def metrics(self) -> dict[str, float]:
        """Every name of metric_names(); targets that were not traced read 0."""
        values = {name: 0 for name, _ in metric_names()}
        for name, (calls, self_s) in self.self_times().items():
            if name == BURST:
                continue
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
        for name, calls in self.counts.items():
            values[f"{name}.calls"] = calls
        inside = [-1] * len(self.spans)  # enclosing involution_search span
        involution = "normalizer.involution_search"
        for i, (name_id, parent, _, _, _, tag) in enumerate(self.spans):
            name = self.names[name_id]
            if name == involution:
                inside[i] = i
            elif parent >= 0:
                inside[i] = inside[parent]
            if isinstance(tag, str):
                values[f"{name}.{tag}"] += 1
            elif tag is not None:
                values[f"{name}.bisections"] += tag
            if inside[i] >= 0 and name in (_PAIRS, _VERIFIED):
                values[f"{involution}.{'pairs' if name == _PAIRS else 'verified'}"] += 1
        return values

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, parent, query, start, end, tag."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "counts": self.counts}) + "\n")
            for name_id, parent, query, t0, t1, tag in self.spans:
                fh.write(json.dumps([self.names[name_id], parent, query,
                                     round(t0, 9), round(t1, 9), tag]) + "\n")
