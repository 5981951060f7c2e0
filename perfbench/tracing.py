"""Timing and count shims installed around superhc's public functions.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces each target
function or method, in every ``superhc`` module namespace that binds it, by
a wrapper that records a span (name, start, end, parent id, job id) or bumps
a counter, and :meth:`Tracer.uninstall` puts the originals back.  Spans stay
in memory until :meth:`Tracer.write_spans`.

A layer's time is *self* time: a span's duration minus the part covered by
its child spans.  The layer self times plus ``trace.unattributed_s`` sum to
the traced wall time.

Targets that a later refactor renames or removes are skipped and their
metrics left out of the report; so are the memo counters when ``UEA`` no
longer keeps its memo in ``_memo``.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from typing import Callable, Dict, List, Optional

# (module, attribute path, span name or None for count-only, hook name)
TARGETS = [
    ("superhc.cli", "main", "cli.main", None),
    ("superhc.catalog", "CatalogEntry.build", "catalog.build", None),
    ("superhc.catalog", "verify_main_theorem", "catalog.verify", None),
    ("superhc.catalog", "multiplicativity_check", "catalog.multiplicativity",
     None),
    ("superhc.builders", "matrix_superalgebra", "builders.algebra", None),
    ("superhc.builders", "double_with_flip", "builders.algebra", None),
    ("superhc.rings", "build_rank_one_model", "builders.algebra", None),
    ("superhc.pairs", "restricted_roots", "pairs.roots", None),
    ("superhc.pairs", "choose_positive_system", "pairs.roots", None),
    ("superhc.pairs", "rho", "pairs.roots", None),
    ("superhc.pairs", "even_weyl_group", "pairs.roots", None),
    ("superhc.harish", "IwasawaContext.__init__", "harish.context", None),
    ("superhc.harish", "IwasawaContext.hc_gamma", "harish.gamma", "gamma"),
    ("superhc.harish", "IwasawaContext.gamma_of_sym", "harish.gamma_of_sym",
     None),
    ("superhc.harish", "invariants_up_to_degree", "harish.invariants",
     "invariants"),
    ("superhc.harish", "filtered_subspace", "harish.filtered_subspace", None),
    ("superhc.pbw", "UEA.__init__", None, "uea_init"),
    ("superhc.pbw", "UEA.normal_form_word", None, "straighten"),
    ("superhc.pbw", "UEA.normal_form", "pbw.normal_form", None),
    ("superhc.pbw", "UEA.multiply", "pbw.multiply", "multiply"),
    ("superhc.pbw", "UEA.adjoint_index", "pbw.adjoint", None),
    ("superhc.pbw", "UEA.monomials_up_to", None, "monomials"),
    ("superhc.linalg", "nullspace", "linalg.nullspace", "nullspace"),
    ("superhc.linalg", "solve_membership", "linalg.solve", None),
    ("superhc.rings", "filtered_dimension", "rings.filtered_dimension", None),
    ("superhc.rings", "membership_J", "rings.membership", None),
    ("superhc.rings", "membership_I", "rings.membership", None),
    ("superhc.serialization", "dumps_canonical", "serialization.dump", None),
    ("superhc.serialization", "uea_to_json", "serialization.dump", None),
]

# every span name above, so a layer that ran no code reports 0.0 s
LAYERS = sorted({span for _, _, span, _ in TARGETS if span})

# count metric -> hook that feeds it
COUNTS = {
    "pbw.straighten_calls": "straighten",
    "pbw.memo_hits": "straighten",
    "pbw.memo_entries_max": "uea_init",
    "pbw.multiply_calls": "multiply",
    "pbw.monomials": "monomials",
    "harish.gamma_calls": "gamma",
    "harish.dim_invariants": "invariants",
    "harish.dim_companion": "invariants",
    "linalg.nullspace_calls": "nullspace",
    "linalg.nullspace_cells_max": "nullspace",
}


def memo_size(uea) -> Optional[int]:
    """Entries in a UEA's straightening memo, or None if it keeps none."""
    memo = getattr(uea, "_memo", None)
    return len(memo) if isinstance(memo, dict) else None


class Tracer:
    """Collects spans and counts for one traced section of a run."""

    def __init__(self):
        self._names: Dict[str, int] = {}
        self.spans: List[tuple] = []  # (id, parent, job, name index, t0, t1)
        self._stack: List[list] = []  # open spans: [id, child ns]
        self.self_ns: Dict[str, int] = {name: 0 for name in LAYERS}
        self.counts: Dict[str, int] = {}
        self.job = -1
        self.live_ueas: list = []
        self.memo_readable = True
        self._saved: list = []
        self.installed_hooks: set = set()
        self.t_start = self.t_end = 0

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        for module, path, span, hook in TARGETS:
            owner = sys.modules.get(module)
            if owner is None:
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                continue
            wrapper = self._wrap(orig, span, hook)
            self._replace(owner, attr, orig, wrapper, rebind=not outer)
            if hook:
                self.installed_hooks.add(hook)
        self.t_start = time.perf_counter_ns()

    def _replace(self, owner, attr, orig, wrapper, rebind: bool) -> None:
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, wrapper)
        if not rebind:
            return
        # `from .linalg import nullspace` copies the binding into the
        # importing module; rebind every copy of the same function object
        for name, mod in list(sys.modules.items()):
            if mod is None or mod is owner or not name.startswith("superhc"):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._saved.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        self.t_end = time.perf_counter_ns()
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, orig: Callable, span: Optional[str], hook: Optional[str]):
        after = getattr(self, f"_after_{hook}", None) if hook else None
        if hook == "straighten":
            return self._straighten_wrapper(orig)
        if span is None:
            def counted(*args, **kwargs):
                result = orig(*args, **kwargs)
                after(args, result)
                return result
            return counted

        name_idx = self._names.setdefault(span, len(self._names))
        stack = self._stack
        spans = self.spans
        self_ns = self.self_ns
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            frame = [sid, 0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_ns[span] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans[sid] = (sid, parent, self.job, name_idx, t0, t1)
            if after is not None:
                after(args, result)
            return result
        return traced

    def _straighten_wrapper(self, orig: Callable):
        counts = self.counts
        counts.setdefault("pbw.straighten_calls", 0)
        counts.setdefault("pbw.memo_hits", 0)

        def normal_form_word(uea, word, strategy="leftmost"):
            word = tuple(word)
            counts["pbw.straighten_calls"] += 1
            if strategy == "leftmost" and self.memo_readable:
                memo = getattr(uea, "_memo", None)
                if isinstance(memo, dict):
                    if memo.get(word) is not None:
                        counts["pbw.memo_hits"] += 1
                else:
                    self.memo_readable = False
            return orig(uea, word, strategy)
        return normal_form_word

    def _bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def _max(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def _after_uea_init(self, args, result) -> None:
        self.live_ueas.append(args[0])

    def _after_multiply(self, args, result) -> None:
        self._bump("pbw.multiply_calls")

    def _after_monomials(self, args, result) -> None:
        self._bump("pbw.monomials", len(result))

    def _after_gamma(self, args, result) -> None:
        self._bump("harish.gamma_calls")

    def _after_invariants(self, args, result) -> None:
        self._bump("harish.dim_invariants", len(result.invariants))
        self._bump("harish.dim_companion", len(result.companion))

    def _after_nullspace(self, args, result) -> None:
        self._bump("linalg.nullspace_calls")
        m = args[0]
        self._max("linalg.nullspace_cells_max", m.nrows * m.ncols)

    # -- jobs ----------------------------------------------------------------
    def end_job(self, keep_ueas: bool) -> None:
        """Sample memo sizes; the memo only grows, so this is its peak."""
        for uea in self.live_ueas:
            size = memo_size(uea)
            if size is None:
                self.memo_readable = False
            else:
                self._max("pbw.memo_entries_max", size)
        if not keep_ueas:
            self.live_ueas = []

    # -- results -------------------------------------------------------------
    def metrics(self, idle_s: float = 0.0) -> Dict[str, dict]:
        """Per-layer metrics; idle_s is time inside the traced section that
        belongs to no job (the benchmark's speed calibration)."""
        wall_ns = self.t_end - self.t_start - int(idle_s * 1e9)
        out: Dict[str, dict] = {}
        for layer in LAYERS:
            out[f"{layer}_s"] = _metric(self.self_ns[layer] / 1e9, "s")
        attributed = sum(self.self_ns.values())
        out["trace.unattributed_s"] = _metric((wall_ns - attributed) / 1e9, "s")
        out["trace.wall_s"] = _metric(wall_ns / 1e9, "s")
        out["trace.spans"] = _metric(len(self.spans), "count")
        for key, hook in COUNTS.items():
            if hook not in self.installed_hooks:
                continue
            if key.startswith("pbw.memo_") and not self.memo_readable:
                continue
            out[key] = _metric(self.counts.get(key, 0), "count")
        calls = self.counts.get("pbw.straighten_calls", 0)
        if "pbw.memo_hits" in out:
            ratio = self.counts["pbw.memo_hits"] / calls if calls else 0.0
            out["pbw.memo_hit_ratio"] = _metric(ratio, "ratio")
        return out

    def write_spans(self, path) -> None:
        names = [None] * len(self._names)
        for name, idx in self._names.items():
            names[idx] = name
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "columns": ["id", "parent", "job", "name",
                                   "start_ns", "end_ns"],
                       "origin_ns": self.t_start}, fh)
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}
