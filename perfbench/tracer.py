"""In-memory span tracer that wraps jumpsqueeze's public functions from
outside the package.

Each wrapped function is rebound on its defining module and on every
jumpsqueeze module that imported it by name, so nested calls such as
``apply_unitary -> validate_unitary`` or ``figures ->
weighted_distribution`` are seen.  A span is ``(name, start, end,
parent, key)``; ``key`` carries the Fock dimension for operator builds
and the figure id for ``generate``.  Matrix-element calls are too many
to keep one span each, so they are aggregated (count, time, nonzero
results) onto the enclosing span.
"""

import inspect
import json
import sys

from time import perf_counter

# (module, function) pairs recorded as spans
SPANNED = {
    "config": ("load_config",),
    "figures": ("generate", "emit_csv"),
    "protocol": ("run_symplectic", "run_fock", "implied_state"),
    "fock": ("squeeze_operator_exact", "displacement_operator_exact",
             "matrix_exponential", "min_squeeze_dim", "min_displacement_dim",
             "free_evolution_operator", "validate_unitary",
             "validate_density", "number_distribution", "apply_unitary"),
    "spectroscopy": ("weighted_distribution", "sideband_populations"),
    "selfcheck": ("check_squeeze_elements", "check_displacement_elements",
                  "check_moments", "check_backend_agreement",
                  "check_mathieu"),
}

# element functions aggregated onto the enclosing span
AGGREGATED = {
    "matrix_elements": {"squeeze_matrix_element_sq": "squeeze",
                        "displacement_matrix_element_sq": "displacement"},
}

# modules whose by-name imports are rebound as well ("__init__" is the
# package namespace itself)
REBIND_MODULES = ("__init__", "cli", "config", "figures", "protocol",
                  "selfcheck", "spectroscopy", "fock", "matrix_elements")

_DIM_KEYED = ("squeeze_operator_exact", "displacement_operator_exact",
              "free_evolution_operator")


class Tracer:
    """Records spans while ``enabled``; ``install`` wraps, ``uninstall``
    restores the original functions."""

    def __init__(self):
        self.enabled = False
        self.names = []      # span name
        self.starts = []
        self.ends = []
        self.parents = []    # index of the parent span, or -1
        self.keys = []       # dim / figure id / matrix dim, or None
        self.agg = {}        # span index -> {element: [calls, s, nonzero]}
        self._stack = []
        self._saved = []

    # -- recording -------------------------------------------------------
    def open_span(self, name, key=None):
        if not self.enabled:
            return -1
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(perf_counter())
        self.ends.append(None)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.keys.append(key)
        self._stack.append(idx)
        return idx

    def close_span(self, idx):
        if idx < 0:
            return
        self.ends[idx] = perf_counter()
        # unwind to this span even if an inner wrapper was skipped
        while self._stack and self._stack.pop() != idx:
            pass

    def _span_wrapper(self, qualname, fn):
        key_of = _key_function(fn, qualname)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open_span(qualname, key_of(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close_span(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def _element_wrapper(self, label, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            value = fn(*args, **kwargs)
            dt = perf_counter() - t0
            parent = tracer._stack[-1] if tracer._stack else -1
            slot = tracer.agg.setdefault(parent, {}).setdefault(
                label, [0, 0.0, 0])
            slot[0] += 1
            slot[1] += dt
            slot[2] += value != 0.0
            return value

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------
    def install(self, package):
        """Wrap the listed functions of ``package`` (the imported
        jumpsqueeze package) and rebind every by-name import of them."""
        modules = {name: _module(package, name) for name in REBIND_MODULES}
        replacements = {}
        for mod_name, fns in SPANNED.items():
            mod = modules[mod_name]
            for fn_name in fns:
                original = getattr(mod, fn_name)
                replacements[id(original)] = (original, self._span_wrapper(
                    f"{mod_name}.{fn_name}", original))
        for mod_name, fns in AGGREGATED.items():
            mod = modules[mod_name]
            for fn_name, label in fns.items():
                original = getattr(mod, fn_name)
                replacements[id(original)] = (
                    original, self._element_wrapper(label, original))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    # -- output ----------------------------------------------------------
    def write(self, path):
        """Write every span as one JSON document."""
        doc = {
            "fields": ["name", "start", "end", "parent", "key"],
            "spans": [list(row) for row in zip(
                self.names, self.starts, self.ends, self.parents,
                self.keys)],
            "aggregated": {str(k): v for k, v in self.agg.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def self_times(self):
        """Per-span duration and self time (duration minus the part
        covered by child spans and aggregated element calls; calls are
        sequential, so children never overlap)."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                covered[p] += dur[i]
        for idx, elems in self.agg.items():
            if idx >= 0:
                covered[idx] += sum(slot[1] for slot in elems.values())
        return dur, [d - c for d, c in zip(dur, covered)]


def _module(package, name):
    if name == "__init__":
        return package
    return sys.modules[f"{package.__name__}.{name}"]


def _key_function(fn, qualname):
    """How to label a span: operator builds by ``dim``, figure tables by
    id, matrix products by the operand's dimension."""
    short = qualname.rsplit(".", 1)[1]
    if short in _DIM_KEYED:
        sig = inspect.signature(fn)

        def dim_key(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return int(bound.arguments["dim"])
        return dim_key
    if short == "generate":
        return lambda args, kwargs: args[0].figure_id
    if short in ("apply_unitary", "validate_unitary"):
        return lambda args, kwargs: len(args[0])
    return lambda args, kwargs: None
