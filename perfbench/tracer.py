"""Run one springerq command with its six modules traced from outside.

    PYTHONPATH=src python3 perfbench/tracer.py stalks --n 4 --format json

Before the command runs, every public function of partitions, qseries,
ic_engine, springer_typec, fano and cli is replaced by a timing wrapper, in
every springerq namespace that holds it (so ``fano.gaussian_binomial`` and
``cli.kostka`` are traced as well as the originals).  Public means: a
module-level function or ``lru_cache`` function whose name has no leading
underscore, a public method of a public class, and the arithmetic operators
of ``LaurentPoly``.  Nothing under ``src/`` is changed.

Time is attributed exclusively: the clock always runs against the innermost
traced call, so a layer's self time is its spans minus the spans of other
layers nested in them.  The command's stdout is left untouched; one line
``PERFBENCH_TRACE <json>`` with the per-layer metrics is written last to
stderr.  The exit code is the command's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("partitions", "qseries", "ic_engine", "springer_typec", "fano", "cli")
OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__")
MARKER = "PERFBENCH_TRACE "

# Groups of traced keys behind the per-layer metrics.
MUL = ("qseries.LaurentPoly.__mul__", "qseries.LaurentPoly.__rmul__")
DIV = ("qseries.LaurentPoly.exact_div",)
ADDSUB = ("qseries.LaurentPoly.__add__", "qseries.LaurentPoly.__sub__",
          "qseries.LaurentPoly.__neg__")
SOLVE = ("ic_engine.solve_stalk_tables",)
CLOSED_FORM = ("ic_engine.closed_form_f", "ic_engine.closed_form_t")
FT_SUPPORT = ("ic_engine.ft_support_info", "ic_engine.ft_support_flag")
ENUM = ("partitions.partitions_of",)
CLASSIFY = ("partitions.has_gaps", "partitions.is_richardson",
            "partitions.is_relevant_full", "partitions.is_relevant_parabolic")
KOSTKA = ("springer_typec.kostka",)
CACHED = ("gaussian_binomial", "og_poincare")


class Tracer:
    """Exclusive time and call counts per traced key, plus work counters."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._key: str | None = None
        self._mark = time.perf_counter()

    def timed(self, key, fn, after=None):
        """Wrap fn; ``after(args, result)`` runs on success, off the clock."""
        self.calls.setdefault(key, 0)
        self.self_s.setdefault(key, 0.0)
        calls, self_s, clock = self.calls, self.self_s, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            now = clock()
            outer = self._key
            if outer is not None:
                self_s[outer] += now - self._mark
            self._key, self._mark = key, now
            calls[key] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                now = clock()
                self_s[key] += now - self._mark
                self._key, self._mark = outer, now
            if after is not None:
                after(args, result)
                self._mark = clock()
            return result

        return wrapper

    def timed_generator(self, key, fn, after):
        """Wrap a generator function so that each next() is one traced call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            step = self.timed(key, fn(*args, **kwargs).__next__, after)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        return wrapper

    def count(self, name: str, k: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + k


def install(tracer: Tracer) -> dict:
    """Wrap the public functions of every layer; return the modules by layer."""
    modules = {layer: importlib.import_module(f"springerq.{layer}") for layer in LAYERS}
    qseries = modules["qseries"]
    poly = qseries.LaurentPoly
    # Work counters read the operands through the unwrapped API.
    support = poly.support

    def span(p):
        return p.max_exp - p.min_exp + 1

    def after_mul(args, result):
        if isinstance(args[1], poly):
            tracer.count("mul_term_products", len(support(args[0])) * len(support(args[1])))

    def after_div(args, result):
        if not result.is_zero:
            tracer.count("div_steps", span(result) * span(args[1]))

    def after_next(args, result):
        tracer.count("enumerated", 1)

    hooks = {
        "qseries.LaurentPoly.__mul__": after_mul,
        "qseries.LaurentPoly.__rmul__": after_mul,
        "qseries.LaurentPoly.exact_div": after_div,
        "springer_typec.kostka": lambda args, result: tracer.count("tableaux_counted", result),
        "fano.fano_multiplicities": lambda args, result: tracer.count("fano_rows", len(result.rows)),
    }

    wrappers: dict[int, tuple[object, object]] = {}
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            key = f"{layer}.{name}"
            if inspect.isclass(obj):
                _wrap_methods(tracer, key, obj, hooks)
            elif inspect.isgeneratorfunction(obj):
                wrappers[id(obj)] = (obj, tracer.timed_generator(key, obj, after_next))
            elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                wrappers[id(obj)] = (obj, tracer.timed(key, obj, hooks.get(key)))

    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "springerq" and not mod_name.startswith("springerq."):
            continue
        for name, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))  # the originals are kept alive, so ids are unique
            if hit is not None:
                setattr(mod, name, hit[1])
    return modules


def _wrap_methods(tracer: Tracer, prefix: str, cls: type, hooks: dict) -> None:
    for name, attr in list(vars(cls).items()):
        if name.startswith("_") and name not in OPERATORS:
            continue
        key = f"{prefix}.{name}"
        if inspect.isfunction(attr):
            setattr(cls, name, tracer.timed(key, attr, hooks.get(key)))
        elif isinstance(attr, (classmethod, staticmethod)):
            setattr(cls, name, type(attr)(tracer.timed(key, attr.__func__, hooks.get(key))))


def _cache_info(qseries) -> dict:
    return {name: getattr(qseries, name).__wrapped__.cache_info() for name in CACHED}


def layer_metrics(tracer: Tracer, before: dict, after: dict) -> dict:
    """The per-layer metrics, named as in BENCHMARK.json (minus the two the
    parent process measures: cli.stdout_bytes and trace.overhead_ratio)."""

    def self_s(keys):
        return sum(tracer.self_s.get(k, 0.0) for k in keys)

    def calls(keys):
        return sum(tracer.calls.get(k, 0) for k in keys)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in tracer.self_s.items()
                                     if k.startswith(layer + "."))
    out.update({
        "qseries.mul_calls": calls(MUL),
        "qseries.mul_term_products": tracer.counts.get("mul_term_products", 0),
        "qseries.mul_self_s": self_s(MUL),
        "qseries.div_calls": calls(DIV),
        "qseries.div_steps": tracer.counts.get("div_steps", 0),
        "qseries.div_self_s": self_s(DIV),
        "qseries.addsub_calls": calls(ADDSUB),
        "qseries.addsub_self_s": self_s(ADDSUB),
        "ic_engine.solve_calls": calls(SOLVE),
        "ic_engine.closed_form_calls": calls(CLOSED_FORM),
        "ic_engine.ft_support_calls": calls(FT_SUPPORT),
        "ic_engine.ft_support_self_s": self_s(FT_SUPPORT),
        "partitions.enumerated": tracer.counts.get("enumerated", 0),
        "partitions.enum_s": self_s(ENUM),
        "partitions.classify_calls": calls(CLASSIFY),
        "springer_typec.kostka_calls": calls(KOSTKA),
        "springer_typec.kostka_s": self_s(KOSTKA),
        "springer_typec.tableaux_counted": tracer.counts.get("tableaux_counted", 0),
        "fano.rows": tracer.counts.get("fano_rows", 0),
    })
    for name in CACHED:
        hits = after[name].hits - before[name].hits
        misses = after[name].misses - before[name].misses
        out[f"qseries.{name}_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out


def main(argv: list[str]) -> int:
    tracer = Tracer()
    modules = install(tracer)
    before = _cache_info(modules["qseries"])
    try:
        code = modules["cli"].main(argv)
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()
    metrics = layer_metrics(tracer, before, _cache_info(modules["qseries"]))
    sys.stderr.write(MARKER + json.dumps(metrics) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
