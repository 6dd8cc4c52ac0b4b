"""Per-layer tracing of malcev from outside the library.

`Tracer.install()` rebinds, in every loaded `malcev.*` module, each name that
refers to one of the boundary functions below, so package re-exports,
`from .freegroup import ...` copies and function-local imports all reach the
wrapper.  Only public names are wrapped, so the tracer keeps working when
private helpers are renamed or deleted; a boundary that no longer exists is
reported as absent.

Spans are reduced as they close: for each span name the tracer keeps the call
count and the self time (the span's duration minus the time of the spans it
caused).  Nothing is written until `metrics()` is read at the end of the run.
"""

from __future__ import annotations

import importlib
import sys
import time

# (module, attribute, span name).  "Collector.collect" is a method.
BOUNDARIES = (
    ("freegroup", "coords_mult", "freegroup.mult"),
    ("freegroup", "coords_pow", "freegroup.pow"),
    ("freegroup", "eval_free", "freegroup.eval"),
    ("freegroup", "structure_relations", "freegroup.structure_relations"),
    ("groups", "reduce_coords", "groups.reduce"),
    ("groups", "normal_form", "groups.normal_form"),
    ("extgcd", "extgcd_bounded", "extgcd.bounded"),
    ("extgcd", "extgcd_pair_bounded", "extgcd.pair"),
    ("subgroups", "full_form_rows", "subgroups.full_form"),
    ("subgroups", "membership", "subgroups.membership"),
    ("subgroups", "express_in_original_generators", "subgroups.express"),
    ("subgroups", "subgroup_presentation", "subgroups.subgroup_presentation"),
    ("presentations", "make_quotient_presentation", "presentations.make_quotient"),
    ("presentations", "from_finite_presentation", "presentations.from_finite"),
    ("presentations", "consistency_check", "presentations.consistency"),
    ("collect", "Collector.collect", "collect.collect"),
    ("decisions", "kernel_and_preimage", "decisions.kernel"),
    ("decisions", "centralizer", "decisions.centralizer"),
    ("decisions", "conjugacy", "decisions.conjugacy"),
    ("decisions", "power_problem", "decisions.power"),
    ("decisions", "element_order", "decisions.element_order"),
    ("decisions", "quotient_mod_last", "decisions.quotient_mod_last"),
    ("parsing", "parse_document", "parsing.parse"),
    ("cli", "run", "cli.run"),
)

LAYERS = ("freegroup", "groups", "extgcd", "subgroups", "presentations",
          "collect", "decisions", "parsing", "cli")

# Metrics that are maxima rather than sums when runs are merged.
MAX_KEYS = ("freegroup.coord_bits_max", "extgcd.bounded.len_max",
            "extgcd.bounded.coeff_to_bound_max",
            "subgroups.full_form.entry_bits_max",
            "subgroups.express.word_len_max")

_FIRST_TOUCH = ("freegroup.mult", "freegroup.pow", "freegroup.eval")


def _bits(rows) -> int:
    return max((abs(v).bit_length() for row in rows for v in row), default=0)


class Tracer:
    def __init__(self):
        self.active = False
        self.in_query = False
        self.absent: list[str] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.extra: dict[str, float] = {k: 0 for k in MAX_KEYS}
        self.extra.update({"freegroup.first_touch_s": 0.0,
                           "freegroup.query_self_s": 0.0,
                           "freegroup.mult.repeats": 0,
                           "subgroups.full_form.rows_in": 0,
                           "subgroups.full_form.rows_out": 0,
                           "subgroups.express.cap_failures": 0})
        self.stack: list[float] = []  # child time of each open span
        self._seen_mult: set = set()
        self._touched: set = set()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for mod_name in LAYERS:
            try:
                importlib.import_module("malcev." + mod_name)
            except ImportError:
                pass
        modules = [m for name, m in sys.modules.items()
                   if name == "malcev" or name.startswith("malcev.")]
        for mod_name, attr, span in BOUNDARIES:
            mod = sys.modules.get("malcev." + mod_name)
            owner_name, _, method = attr.partition(".")
            owner = getattr(mod, owner_name, None) if mod else None
            if method:
                fn = getattr(owner, method, None)
                if fn is None:
                    self.absent.append(span)
                    continue
                setattr(owner, method, self._wrap(span, fn))
                continue
            if owner is None:
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, owner)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is owner and not name.startswith("_"):
                        setattr(m, name, wrapper)
        for span in (s for _, _, s in BOUNDARIES if s not in self.absent):
            self.calls[span] = 0
            self.self_s[span] = 0.0

    def _wrap(self, span: str, fn):
        tracer = self
        stack = self.stack
        in_freegroup = span.startswith("freegroup.")
        after = _AFTER.get(span)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = time.perf_counter()
            result = failure = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                failure = exc
                raise
            finally:
                dur = time.perf_counter() - t0
                own = dur - stack.pop()
                if stack:
                    stack[-1] += dur
                tracer.calls[span] += 1
                tracer.self_s[span] += own
                if in_freegroup and tracer.in_query:
                    tracer.extra["freegroup.query_self_s"] += own
                if span in _FIRST_TOUCH and args[0] not in tracer._touched:
                    tracer._touched.add(args[0])
                    tracer.extra["freegroup.first_touch_s"] += dur
                if after is not None:
                    t1 = time.perf_counter()
                    after(tracer, args, result, failure)
                    # Bookkeeping is not the caller's self time.
                    if stack:
                        stack[-1] += time.perf_counter() - t1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- results ------------------------------------------------------------

    def _max(self, key: str, value) -> None:
        if value > self.extra[key]:
            self.extra[key] = value

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span, n in self.calls.items():
            out[span + ".calls"] = n
            out[span + ".self_s"] = self.self_s[span]
        out.update(self.extra)
        return out


def _after_mult(tracer, args, result, failure):
    if failure is None:
        key = (args[0], tuple(args[1]), tuple(args[2]))
        if key in tracer._seen_mult:
            tracer.extra["freegroup.mult.repeats"] += 1
        else:
            tracer._seen_mult.add(key)
        tracer._max("freegroup.coord_bits_max", _bits((result,)))


def _after_coords(tracer, args, result, failure):
    if failure is None:
        tracer._max("freegroup.coord_bits_max", _bits((result,)))


def _after_extgcd(tracer, args, result, failure):
    if failure is not None:
        return
    a = list(args[0])
    tracer._max("extgcd.bounded.len_max", len(a))
    g, x, _ = result
    support = [abs(v) for v in a if v]
    if g and support:
        big_a = max(max(support) // g, 1)
        bound = (len(support) + 1) * big_a * big_a
        tracer._max("extgcd.bounded.coeff_to_bound_max",
                    max(abs(v) for v in x) / bound)


def _after_full_form(tracer, args, result, failure):
    if failure is None:
        tracer.extra["subgroups.full_form.rows_in"] += len(args[1])
        tracer.extra["subgroups.full_form.rows_out"] += len(result[0])
        tracer._max("subgroups.full_form.entry_bits_max", _bits(result[0]))


def _after_express(tracer, args, result, failure):
    if failure is None:
        tracer._max("subgroups.express.word_len_max", len(result))
    elif type(failure).__name__ == "SizeCapExceeded":
        tracer.extra["subgroups.express.cap_failures"] += 1


_AFTER = {
    "freegroup.mult": _after_mult,
    "freegroup.pow": _after_coords,
    "freegroup.eval": _after_coords,
    "extgcd.bounded": _after_extgcd,
    "subgroups.full_form": _after_full_form,
    "subgroups.express": _after_express,
}


def merge(parts: list[dict[str, float]]) -> dict[str, float]:
    """Combine the raw metrics of several traced processes."""
    out: dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            if key in MAX_KEYS:
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def finalize(raw: dict[str, float], query_s: float) -> dict[str, float]:
    """Add the ratios that are only meaningful after merging: the share of
    repeated multiply inputs, and the share of the traced query time
    `query_s` that `freegroup` spends itself."""
    out = dict(raw)
    calls = raw.get("freegroup.mult.calls", 0)
    out["freegroup.mult.repeat_share"] = (
        raw.get("freegroup.mult.repeats", 0) / calls if calls else 0.0)
    out["freegroup.query_share"] = (
        raw.get("freegroup.query_self_s", 0.0) / query_s if query_s else 0.0)
    return out
