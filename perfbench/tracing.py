"""Spans around the public functions at each ztwo module boundary.

The modules bind each other's functions with ``from``-imports, so a
wrapper has to replace every name under which a function is looked up:
``install`` swaps each binding of the original function object, in every
ztwo module, for one shared wrapper.  Spans stay in memory until the run
writes them out.

A span is ``[name, start, end, parent, failed, note]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``failed`` is true when the
call raised, and ``note`` is a per-call count (forms enumerated, memo
hit).  A generator gets one span per resumption, so the work it does
between two yields nests under it and the caller's work does not.
"""

from inspect import isgeneratorfunction
from time import perf_counter

import ztwo
from ztwo import arith, classifier, cli, diophantine, qforms, symbols

MODULES = {"cli": cli, "classifier": classifier, "qforms": qforms,
           "diophantine": diophantine, "arith": arith, "symbols": symbols}

TARGETS = (
    "cli.cmd_scan",
    "cli.scan_rows",
    "classifier.classify",
    "classifier.exponent_r_oracle",
    "classifier.exponent_r_corollary",
    "classifier.predict",
    "classifier.iwasawa_invariants",
    "qforms.class_group",
    "qforms.reduced_forms",
    "qforms.form_pow",
    "qforms.class_group_sweep",
    "diophantine.solve_kaplan",
    "diophantine.solve_pell_rep",
    "diophantine.solve_legendre",
    "arith.factor_squarefree",
    "arith.factorize",
    "arith.is_prime",
    "symbols.jacobi",
    "symbols.quartic_residue",
)
STATS = ("calls", "s", "self_s", "failed")
NO_SPANS = {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0, "note": 0, "first_s": 0.0}


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = [-1]

    def wrap(self, name, fn, before=None, after=None):
        """fn with a span per call; before(*args) or after(result) sets the note."""
        spans, stack, clock = self.spans, self.stack, self.clock

        def traced(*args, **kwargs):
            note = before(*args) if before is not None else None
            rec = [name, clock(), 0.0, stack[-1], False, note]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[4] = True
                raise
            finally:
                stack.pop()
                rec[2] = clock()
            if after is not None:
                rec[5] = after(result)
            return result

        return traced

    def wrap_gen(self, name, fn):
        """Generator function fn with a span per resumption."""
        spans, stack, clock = self.spans, self.stack, self.clock

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                rec = [name, clock(), 0.0, stack[-1], False, None]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                except BaseException:
                    rec[4] = True
                    raise
                finally:
                    stack.pop()
                    rec[2] = clock()
                yield item

        return traced


def install(tracer):
    """Wrap every TARGETS function under each name ztwo looks it up by."""
    hooks = {
        "qforms.class_group": {"before": lambda D, *a: _disc(D) in qforms.CLASS_GROUP_MEMO},
        "qforms.reduced_forms": {"after": len},
    }
    for name in TARGETS:
        mod_name, fn_name = name.split(".")
        original = getattr(MODULES[mod_name], fn_name)
        if isgeneratorfunction(original):
            wrapper = tracer.wrap_gen(name, original)
        else:
            wrapper = tracer.wrap(name, original, **hooks.get(name, {}))
        for module in (ztwo, *MODULES.values()):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def _disc(D):
    return D.D if hasattr(D, "D") else int(D)


def layer_totals(spans):
    """{name: {calls, s, self_s, failed, note, first_s}} from a span list.

    s sums span durations (no traced function calls itself, so no span
    nests inside one of the same name); self_s subtracts the durations of
    direct children, which in a single thread cover disjoint parts of the
    parent's interval.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, failed, note in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {}
    for i, (name, start, end, parent, failed, note) in enumerate(spans):
        t = totals.get(name)
        if t is None:
            t = totals[name] = {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0,
                                "note": 0, "first_s": end - start}
        dur = end - start
        t["calls"] += 1
        t["s"] += dur
        t["self_s"] += dur - child[i]
        t["failed"] += failed
        t["note"] += note or 0
    return totals


def layer_metrics(spans, items):
    """<module>.<function>.<stat> for every target, plus the derived metrics."""
    totals = layer_totals(spans)
    out = {}
    for name in TARGETS:
        t = totals.get(name, NO_SPANS)
        for stat in STATS:
            out[f"{name}.{stat}"] = t[stat]
    memo = totals.get("qforms.class_group", NO_SPANS)
    sweep = totals.get("qforms.class_group_sweep", NO_SPANS)
    out["qforms.reduced_forms.forms"] = totals.get("qforms.reduced_forms", NO_SPANS)["note"]
    out["qforms.class_group.memo_hit_ratio"] = memo["note"] / memo["calls"] if memo["calls"] else 0.0
    out["qforms.class_group_sweep.enum_s"] = sweep["first_s"]
    out["qforms.class_group_sweep.structure_s"] = sweep["s"] - sweep["first_s"]
    out["classifier.classify.per_item"] = out["classifier.classify.calls"] / items if items else 0.0
    # cmd_scan's only traced children are scan_rows resumptions, so its
    # self time is the CSV formatting and writing around them.
    out["cli.serialize.s"] = out["cli.cmd_scan.self_s"]
    return out
