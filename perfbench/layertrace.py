"""Spans and counters around the package's functions, installed from outside.

`Tracer.install()` replaces each traced function, in every module of the
package that bound it (``from .numfield import roots_in_field`` makes a
second binding in ``ellcurve`` and ``torsion``) and under every class
attribute that holds it (``FieldElement.__rmul__ is __mul__``), by one
wrapper.  `uninstall()` puts the originals back.  Nothing inside the package
is edited.

Every wrapper pushes a frame on one stack.  When a call returns, its duration
is charged to the enclosing frame as child time, so a frame's self time is its
duration minus the time its wrapped callees took, and the self times inside a
case add up to the case's duration.  Most wrappers record a span (name, start,
end, parent span, case id).  The hot arithmetic leaves in `COUNTERS` only add
to a per-name call count and self time.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "quartic_torsion"

# (module, attribute path, trace name).  Spans unless listed in COUNTERS.
TARGETS = (
    ("exactmath", "factor_bounded", "exactmath.factor_bounded"),
    ("exactmath", "poly_gcd", "exactmath.poly_gcd"),
    ("exactmath", "resultant", "exactmath.resultant"),
    ("exactmath", "poly_xgcd", "exactmath.poly_xgcd"),
    ("numfield", "NumberField.__init__", "numfield.NumberField.init"),
    ("numfield", "roots_in_field", "numfield.roots_in_field"),
    ("numfield", "_trager_roots", "numfield.trager_roots"),
    ("numfield", "_norm_poly_shifted", "numfield.norm_poly_shifted"),
    ("numfield", "sqrt_in_field", "numfield.sqrt_in_field"),
    ("numfield", "FieldElement.__mul__", "numfield.FieldElement.mul"),
    ("numfield", "FieldElement.inverse", "numfield.FieldElement.inverse"),
    ("ellcurve", "Curve.division_polynomial", "ellcurve.division_polynomial"),
    ("ellcurve", "m_preimages", "ellcurve.m_preimages"),
    ("ellcurve", "Point.__add__", "ellcurve.Point.add"),
    ("ellcurve", "Point.scalar_mul", "ellcurve.Point.scalar_mul"),
    ("ellcurve", "curve_points_y", "ellcurve.curve_points_y"),
    ("torsion", "p_primary_part", "torsion.p_primary_part"),
    ("torsion", "_choose_generators", "torsion.choose_generators"),
    ("torsion", "_point_order", "torsion.point_order"),
    ("torsion", "_validate_report", "torsion.validate_report"),
    ("torsion", "torsion_over_field", "torsion.torsion_over_field"),
)
COUNTERS = frozenset({"numfield.FieldElement.mul", "numfield.FieldElement.inverse",
                      "ellcurve.Point.add"})
PRIMES = (2, 3, 5, 7, 13)
CASE = "case"
FIELD_SETUP = "bench.field_setup"

_MARK = "__perfbench_original__"


def _span_detail(name, args, result):
    """Per-span detail kept for the derived metrics (None if the call raised)."""
    if name == "torsion.p_primary_part":
        return args[2]
    if result is None:
        return None
    if name == "exactmath.factor_bounded":
        return (args[0].degree, len(result))
    if name == "numfield.roots_in_field":
        return len(result)
    if name == "ellcurve.m_preimages":
        return len(result)
    return None


class Tracer:
    """One run's spans and counters; spans stay in memory until `dump`."""

    def __init__(self):
        # span: [id, name, start, end, parent id, case id, self time, detail]
        self.spans: list[list] = []
        self.counters: dict[str, list] = {}  # name -> [calls, self time]
        self.case_id = None
        self._stack: list[list] = []  # [name, start, child time, span id]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _enter(self, name: str, record: bool) -> list:
        sid = None
        if record:
            sid = len(self.spans)
            self.spans.append(None)
        frame = [name, perf_counter(), 0.0, sid]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, detail=None) -> None:
        end = perf_counter()
        self._stack.pop()
        name, start, child, sid = frame
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        if sid is None:
            c = self.counters.get(name)
            if c is None:
                self.counters[name] = [1, dur - child]
            else:
                c[0] += 1
                c[1] += dur - child
            return
        parent = None
        for f in reversed(self._stack):
            if f[3] is not None:
                parent = f[3]
                break
        self.spans[sid] = [sid, name, start, end, parent, self.case_id, dur - child, detail]

    @contextmanager
    def span(self, name: str):
        """Record a span around the benchmark's own code."""
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(frame)

    @contextmanager
    def case(self):
        """Open the root span of the next case."""
        self.case_id = 0 if self.case_id is None else self.case_id + 1
        with self.span(CASE):
            yield

    def _wrap(self, fn, name: str):
        record = name not in COUNTERS
        enter, exit_ = self._enter, self._exit

        if not record:
            def counted(*args, **kwargs):
                frame = enter(name, False)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(frame)
            wrapper = counted
        else:
            def spanned(*args, **kwargs):
                frame = enter(name, True)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    exit_(frame, _span_detail(name, args, result))
            wrapper = spanned
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, _MARK, fn)
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for _, m in _package_modules()]
        for modname, path, name in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{modname}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if cls_path else getattr(owner, attr)
            if hasattr(original, _MARK):
                raise RuntimeError(f"{path} is already wrapped")
            wrapper = self._wrap(original, name)
            holders = [owner] if cls_path else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def dump(self, path) -> None:
        """Write the spans (one JSON list per line) and the counters."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "case",
                                            "self_s", "detail"],
                                 "counters": self.counters}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over every traced case."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for name, (n, t) in self.counters.items():
            calls[name] = n
            self_s[name] = t
        for s in self.spans:
            calls[s[1]] = calls.get(s[1], 0) + 1
            self_s[s[1]] = self_s.get(s[1], 0.0) + s[6]

        def inside(s, name) -> bool:
            p = s[4]
            while p is not None:
                if self.spans[p][1] == name:
                    return True
                p = self.spans[p][4]
            return False

        deg_sum = hits = roots = points = 0
        prime_s = {p: 0.0 for p in PRIMES}
        top_s = search_s = validation_s = recompute_s = field_setup_s = 0.0
        for s in self.spans:
            name, dur, detail = s[1], s[3] - s[2], s[7]
            if name == "exactmath.factor_bounded" and detail is not None:
                deg_sum += detail[0]
                hits += detail[1] > 0
            elif name == "numfield.roots_in_field" and detail is not None:
                roots += detail
            elif name == "ellcurve.m_preimages" and detail is not None:
                points += detail
            elif name == "torsion.p_primary_part" and not inside(s, "torsion.validate_report"):
                prime_s[detail] = prime_s.get(detail, 0.0) + dur
                search_s += dur
            elif name == "torsion.validate_report":
                validation_s += dur
            elif name == "torsion.torsion_over_field":
                if inside(s, "torsion.validate_report"):
                    recompute_s += dur
                else:
                    top_s += dur
            elif name == FIELD_SETUP:
                field_setup_s += dur

        def ratio(a, b):
            return a / b if b else 0.0

        m: dict[str, tuple[float, str]] = {}

        def layer(name, *extra):
            m[f"{name}.calls"] = (calls.get(name, 0), "count")
            m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
            for key, value, unit in extra:
                m[f"{name}.{key}"] = (value, unit)

        fb = "exactmath.factor_bounded"
        layer(fb, ("deg_sum", deg_sum, "count"), ("hit_frac", ratio(hits, calls.get(fb, 0)), "frac"))
        for name in ("exactmath.poly_gcd", "exactmath.resultant", "exactmath.poly_xgcd",
                     "numfield.NumberField.init"):
            layer(name)
        rif = "numfield.roots_in_field"
        layer(rif, ("roots_per_call", ratio(roots, calls.get(rif, 0)), "count"))
        layer("numfield.trager_roots")
        m["numfield.norm_shifts_per_solve"] = (
            ratio(calls.get("numfield.norm_poly_shifted", 0), calls.get("numfield.trager_roots", 0)),
            "count")
        for name in ("numfield.sqrt_in_field", "numfield.FieldElement.mul",
                     "numfield.FieldElement.inverse", "ellcurve.division_polynomial"):
            layer(name)
        mp = "ellcurve.m_preimages"
        layer(mp, ("points_per_call", ratio(points, calls.get(mp, 0)), "count"))
        for name in ("ellcurve.Point.add", "ellcurve.Point.scalar_mul", "ellcurve.curve_points_y"):
            layer(name)
        for p in PRIMES:
            m[f"stage.prime_search.p{p}_s"] = (prime_s[p], "s")
        m["stage.assembly_s"] = (top_s - search_s - validation_s, "s")
        m["stage.validation_s"] = (validation_s, "s")
        m["stage.validation.recompute_s"] = (recompute_s, "s")
        m["stage.field_setup_s"] = (field_setup_s, "s")
        return m


def _package_modules():
    return [(n, m) for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def installed_wrappers() -> list[str]:
    """Names in the package's modules and classes that hold a wrapper now."""
    found = []
    for n, mod in _package_modules():
        for key, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append(f"{n}.{key}")
            if isinstance(value, type) and value.__module__ == n:
                for ckey, cvalue in vars(value).items():
                    if hasattr(cvalue, _MARK):
                        found.append(f"{n}.{key}.{ckey}")
    return found
