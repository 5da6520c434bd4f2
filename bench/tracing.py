"""Span recorder for the traced run, installed from outside the library.

``Tracer.install`` wraps every public function of the ``polycoeff``,
``compositions``, ``distributions`` and ``cli`` modules, then rebinds
every module-level name in the package that still points at an original
(``distributions.iter_raw_rows``, ``compositions.poly_coeff``,
``cli.pmf_X``, the package re-exports, ...), so calls between modules
are seen too.  Each call is a span: name, start, end, parent span and
request id, kept in flat lists until the run ends.

A generator such as ``iter_raw_rows`` is timed over its whole iteration
as one call made of segments, one per resumption, so the time its
consumer spends between rows stays with the consumer.

``SplitMix64`` methods are patched on the class.  They run millions of
times per sampling request, so they are counted and timed in aggregate
rather than as spans; their time is still taken off the enclosing span.
"""
from __future__ import annotations

import inspect
import math
import time
from collections import Counter

SPAN_MODULES = ("polycoeff", "compositions", "distributions", "cli")
KERNEL = "polycoeff"

_now = time.perf_counter


class Tracer:
    def __init__(self, rc):
        self.rc = rc
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.request: list[int] = []
        self.call: list[int] = []        # index of the call's first segment
        self.row: list[tuple | None] = []
        self.stack: list[int] = []
        self.rng_child: Counter = Counter()  # span -> time in rng methods
        self.rng_calls: Counter = Counter()
        self.rng_time = 0.0
        self._rng_depth = 0
        self.current_request = -1
        self.request_kind: dict[int, str] = {}
        self.coeffs_out = 0
        self.max_bits = 0
        self._undo: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        rc = self.rc
        wrapped = {}
        for short in SPAN_MODULES:
            module = getattr(rc, short)
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrapped[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        modules = [rc] + [getattr(rc, short) for short in SPAN_MODULES + ("rng",)]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapped[id(value)])
        cls = rc.rng.SplitMix64
        for attr, fn in list(vars(cls).items()):
            if inspect.isfunction(fn) and not attr.startswith("_"):
                self._undo.append((cls, attr, fn))
                setattr(cls, attr, self._wrap_rng(attr, fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def begin_request(self, request_id: int, kind: str) -> None:
        self.current_request = request_id
        self.request_kind[request_id] = kind

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str, call: int, row) -> int:
        index = len(self.name)
        self.name.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.request.append(self.current_request)
        self.call.append(index if call < 0 else call)
        self.row.append(row)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(_now())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = _now()
        self.stack.pop()

    def _is_boundary(self, index: int, layer: str = KERNEL) -> bool:
        """Whether span ``index`` is a call into ``layer`` from outside it."""
        parent = self.parent[index]
        return parent < 0 or not self.name[parent].startswith(layer + ".")

    def _count_output(self, value) -> None:
        # Rows are symmetric and unimodal, so the middle entry is the largest.
        entries = getattr(value, "entries", value)
        if isinstance(entries, (list, tuple)) and entries:
            self.coeffs_out += len(entries)
            self.max_bits = max(self.max_bits, entries[len(entries) // 2].bit_length())
        elif isinstance(entries, int) and not isinstance(entries, bool):
            self.coeffs_out += 1
            self.max_bits = max(self.max_bits, entries.bit_length())

    def _wrap(self, name: str, fn):
        params = list(inspect.signature(fn).parameters)
        kernel = name.startswith(KERNEL + ".")
        asks_row = (kernel and len(params) >= 2
                    and params[0] == "l" and params[1] in ("k", "k_max", "m"))
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                call = -1
                boundary = False
                while True:
                    index = tracer._open(name, call, tuple(args[:2]) if asks_row else None)
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer._close(index)
                        return
                    except BaseException:
                        tracer._close(index)
                        raise
                    tracer._close(index)
                    if call < 0:
                        call = index
                        boundary = kernel and tracer._is_boundary(index)
                    if boundary:
                        tracer._count_output(item)
                    yield item

            generator.__wrapped__ = fn
            return generator

        def function(*args, **kwargs):
            index = tracer._open(name, -1, tuple(args[:2]) if asks_row else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if kernel and tracer._is_boundary(index):
                tracer._count_output(result)
            return result

        function.__wrapped__ = fn
        return function

    def _wrap_rng(self, attr: str, fn):
        tracer = self

        def method(self_, *args):
            tracer.rng_calls[attr] += 1
            if tracer._rng_depth:
                return fn(self_, *args)
            tracer._rng_depth = 1
            began = _now()
            try:
                return fn(self_, *args)
            finally:
                spent = _now() - began
                tracer._rng_depth = 0
                tracer.rng_time += spent
                if tracer.stack:
                    tracer.rng_child[tracer.stack[-1]] += spent

        method.__wrapped__ = fn
        return method

    # -- results ----------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus what its direct children cover."""
        own = [e - s - self.rng_child[i]
               for i, (s, e) in enumerate(zip(self.start, self.end))]
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[i] - self.start[i]
        return own

    def layer_metrics(self, draws: int, rows_out: int, bytes_out: int) -> dict:
        """Every per-layer metric, as name -> (value, unit)."""
        own = self.self_times()
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for i, name in enumerate(self.name):
            layer = name.split(".", 1)[0]
            self_s[layer] += own[i]
            self_s[name] += own[i]
            if self.call[i] == i and self._is_boundary(i, layer):
                calls[layer] += 1
        out = {
            "polycoeff.calls": (calls[KERNEL], "count"),
            "polycoeff.self_s": (self_s[KERNEL], "s"),
            "polycoeff.coeffs_out": (self.coeffs_out, "count"),
            "polycoeff.max_bits": (self.max_bits, "bits"),
            "polycoeff.repeat_row_ratio": (self._repeat_row_ratio(), "ratio"),
            "polycoeff.m_exponent": (self._m_exponent(), "slope"),
            "compositions.calls": (calls["compositions"], "count"),
            "compositions.self_s": (self_s["compositions"], "s"),
            "distributions.self_s": (self_s["distributions"], "s"),
        }
        for fn in ("pmf_X", "pmf_S", "error_decomposition", "normal_distance", "sample"):
            out[f"distributions.{fn}.self_s"] = (self_s[f"distributions.{fn}"], "s")
        out["distributions.pmf_X.calls_per_request"] = (self._pmf_x_per_dist(), "calls/request")
        words = self.rng_calls["next_u64"]
        out.update({
            "rng.words": (words, "count"),
            "rng.below.calls": (self.rng_calls["below"], "count"),
            "rng.words_per_draw": (words / draws if draws else 0.0, "words/draw"),
            "rng.self_s": (self.rng_time, "s"),
            "cli.self_s": (self_s["cli"], "s"),
            "cli.rows_out": (rows_out, "count"),
            "cli.bytes_out": (bytes_out, "B"),
        })
        return out

    def _kernel_calls(self):
        """(index, request, (l, k)) for each call into polycoeff that asks for a row."""
        for i, row in enumerate(self.row):
            if self.call[i] == i and row is not None and self._is_boundary(i):
                yield i, self.request[i], row

    def _repeat_row_ratio(self) -> float:
        asked = set()
        total = repeats = 0
        for _, request, row in self._kernel_calls():
            total += 1
            repeats += (request, row) in asked
            asked.add((request, row))
        return repeats / total if total else 0.0

    def _m_exponent(self) -> float:
        """Slope of log(call time) on log(m), pooled within groups of equal l.

        Grouping by l removes the width's share of the cost, so the slope
        is how one kernel call scales with the row index it asks for.
        """
        duration: Counter = Counter()
        for i, call in enumerate(self.call):
            duration[call] += self.end[i] - self.start[i]
        groups: dict[int, list[tuple[float, float]]] = {}
        for i, _, (l, k) in self._kernel_calls():
            if k >= 1 and duration[i] > 0:
                groups.setdefault(l, []).append((math.log(k), math.log(duration[i])))
        sxy = sxx = 0.0
        for points in groups.values():
            mx = sum(x for x, _ in points) / len(points)
            my = sum(y for _, y in points) / len(points)
            sxy += sum((x - mx) * (y - my) for x, y in points)
            sxx += sum((x - mx) ** 2 for x, _ in points)
        return sxy / sxx if sxx > 0 else 0.0

    def _pmf_x_per_dist(self) -> float:
        dist = [r for r, kind in self.request_kind.items() if kind == "dist"]
        if not dist:
            return 0.0
        wanted = set(dist)
        n = sum(1 for i, name in enumerate(self.name)
                if name == "distributions.pmf_X" and self.request[i] in wanted)
        return n / len(dist)
