"""Layer spans for the traced run.

The tracer replaces the public functions and methods of each hspsim layer
module with timing wrappers, and rebinds every other hspsim module's name for
the same function (``hsp`` does ``from .lattice import perp_subgroup``).  Each
wrapper records its call count, inclusive time and self time: its duration
minus the time covered by wrapped calls it made.  A layer's self time is the
sum over its functions.

Work done by a callback that one layer passes to another (a label function, a
classical map) counts towards the layer running the callback unless the
callback calls a wrapped function.  Wrapper bookkeeping lands in the caller's
self time; the ratio of traced to untraced wall time reports that cost.
"""

from __future__ import annotations

import functools
import time
from types import FunctionType

# dunder methods that implement a layer's arithmetic and are timed like
# public methods
OPERATORS = {"__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__matmul__", "__call__"}


class Tracer:
    def __init__(self):
        # stack[-1] accumulates the time covered by wrapped calls made from
        # the innermost open span (or from the item, at the bottom)
        self.stack = [0]
        self.stats: dict[str, list[int]] = {}  # key -> [calls, inclusive ns, self ns]
        self.layer_of: dict[str, str] = {}
        self.peak_support = 0
        self.scale_bits_max = 0
        self.coeff_bits_max = 0

    # -- installation -------------------------------------------------------

    def install(self, package, layers) -> None:
        """Wrap every layer module of the freshly imported hspsim package."""
        modules = [package] + [getattr(package, name) for name in layers]
        # coefficient sizes are read off the states entering measurement: the
        # blackbox layer has no capture hook to pass them out
        hooks = {
            "state.measure_register": lambda st, *a, **k: self.observe_amps(st.amps.values())
        }
        for layer in layers:
            mod = getattr(package, layer)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, FunctionType):
                    key = f"{layer}.{name}"
                    wrapped = self._wrap(obj, key, layer, hooks.get(key))
                    for other in modules:
                        for attr, val in list(vars(other).items()):
                            if val is obj:
                                setattr(other, attr, wrapped)
                elif isinstance(obj, type) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer)
        if "state" in layers:
            self._observe_states(package.state.SparseState)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            key = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(val, FunctionType):
                setattr(cls, attr, self._wrap(val, key, layer))
            elif isinstance(val, classmethod):
                setattr(cls, attr, classmethod(self._wrap(val.__func__, key, layer)))
            elif isinstance(val, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(val.__func__, key, layer)))

    def _wrap(self, fn, key: str, layer: str, before=None):
        stat = self.stats[key] = [0, 0, 0]
        self.layer_of[key] = layer
        stack = self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                stack[-1] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - child

        if before is not None:
            timed = wrapper

            def wrapper(*args, **kwargs):
                self.untimed(before, *args, **kwargs)
                return timed(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    # -- observations (excluded from every layer's self time) ---------------

    def untimed(self, fn, *args, **kwargs) -> None:
        """Run bookkeeping so that its time is covered like a child span but
        credited to no layer."""
        t0 = time.perf_counter_ns()
        fn(*args, **kwargs)
        self.stack[-1] += time.perf_counter_ns() - t0

    def _observe_states(self, cls) -> None:
        init = cls.__init__

        def observed_init(st, *args, **kwargs):
            init(st, *args, **kwargs)
            self.untimed(self._note_state, len(st.amps), st.scale)

        cls.__init__ = observed_init

    def _note_state(self, support: int, scale) -> None:
        if support > self.peak_support:
            self.peak_support = support
        if isinstance(scale, int) and scale.bit_length() > self.scale_bits_max:
            self.scale_bits_max = scale.bit_length()

    def observe_amps(self, amps) -> None:
        """Largest coefficient bit length among exact cyclotomic amplitudes."""
        best = self.coeff_bits_max
        for a in amps:
            for c in getattr(a, "coeffs", ()):
                bits = (
                    abs(c).bit_length()
                    if isinstance(c, int)
                    else max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                )
                if bits > best:
                    best = bits
        self.coeff_bits_max = best

    def capture(self, event: str, payload: dict) -> None:
        """Callback for the solver's public capture hook."""

        def note():
            if "state" in payload:
                self.observe_amps(payload["state"].amps.values())
            if "amp" in payload:
                self.observe_amps(payload["amp"].values())

        self.untimed(note)

    # -- read-out -----------------------------------------------------------

    def calls(self, *keys) -> int:
        return sum(self.stats[k][0] for k in keys if k in self.stats)

    def inclusive_ns(self, *keys) -> int:
        return sum(self.stats[k][1] for k in keys if k in self.stats)

    def self_ns(self, *keys) -> int:
        return sum(self.stats[k][2] for k in keys if k in self.stats)

    def layer_keys(self, layer: str) -> list[str]:
        return [k for k, l in self.layer_of.items() if l == layer]
