"""Spans around lapden's layer boundaries, recorded from outside the package.

Each target is a function looked up by its *caller*: ``from .grid_ops import
laplacian_2d_values`` binds a second name in ``lapden.nl_filter``, and only
replacing that binding intercepts the calls ``nl_filter`` makes.  A target
that no longer exists is reported as absent, so a refactor that renames or
removes a function changes the numbers, not the benchmark.

Spans are aggregated in memory per layer name: calls, total seconds and self
seconds (total minus the time of wrapped calls nested inside).  Solver calls
can also be captured (arguments, result or exception) for the correctness
gate, which runs after the wrappers are removed.
"""

from __future__ import annotations

import importlib
import time


class Stat:
    """Aggregate of one layer name's spans."""

    __slots__ = ("calls", "s", "self_s", "units", "paths")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.units = 0       # elements computed, summed over calls
        self.paths = []      # files touched, sized after the timed section


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.solves: list[dict] = []
        self.absent: list[str] = []
        self.context = None  # index of the top-level call being timed
        self._stack: list[float] = []
        self._installed: list[tuple[object, str, object]] = []

    def stat(self, layer: str) -> Stat:
        return self.stats.setdefault(layer, Stat())

    def install(self, module_name: str, attr: str, layer: str, *,
                capture: str | None = None, units=None, path_arg=None) -> None:
        """Replace ``module_name.attr`` by a timing wrapper.

        capture: record each call as a solve of this method ("nlap"/"tv").
        units: function of the call's arguments giving a work count to sum.
        path_arg: index of the positional argument that names a file.
        """
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{module_name}.{attr}")
            return
        self._installed.append((module, attr, original))
        setattr(module, attr, self._wrap(original, self.stat(layer),
                                         capture, units, path_arg))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, fn, stat: Stat, capture, units, path_arg):
        stack = self._stack
        clock = time.perf_counter
        solves = self.solves
        tracer = self

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                error = err
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stat.calls += 1
                stat.s += dt
                stat.self_s += dt - child
                if units is not None:
                    stat.units += units(args)
                if path_arg is not None:
                    stat.paths.append(args[path_arg])
                if capture is not None:
                    solves.append({
                        "method": capture, "context": tracer.context,
                        "args": args, "kwargs": kwargs,
                        "result": result, "error": error,
                        "seconds": dt,
                    })

        return wrapper
