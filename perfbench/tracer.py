"""Call timing from outside the library: boundary proxies and a name table.

Every span is one call into a wrapped callable. A span's self time is its
duration minus the time of the spans nested inside it, so a layer's self
time excludes the layers it calls that are also traced (and the victim).

Two ways of wrapping, both from this package's own files:

* :class:`BoundaryProxy` wraps an object the benchmark hands to the library
  (the victim). It delegates every attribute and times every method, so a
  batched call a later version adds is timed without a change here.
* :func:`patch_table` wraps library functions and methods by dotted name,
  from :data:`TRACE_TABLE`. A name that no longer resolves is reported as
  absent; every patched binding is restored on exit.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

PACKAGE = "admmattack"


@dataclass
class Stat:
    calls: int = 0
    rows: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    raised: int = 0
    flagged: int = 0

    def snapshot(self) -> "Stat":
        return Stat(**vars(self))

    def minus(self, other: "Stat") -> "Stat":
        return Stat(**{k: v - getattr(other, k) for k, v in vars(self).items()})

    def plus(self, other: "Stat") -> "Stat":
        return Stat(**{k: v + getattr(other, k) for k, v in vars(self).items()})


class Tracer:
    """Per-name call statistics with nested self time."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._child_time = [0.0]  # one accumulator per open span

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def snapshot(self) -> dict[str, Stat]:
        return {k: v.snapshot() for k, v in self.stats.items()}

    def wrap(self, name: str, fn, rows=None, observe=None):
        stat = self.stat(name)
        child_time = self._child_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child_time.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                elapsed = clock() - t0
                inner = child_time.pop()
                child_time[-1] += elapsed
                stat.calls += 1
                stat.seconds += elapsed
                stat.self_seconds += elapsed - inner
                if rows is not None:
                    stat.rows += rows(args)
            if observe is not None:
                out = observe(self, stat, out)
            return out

        traced.__wrapped__ = fn
        return traced


def array_rows(_method: str, args) -> int:
    """Rows in a call's first argument: n for an (n, d) array, else 1."""
    shape = getattr(args[0], "shape", ()) if args else ()
    return int(shape[0]) if len(shape) == 2 else 1


class BoundaryProxy:
    """Delegates every attribute of ``target``; every method call is a span.

    ``rows(method_name, args)`` gives the rows (queries) a call carries.
    """

    def __init__(self, target, tracer: Tracer, name: str, rows):
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_tracer", tracer)
        object.__setattr__(self, "_name", name)
        object.__setattr__(self, "_rows", rows)

    def __getattr__(self, attr):
        value = getattr(self._target, attr)
        if not callable(value):
            return value
        rows = self._rows
        wrapped = self._tracer.wrap(self._name, value, rows=lambda args: rows(attr, args))
        object.__setattr__(self, attr, wrapped)  # later lookups skip __getattr__
        return wrapped

    def __setattr__(self, attr, value):
        setattr(self._target, attr, value)


def _wrap_returned_loss(tracer: Tracer, _stat: Stat, loss):
    return tracer.wrap("admm.loss", loss) if callable(loss) else loss


def _count_degenerate(_tracer: Tracer, stat: Stat, out):
    if isinstance(out, tuple) and len(out) == 2 and out[1] is True:
        stat.flagged += 1
    return out


# (dotted name, metric prefix, observer). The observer, if any, sees each
# call's result and returns what the caller gets.
TRACE_TABLE = (
    ("admmattack.losses.score_loss", "losses.score_loss", None),
    ("admmattack.losses.smoothed_decision_loss", "losses.smoothed_decision_loss", None),
    ("admmattack.losses.is_success", "losses.is_success", None),
    ("admmattack.grad_est.rge_with_base", "grad_est.rge_with_base", None),
    ("admmattack.prox.zstep", "prox.zstep", None),
    ("admmattack.admm.admm_iterate", "admm.admm_iterate", None),
    # make_loss returns the loss closure; wrapping it keeps loss
    # evaluations (query-point clamping included) out of RGE self time.
    ("admmattack.admm.make_loss", "admm.make_loss", _wrap_returned_loss),
    ("admmattack.bo.BoDeltaSolver.step", "bo.step", None),
    ("admmattack.bo.ei_gradient", "bo.ei_gradient", _count_degenerate),
    ("admmattack.gp.GpModel.fit_hypers", "gp.fit_hypers", None),
    ("admmattack.gp.GpModel.nlml", "gp.nlml", None),
    ("admmattack.gp.GpModel.nlml_grad", "gp.nlml_grad", None),
    ("admmattack.gp.GpModel.posterior_with_grad", "gp.posterior_with_grad", None),
    ("admmattack.gp.GpModel.posterior", "gp.posterior", None),
    ("admmattack.core.project_box_linf", "core.project_box_linf", None),
)


def resolve(dotted: str):
    """(owner, attribute, value) for a dotted name, or None if absent."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for part in parts[split:-1]:
                obj = getattr(obj, part)
            return obj, parts[-1], getattr(obj, parts[-1])
        except AttributeError:
            return None
    return None


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


@contextmanager
def patch_table(tracer: Tracer, table=TRACE_TABLE):
    """Wrap every resolvable name of ``table``; yields the absent names.

    A module-level function is replaced in every module of the package
    that binds it (``from .x import f`` makes a second binding). A method
    is replaced on its class; an inherited one is shadowed, then removed.
    """
    restore = []  # (owner, attribute, original value, owned)
    absent = []
    try:
        for dotted, name, observe in table:
            found = resolve(dotted)
            if found is None or not callable(found[2]):
                absent.append(dotted)
                continue
            owner, attr, value = found
            if isinstance(owner, type):
                raw = owner.__dict__.get(attr)
                owned = raw is not None
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(tracer.wrap(name, raw.__func__, observe=observe))
                else:
                    wrapped = tracer.wrap(name, value, observe=observe)
                restore.append((owner, attr, raw, owned))
                setattr(owner, attr, wrapped)
            else:
                wrapped = tracer.wrap(name, value, observe=observe)
                for module in _package_modules():
                    for key, bound in list(vars(module).items()):
                        if bound is value:
                            restore.append((module, key, value, True))
                            setattr(module, key, wrapped)
        yield absent
    finally:
        for owner, attr, original, owned in reversed(restore):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
