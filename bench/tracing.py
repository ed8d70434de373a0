"""Span tracing of the calls into gamc's modules, installed from outside.

The modules bind imported names locally (``from .linalg import cholesky``,
``_PROPOSERS`` filled at import time), so wrapping ``linalg.cholesky`` alone
would leave every caller on the unwrapped function.  ``Tracer.install``
therefore rebinds each wrapped function under every name, in every loaded
``gamc`` module and module-level dict, that still points at the original.

Each span records its id, name, start, end, parent span and chain: the
spans of one chain share the id of the ``sampler.run_chain`` span that
encloses them.  Spans are kept in memory as flat arrays and written out in
one file when the traced run ends.
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
import time
from array import array

import numpy as np

# (module, function, span name); several functions may share a span name
WRAPPED = (
    ("autodiff", "value_and_gradient", "autodiff.value_and_gradient"),
    ("autodiff", "value_gradient_hessian", "autodiff.value_gradient_hessian"),
    ("linalg", "softabs_metric", "linalg.softabs_metric"),
    ("linalg", "cholesky", "linalg.cholesky"),
    ("linalg", "invert_spd", "linalg.invert_spd"),
    ("linalg", "rank_one_update", "linalg.rank_one_update"),
    ("linalg", "chol_solve", "linalg.solves"),
    ("linalg", "tri_solve", "linalg.solves"),
    ("kernels", "am_update", "kernels.am_update"),
    ("kernels", "am_proposal_logpdf", "kernels.am_proposal_logpdf"),
    ("kernels", "am_proposal_sample", "kernels.am_proposal_sample"),
    ("kernels", "smmala_proposal", "kernels.metric_proposal"),
    ("kernels", "mmala_proposal", "kernels.metric_proposal"),
    ("kernels", "gaussian_logpdf", "kernels.gaussian_logpdf"),
    ("sampler", "run_chain", "sampler.run_chain"),
    ("diagnostics", "summarize", "diagnostics.summarize"),
    ("diagnostics", "trace_rows", "diagnostics.trace_rows"),
    ("diagnostics", "acf_table", "diagnostics.acf_table"),
    ("diagnostics", "running_mean_table", "diagnostics.running_mean_table"),
    ("diagnostics", "autocovariance", "diagnostics.autocovariance"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "summarize_directory", "harness.summarize_directory"),
)

BUNDLE_ORDERS = (0, 1, 2, 3)
# target classes whose own ``bundle`` is wrapped; subclasses without one
# (RVTarget) reach the wrapped LogTarget.bundle through the MRO
BUNDLE_CLASSES = ("LogTarget", "GaussianTarget", "StudentTTarget", "RVTarget")


def _rebind(original, wrapper) -> int:
    """Point every gamc module global and module-level dict entry that holds
    ``original`` at ``wrapper``; returns how many bindings changed."""
    changed = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "gamc" or name.startswith("gamc.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                changed += 1
            elif type(value) is dict:
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper
                        changed += 1
    return changed


class Tracer:
    """In-memory span recorder for one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.ids = array("q")
        self.codes = array("i")
        self.parents = array("q")
        self.chains = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.out_of_support = 0
        # chain id -> sampler name
        self.chain_sampler: dict[int, str] = {}
        self._stack = [0]
        self._chain = [0]
        self._next_id = itertools.count(1)

    def code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _wrap(self, fn, name_of, on_enter=None, on_result=None):
        stack, chain, next_id = self._stack, self._chain, self._next_id
        ids, codes, parents = self.ids, self.codes, self.parents
        chains, starts, ends = self.chains, self.starts, self.ends
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(next_id)
            parent = stack[-1]
            stack.append(sid)
            if on_enter is not None:
                on_enter(sid, args, kwargs)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ids.append(sid)
                codes.append(name_of(args, kwargs))
                parents.append(parent)
                chains.append(chain[-1])
                starts.append(t0)
                ends.append(t1)
                if on_enter is not None:
                    chain.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _enter_chain(self, sid, args, kwargs):
        scfg = args[0] if args else kwargs["sampler_cfg"]
        self.chain_sampler[sid] = scfg.name
        self._chain.append(sid)

    def _bundle_result(self, bundle):
        if bundle.value == -math.inf:
            self.out_of_support += 1

    def install(self) -> None:
        """Wrap every function in WRAPPED and the target ``bundle`` methods.

        Must run after ``gamc`` is imported and before the traced work.
        """
        import importlib

        for module_name, attr, span in WRAPPED:
            module = importlib.import_module(f"gamc.{module_name}")
            original = getattr(module, attr)
            code = self.code(span)
            on_enter = self._enter_chain if span == "sampler.run_chain" else None
            wrapper = self._wrap(original, lambda a, k, c=code: c, on_enter=on_enter)
            if _rebind(original, wrapper) == 0:
                raise RuntimeError(f"no binding of gamc.{module_name}.{attr} was rebound")

        targets = importlib.import_module("gamc.targets")
        order_codes = [self.code(f"targets.bundle.o{o}") for o in BUNDLE_ORDERS]

        def bundle_code(args, kwargs):
            order = args[2] if len(args) > 2 else kwargs.get("order", 0)
            return order_codes[min(max(order, 0), 3)]

        for cls_name in BUNDLE_CLASSES:
            cls = getattr(targets, cls_name)
            if "bundle" in vars(cls):
                wrapped = self._wrap(vars(cls)["bundle"], bundle_code,
                                     on_result=self._bundle_result)
                cls.bundle = wrapped

    # --- analysis ---------------------------------------------------------

    def arrays(self) -> dict:
        """Spans as numpy columns, sorted by span id."""
        ids = np.frombuffer(self.ids, dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        return {
            "id": ids[order],
            "code": np.frombuffer(self.codes, dtype=np.int32)[order],
            "parent": np.frombuffer(self.parents, dtype=np.int64)[order],
            "chain": np.frombuffer(self.chains, dtype=np.int64)[order],
            "start": np.frombuffer(self.starts, dtype=np.float64)[order],
            "end": np.frombuffer(self.ends, dtype=np.float64)[order],
        }

    def save(self, path) -> None:
        cols = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **cols)


class Profile:
    """Per-span-name call counts and self times derived from the spans.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly (one thread), so the children never
    overlap each other.
    """

    def __init__(self, tracer: Tracer):
        cols = tracer.arrays()
        self.names = tracer.names
        self.chain_sampler = tracer.chain_sampler
        n_codes = len(self.names)
        ids, parent = cols["id"], cols["parent"]
        self.code = cols["code"]
        self.chain = cols["chain"]
        dur = cols["end"] - cols["start"]
        top = int(ids.max()) + 1 if ids.size else 1
        child = np.bincount(parent, weights=dur, minlength=top)
        self.self_time = dur - child[ids]
        code_by_id = np.full(top, -1, dtype=np.int64)
        code_by_id[ids] = self.code
        self.parent_code = code_by_id[parent]
        self.calls_by_code = np.bincount(self.code, minlength=n_codes)
        self.self_by_code = np.bincount(self.code, weights=self.self_time, minlength=n_codes)

    def _code(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def calls(self, name: str) -> int:
        c = self._code(name)
        return int(self.calls_by_code[c]) if c >= 0 else 0

    def self_s(self, *names: str) -> float:
        return float(sum(self.self_by_code[c] for c in map(self._code, names) if c >= 0))

    def calls_under(self, name: str, parent: str) -> int:
        c, p = self._code(name), self._code(parent)
        if c < 0 or p < 0:
            return 0
        return int(np.count_nonzero((self.code == c) & (self.parent_code == p)))

    def calls_in_samplers(self, names, samplers, exclude_parent: str | None = None) -> int:
        chains = [cid for cid, s in self.chain_sampler.items() if s in samplers]
        mask = np.isin(self.code, [self._code(n) for n in names]) & np.isin(self.chain, chains)
        if exclude_parent is not None:
            mask &= self.parent_code != self._code(exclude_parent)
        return int(np.count_nonzero(mask))

    def calls_outside_chains(self, prefix: str) -> int:
        codes = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return int(np.count_nonzero(np.isin(self.code, codes) & (self.chain == 0)))
