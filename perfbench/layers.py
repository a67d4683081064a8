"""Timing wrappers around each layer's public entry points.

The traced mode of ``run.py`` installs these wrappers for one round and
removes them afterwards; nothing under ``src/`` changes.  Each wrapper is
installed where the calling code looks the name up: a module-level
function is replaced in every loaded ``repro`` module that imported it
(``repro.bo.rembo.propose_batch`` as well as
``repro.bo.propose.propose_batch``), a method is replaced on the class
that defines it.

Spans are kept in memory as (name, start, end, parent span, run id) and
written out once the run ends.  A span's self time is its duration minus
the time covered by its child spans; summing self time over every span
under the round's root span gives the root's duration exactly, which is
how the traced run attributes all of ``campaign_s`` to layers.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: Layers in report order; a span named ``<layer>.<what>`` belongs to
#: ``<layer>``.  ``bo`` is the engine layer: campaign time spent in no
#: other layer.
LAYERS = (
    "bo",
    "acquisition",
    "optim",
    "gp",
    "kernels",
    "embedding",
    "runtime",
    "circuits",
    "sampling",
)

#: Public kernel entry points, wrapped on every class that defines them.
KERNEL_METHODS = (
    "__call__",
    "diag",
    "gradients",
    "gram",
    "gradients_ws",
    "cross",
    "gradient_inner_products",
    "corr_state",
    "make_workspace",
    "extend_workspace",
)

#: The value ``fit_hyperparameters`` returns for a failed LML evaluation.
LML_PENALTY = 1e25


class SpanRecorder:
    """In-memory span store with running self/total time per span name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._run = array("i")
        self._open: list[int] = []
        self._child: list[float] = []
        #: Identifier stamped on every span opened from now on.
        self.run_id = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        #: Work counted at the wrappers (rows, evaluations, events, ...).
        self.counts: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._open[-1] if self._open else -1)
        self._run.append(self.run_id)
        self._end.append(0.0)
        self._open.append(index)
        self._child.append(0.0)
        self._start.append(self._clock())
        return index

    def close(self, index: int) -> float:
        end = self._clock()
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self._open.pop()
        child = self._child.pop()
        self._end[index] = end
        duration = end - self._start[index]
        name = self._names[self._name[index]]
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        if self._child:
            self._child[-1] += duration
        return duration

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    @property
    def n_spans(self) -> int:
        return len(self._start)

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return float(sum(v for k, v in self.self_s.items() if k.startswith(prefix)))

    def write_jsonl(self, path: Path) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self._start[0] if len(self._start) else 0.0
        with path.open("w", encoding="utf-8") as fh:
            for i in range(len(self._start)):
                fh.write(
                    json.dumps(
                        {
                            "span": i,
                            "name": self._names[self._name[i]],
                            "start": self._start[i] - origin,
                            "end": self._end[i] - origin,
                            "parent": self._parent[i],
                            "run": self._run[i],
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


class _SpanContext:
    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self._recorder = recorder
        self._name = name
        self._index = -1

    def __enter__(self) -> "_SpanContext":
        self._index = self._recorder.open(self._name)
        return self

    def __exit__(self, *exc: object) -> None:
        self._recorder.close(self._index)


def _rows(X: Any) -> int:
    return int(np.atleast_2d(np.asarray(X)).shape[0])


class Instrumentation:
    """Installs the wrappers; :meth:`remove` puts every original back.

    ``program_telemetry`` is the telemetry object the traced round hands to
    the program: broker calls made with it are counted separately so their
    cache hits and misses can be compared with the program's own counters.
    """

    def __init__(self, recorder: SpanRecorder, program_telemetry: Any = None) -> None:
        self.rec = recorder
        self.program_telemetry = program_telemetry
        self._undo: list[tuple[Any, str, Any]] = []
        self._clip_fractions: list[float] = []
        self._selecting = 0

    # -- patching ------------------------------------------------------------

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _replace_function(self, fn: Callable, wrapper: Callable) -> None:
        """Replace ``fn`` in every loaded repro module that binds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def _timed(self, span: str, fn: Callable, count: str | None = None,
               rows_arg: int | None = None) -> Callable:
        rec = self.rec

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if count is not None:
                rec.counts[count] += (
                    _rows(args[rows_arg]) if rows_arg is not None else 1
                )
            index = rec.open(span)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(index)

        return wrapper

    def _timed_method(self, cls: type, name: str, span: str,
                      count: str | None = None, rows_arg: int | None = None) -> None:
        self._set(cls, name, self._timed(span, cls.__dict__[name], count, rows_arg))

    def _timed_search(self, cls: type, span: str, count: str) -> None:
        """Time each step of a candidate-yielding search coroutine."""
        rec = self.rec
        search = cls.__dict__["search"]

        def steps(gen):
            values = None
            while True:
                index = rec.open(span)
                try:
                    points = gen.send(values)
                except StopIteration as stop:
                    return stop.value
                finally:
                    rec.close(index)
                rec.counts[count] += _rows(points)
                values = yield points

        @functools.wraps(search)
        def wrapper(self_, *args: Any, **kwargs: Any):
            return steps(search(self_, *args, **kwargs))

        self._set(cls, "search", wrapper)

    def install(self) -> "Instrumentation":
        from repro.acquisition.functions import MultiWeightAcquisition
        from repro.bo.engine import SurrogateManager
        from repro.bo.propose import propose_batch
        from repro.bo.rembo import RemboBO
        from repro.circuits.behavioral.base import TestbenchObjective
        from repro.embedding.dimension_selection import select_embedding_dimension
        from repro.embedding.random_embedding import RandomEmbedding
        from repro.gp import evaluator as gp_evaluator
        from repro.gp import hyperopt as gp_hyperopt
        from repro.gp import model as gp_model
        from repro.kernels import base as k_base
        from repro.kernels import composite as k_composite
        from repro.kernels import stationary as k_stationary
        from repro.optim.cobyla import Cobyla
        from repro.optim.direct import Direct
        from repro.runtime.broker import EvaluationBroker
        from repro.runtime.cache import ResultCache
        from repro.runtime.ledger import RunLedger
        from repro.sampling.monte_carlo import MonteCarloSampler

        rec = self.rec

        # bo: the engine's own entry point (its self time is engine time)
        self._timed_method(RemboBO, "solve", "bo.solve")

        # acquisition + repro.bo.propose
        self._replace_function(
            propose_batch, self._timed("acquisition.propose", propose_batch)
        )
        for name in ("evaluate_segments", "evaluate_all"):
            self._timed_method(
                MultiWeightAcquisition, name, "acquisition.evaluate",
                count="acquisition.fevals", rows_arg=1,
            )

        # optim: DIRECT and COBYLA coroutine steps
        self._timed_search(Direct, "optim.direct", "optim.direct_fevals")
        self._timed_search(Cobyla, "optim.cobyla", "optim.cobyla_fevals")

        # gp
        self._timed_method(SurrogateManager, "refit", "gp.refit", count="gp.refits")
        fit = gp_hyperopt.fit_hyperparameters

        @functools.wraps(fit)
        def fit_hyperparameters(*args: Any, **kwargs: Any):
            if self._selecting:
                rec.counts["embedding.select_gp_fits"] += 1
            with rec.span("gp.hyperopt"):
                return fit(*args, **kwargs)

        self._replace_function(fit, fit_hyperparameters)
        minimize = gp_hyperopt.minimize

        @functools.wraps(minimize)
        def counted_minimize(*args: Any, **kwargs: Any):
            result = minimize(*args, **kwargs)
            rec.counts["gp.restarts"] += 1
            if float(result.fun) >= LML_PENALTY:
                rec.counts["gp.penalty_starts"] += 1
            return result

        self._set(gp_hyperopt, "minimize", counted_minimize)
        self._timed_method(
            gp_evaluator.MarginalLikelihoodEvaluator, "evaluate", "gp.lml",
            count="gp.lml_evals",
        )
        self._timed_method(
            gp_model.GaussianProcess, "predict", "gp.predict",
            count="gp.predict_rows", rows_arg=1,
        )
        for name in ("fit", "add_data", "set_labels"):
            self._timed_method(gp_model.GaussianProcess, name, "gp.condition")
        chol = gp_model.chol_with_jitter

        @functools.wraps(chol)
        def chol_with_jitter(A: np.ndarray) -> np.ndarray:
            before = np.diagonal(A).copy()
            index = rec.open("gp.chol")
            try:
                return chol(A)
            finally:
                rec.close(index)
                if not np.array_equal(np.diagonal(A), before):
                    rec.counts["gp.jitter_retries"] += 1

        self._replace_function(chol, chol_with_jitter)

        # kernels: every public entry point on every kernel class
        for module in (k_base, k_stationary, k_composite):
            for cls in vars(module).values():
                if not (isinstance(cls, type) and issubclass(cls, k_base.Kernel)):
                    continue
                if cls.__module__ != module.__name__:
                    continue
                for name in KERNEL_METHODS:
                    if name in cls.__dict__:
                        self._timed_method(
                            cls, name, "kernels.call", count="kernels.evals"
                        )

        # embedding
        @functools.wraps(select_embedding_dimension)
        def select(*args: Any, **kwargs: Any):
            self._selecting += 1
            try:
                with rec.span("embedding.select"):
                    return select_embedding_dimension(*args, **kwargs)
            finally:
                self._selecting -= 1

        self._replace_function(select_embedding_dimension, select)
        project = RandomEmbedding.__dict__["project"]

        @functools.wraps(project)
        def project_wrapper(self_, Z):
            with rec.span("embedding.map"):
                X, clipped = project(self_, Z)
            self._clip_fractions.append(float(clipped))
            return X, clipped

        self._set(RandomEmbedding, "project", project_wrapper)
        self._timed_method(RandomEmbedding, "to_embedded", "embedding.map")

        # runtime
        evaluate_batch = EvaluationBroker.__dict__["evaluate_batch"]
        program = self.program_telemetry

        @functools.wraps(evaluate_batch)
        def evaluate_batch_wrapper(broker, X):
            sims_before = rec.counts["circuits.sim_rows"]
            retries_before = broker.stats.n_retries
            failures_before = broker.stats.n_attempt_failures
            with rec.span("runtime.evaluate_batch"):
                batch = evaluate_batch(broker, X)
            retries = broker.stats.n_retries - retries_before
            # a miss is a distinct point simulated; a retry simulates a
            # point again and a skipped point is neither hit nor miss
            misses = rec.counts["circuits.sim_rows"] - sims_before - retries
            hits = batch.n_evaluated - misses
            rec.counts["runtime.evaluate_batch_calls"] += 1
            rec.counts["runtime.cache_hits"] += hits
            rec.counts["runtime.cache_misses"] += misses
            rec.counts["runtime.retries"] += retries
            rec.counts["runtime.failed_evals"] += (
                broker.stats.n_attempt_failures - failures_before
            )
            if program is not None and broker.telemetry is program:
                rec.counts["compare.cache_hits"] += hits
                rec.counts["compare.cache_misses"] += misses
            return batch

        self._set(EvaluationBroker, "evaluate_batch", evaluate_batch_wrapper)
        open_ = ResultCache.__dict__["open"].__func__
        self._set(ResultCache, "open", classmethod(self._timed("runtime.cache_open", open_)))
        self._timed_method(ResultCache, "put", "runtime.cache_put")
        self._timed_method(ResultCache, "keys_for_batch", "runtime.digest")
        self._timed_method(ResultCache, "lookup_or_claim", "runtime.cache_lookup")
        self._timed_method(
            RunLedger, "append", "runtime.ledger_append", count="runtime.ledger_events"
        )

        # circuits: the simulator behind every objective evaluation
        self._timed_method(
            TestbenchObjective, "evaluate", "circuits.sim",
            count="circuits.sim_rows", rows_arg=1,
        )

        # sampling
        self._timed_method(MonteCarloSampler, "solve", "sampling.solve")
        return self

    def remove(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    @property
    def mean_clip_fraction(self) -> float:
        if not self._clip_fractions:
            return 0.0
        return float(np.mean(self._clip_fractions))


def layer_metrics(rec: SpanRecorder, inst: Instrumentation) -> dict[str, float]:
    """The per-layer figures derivable from the spans and wrapper counts."""
    c, total, self_s = rec.counts, rec.total_s, rec.self_s

    def per(value: float, n: float, scale: float = 1e6) -> float:
        return value / n * scale if n else 0.0

    fevals = c["acquisition.fevals"]
    sim_rows = c["circuits.sim_rows"]
    out = {
        "acquisition.propose_s": total["acquisition.propose"],
        "acquisition.fevals": fevals,
        "acquisition.feval_us": per(total["acquisition.evaluate"], fevals),
        "optim.direct_s": self_s["optim.direct"],
        "optim.direct_fevals": c["optim.direct_fevals"],
        "optim.cobyla_s": self_s["optim.cobyla"],
        "optim.cobyla_fevals": c["optim.cobyla_fevals"],
        "gp.refit_s": total["gp.refit"],
        "gp.refits": c["gp.refits"],
        "gp.hyperopt_s": total["gp.hyperopt"],
        "gp.restarts": c["gp.restarts"],
        "gp.lml_evals": c["gp.lml_evals"],
        "gp.lml_eval_us": per(total["gp.lml"], c["gp.lml_evals"]),
        "gp.penalty_starts": c["gp.penalty_starts"],
        "gp.jitter_retries": c["gp.jitter_retries"],
        "gp.predict_s": total["gp.predict"],
        "gp.predict_rows": c["gp.predict_rows"],
        "kernels.evals": c["kernels.evals"],
        "kernels.s": self_s["kernels.call"],
        "embedding.select_s": total["embedding.select"],
        "embedding.select_gp_fits": c["embedding.select_gp_fits"],
        "embedding.clip_fraction": inst.mean_clip_fraction,
        "bo.engine_self_s": rec.layer_self_s("bo"),
        "runtime.broker_self_s": self_s["runtime.evaluate_batch"],
        "runtime.evaluate_batch_calls": c["runtime.evaluate_batch_calls"],
        "runtime.cache_hits": c["runtime.cache_hits"],
        "runtime.cache_misses": c["runtime.cache_misses"],
        "runtime.cache_open_s": total["runtime.cache_open"],
        "runtime.cache_put_s": total["runtime.cache_put"],
        "runtime.ledger_append_s": total["runtime.ledger_append"],
        "runtime.ledger_events": c["runtime.ledger_events"],
        "runtime.retries": c["runtime.retries"],
        "runtime.failed_evals": c["runtime.failed_evals"],
        "runtime.write_pass_s": total["runtime.write_pass"],
        "runtime.read_pass_s": total["runtime.read_pass"],
        "circuits.sim_s": total["circuits.sim"],
        "circuits.sim_rows": sim_rows,
        "circuits.sim_us_per_row": per(total["circuits.sim"], sim_rows),
        "sampling.self_s": rec.layer_self_s("sampling"),
    }
    # the other layers' self times are already named above: optim is
    # direct + cobyla, kernels.s, circuits.sim_s, sampling.self_s and
    # bo.engine_self_s
    for layer in ("acquisition", "gp", "embedding", "runtime"):
        out[f"{layer}.self_s"] = rec.layer_self_s(layer)
    return out


def attributed_s(rec: SpanRecorder) -> float:
    """Sum of every layer's self time (equals the root spans' duration)."""
    return sum(rec.layer_self_s(layer) for layer in LAYERS)
