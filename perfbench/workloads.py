"""The benchmark's three workloads.

Each workload builds its testbenches in :meth:`setup`, prepares any fresh
on-disk state in :meth:`prepare_round` (untimed), runs every campaign of
one round in :meth:`run_round` (timed as ``campaign_s``) and checks the
round's outputs in :meth:`check_round`.  The program receives only the
campaign seeds, which ``run.py`` derives from ``--seed``.

Why these three: on a 2-vCPU machine the layer that costs most depends on
the campaign's shape.  Table 1's cell is bound by acquisition
optimisation, the 60-D LDO campaign by GP fitting and dimension
selection, and the ledgered Monte Carlo baseline by the runtime layer
(digests, ledger lines, cache shards).
"""

from __future__ import annotations

import contextlib
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import checks


@dataclass
class Outcome:
    """One campaign of a round: its output or the error it raised."""

    label: str
    seed: int
    spec: str
    result: Any = None
    error: str | None = None
    problems: list[str] = field(default_factory=list)
    distinct: int = 0
    seconds: float = 0.0

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)

    def record(self, testbench: Any) -> dict[str, Any]:
        """The per-campaign behaviour record printed on every run."""
        out: dict[str, Any] = {"campaign": self.label, "seed": self.seed, "spec": self.spec}
        if self.result is None:
            out["error"] = self.error
            return out
        summary = self.result.summarize(testbench.threshold(self.spec))
        out.update(
            detected=summary.detected,
            first_failure=summary.first_failure_index,
            distinct_sims=self.distinct,
            n_simulations=summary.n_simulations,
            d=self.result.model_dim,
            best=summary.worst_value,
            seconds=self.seconds,
        )
        if self.problems:
            out["problems"] = self.problems
        return out


class Workload:
    name = ""
    #: Campaign seeds per round; more seeds average out the spread in
    #: cost and in distinct designs between seeds.
    seeds_per_round = 1
    #: Name of the traced round's root span (its layer owns the loop's
    #: own time).
    root_span = "bo.round"

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir
        self.setup_hooks()

    def setup_hooks(self) -> None:
        """Reset the hooks the traced round replaces with its recorder's."""
        #: Opens a benchmark-level span.
        self.span = lambda name: contextlib.nullcontext()
        #: Called as each campaign starts (the traced round's run id).
        self.on_campaign = lambda: None

    def attempt(self, outcome: Outcome, run: Any) -> Outcome:
        """Run one campaign; an exception marks it failed and the round goes on."""
        self.on_campaign()
        start = time.perf_counter()
        try:
            outcome.result = run()
        except Exception as exc:  # the round must finish to report the rest
            traceback.print_exc()
            outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.seconds = time.perf_counter() - start
        return outcome

    def prepare_round(self, index: int) -> None:
        """Untimed per-round preparation."""

    def program_telemetry(self) -> Any:
        """The program's own telemetry for the traced round."""
        from repro.telemetry import MetricsRegistry, Telemetry, Tracer

        return Telemetry(tracer=Tracer(), metrics=MetricsRegistry())

    def run_round(self, seeds: list[int], telemetry: Any = None) -> list[Outcome]:
        raise NotImplementedError

    def check_round(self, outcomes: list[Outcome]) -> None:
        raise NotImplementedError

    def round_sizes(self) -> dict[str, float]:
        """On-disk bytes the round left (cache shards, ledgers)."""
        return {"runtime.cache_bytes": 0.0, "runtime.ledger_bytes": 0.0}

    def finish_round(self) -> None:
        """Remove the round's on-disk state."""


class _RemboWorkload(Workload):
    """Shared checks of the two REMBO-pBO workloads."""

    spec = ""
    budget = 0

    def check_round(self, outcomes: list[Outcome]) -> None:
        bounds = self.testbench.bounds()
        for o in outcomes:
            if o.result is None:
                continue
            r = o.result
            o.distinct = checks.distinct_rows(r.X)
            o.problems += checks.check_rows(self.testbench, self.spec, r.X, r.y)
            o.problems += checks.check_embedding(r, bounds[:, 0], bounds[:, 1])
            o.problems += checks.check_budget(r.X.shape[0], self.budget)


class Table1UVLO(_RemboWorkload):
    """Table 1's proposed-method cell: 19-D UVLO, d = 8, 5 + 5 x 19."""

    name = "table1-uvlo"
    seeds_per_round = 12
    spec = "delta_vthl"

    def setup(self, workdir: Path) -> None:
        super().setup(workdir)
        from repro.circuits.behavioral.uvlo import UVLOTestbench
        from repro.experiments.config import uvlo_config
        from repro.experiments.methods import run_method

        self._run_method = run_method
        self._config = uvlo_config
        self.testbench = UVLOTestbench()
        self.testbench.objective(self.spec)
        cfg = uvlo_config()
        self.budget = cfg.n_init + cfg.n_batches * cfg.batch_size

    def run_round(self, seeds: list[int], telemetry: Any = None) -> list[Outcome]:
        return [
            self.attempt(
                Outcome(f"seed={s}", s, self.spec),
                lambda s=s: self._run_method(
                    "This work", self.testbench, self.spec,
                    self._config(seed=s), telemetry=telemetry,
                ),
            )
            for s in seeds
        ]


class RefitLDO(_RemboWorkload):
    """60-D LDO quiescent current, Algorithm 2 picks d, 20 + 19 x 5."""

    name = "refit-ldo"
    seeds_per_round = 4
    spec = "quiescent_current"
    n_init = 20
    n_batches = 19
    batch_size = 5
    budget = n_init + n_batches * batch_size

    def setup(self, workdir: Path) -> None:
        super().setup(workdir)
        from repro.bo.rembo import RemboBO
        from repro.campaign import Campaign
        from repro.circuits.behavioral.ldo import LDOTestbench

        self._campaign = Campaign
        self._engine = RemboBO
        self.testbench = LDOTestbench()
        self.objective = self.testbench.objective(self.spec)

    def run_round(self, seeds: list[int], telemetry: Any = None) -> list[Outcome]:
        def run(s: int) -> Any:
            campaign = self._campaign(
                self.objective,
                self._engine(batch_size=self.batch_size, seed=s),
                seed=s,
                telemetry=telemetry,
            )
            return campaign.run(
                n_init=self.n_init,
                n_batches=self.n_batches,
                threshold=self.objective.threshold,
            ).run

        return [
            self.attempt(Outcome(f"seed={s}", s, self.spec), lambda s=s: run(s))
            for s in seeds
        ]


class MCLedger(Workload):
    """Table 2's Monte Carlo baseline through a persistent cache and ledger.

    A cold pass simulates ``ldo_config().mc_samples`` uniform designs for
    each of the three LDO specs, writing cache shards and one ledger per
    spec; a second pass runs the same three campaigns over the same cache
    (re-opened from disk) with fresh ledgers, so every design is served
    from the cache.
    """

    name = "mc-ledger"
    root_span = "sampling.round"
    #: One seed per spec (a shorter ``--seeds`` list is cycled).
    seeds_per_round = 3
    #: Rows per spec re-simulated row by row in the checks, besides every
    #: failing row: a scalar re-simulation of all 150 000 rows would take
    #: longer than the campaigns.
    scalar_sample = 1000

    def setup(self, workdir: Path) -> None:
        super().setup(workdir)
        from repro.bo.engine import RunSpec
        from repro.circuits.behavioral.ldo import LDOTestbench
        from repro.experiments.config import ldo_config
        from repro.runtime.broker import RuntimePolicy
        from repro.sampling.monte_carlo import MonteCarloSampler

        self._policy = RuntimePolicy
        self._sampler = MonteCarloSampler
        self._run_spec = RunSpec
        self.n_samples = ldo_config().mc_samples
        self.testbench = LDOTestbench()
        self.specs = list(self.testbench.specs)
        self.objectives = {s: self.testbench.objective(s) for s in self.specs}

    def program_telemetry(self) -> Any:
        # counters only: a span per simulated design would dwarf the run
        from repro.telemetry import MetricsRegistry, Telemetry

        return Telemetry(metrics=MetricsRegistry())

    def _ledger(self, phase: str, spec: str) -> Path:
        return self.round_dir / f"{phase}-{spec}.jsonl"

    def prepare_round(self, index: int) -> None:
        self.round_dir = self.workdir / f"round-{index}"
        shutil.rmtree(self.round_dir, ignore_errors=True)
        self.round_dir.mkdir(parents=True)
        self.cold_policy = self._policy.shared(
            cache_path=self.round_dir / "cache",
            ledger_path=self._ledger("cold", self.specs[0]),
        )

    def _pass(self, phase: str, first: Any, seeds: list[int], telemetry: Any) -> list[Outcome]:
        outcomes = []
        for i, spec in enumerate(self.specs):
            seed = seeds[i % len(seeds)]
            policy = (
                first
                if i == 0
                else self._policy.shared(
                    cache=first.cache, ledger_path=self._ledger(phase, spec)
                )
            )
            objective = self.objectives[spec]
            outcomes.append(
                self.attempt(
                    Outcome(f"{phase}/{spec}", seed, spec),
                    lambda: self._sampler(self.n_samples, seed=seed).solve(
                        objective=objective,
                        spec=self._run_spec(threshold=objective.threshold),
                        policy=policy,
                        telemetry=telemetry,
                    ),
                )
            )
            policy.ledger.close()
        return outcomes

    def run_round(self, seeds: list[int], telemetry: Any = None) -> list[Outcome]:
        with self.span("runtime.write_pass"):
            cold = self._pass("cold", self.cold_policy, seeds, telemetry)
        with self.span("runtime.read_pass"):
            warm_policy = self._policy.shared(
                cache_path=self.round_dir / "cache",
                ledger_path=self._ledger("warm", self.specs[0]),
            )
            warm = self._pass("warm", warm_policy, seeds, telemetry)
        return cold + warm

    def check_round(self, outcomes: list[Outcome]) -> None:
        n = len(self.specs)
        for cold, warm in zip(outcomes[:n], outcomes[n:]):
            spec = cold.spec
            if cold.result is not None:
                X, y = cold.result.X, cold.result.y
                cold.distinct = checks.distinct_rows(X)
                rng = np.random.default_rng(cold.seed)
                sample = rng.choice(
                    X.shape[0], size=min(self.scalar_sample, X.shape[0]), replace=False
                )
                rows = np.union1d(
                    sample, np.flatnonzero(y < self.testbench.threshold(spec))
                )
                cold.problems += checks.check_rows(self.testbench, spec, X, y, rows=rows)
                cold.problems += checks.check_budget(X.shape[0], self.n_samples)
                cold.problems += checks.check_cold_ledger(
                    self._ledger("cold", spec), self.objectives[spec], X
                )
            if warm.result is not None and cold.result is not None:
                warm.problems += checks.check_cache_served(
                    cold.result.y, warm.result.y, self._ledger("warm", spec)
                )
            elif warm.result is not None:
                warm.problems.append("no cold pass to compare the cached y with")

    def round_sizes(self) -> dict[str, float]:
        def size(paths: Any) -> float:
            return float(sum(p.stat().st_size for p in paths))

        return {
            "runtime.cache_bytes": size((self.round_dir / "cache").glob("shard-*.jsonl")),
            "runtime.ledger_bytes": size(self.round_dir.glob("*.jsonl")),
        }

    def finish_round(self) -> None:
        shutil.rmtree(self.round_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Table1UVLO, RefitLDO, MCLedger)}
