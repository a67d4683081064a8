"""Campaign benchmark: end-to-end and per-layer cost of three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table1-uvlo --seed 0 --seconds 30 --trace 0

``--seed`` makes the campaign seeds (``--seeds 2019,7`` names them
instead).  Each run repeats whole rounds of the workload's campaigns while
the next round still fits in ``--seconds`` (at least one round), checks
every campaign's output, prints one behaviour record per campaign and
ends with one JSON line: ``correct``, campaigns ``attempted`` and
``failed``, and the metrics.  With ``--trace 0`` the metrics are the
end-to-end ones, medians over the rounds; with ``--trace 1`` the run makes
one untraced round and one traced round and reports the per-layer
metrics.  ``--workload all`` runs the three workloads one after the other
and prints a ``workload <name> {...}`` result line for each.  Everything
runs in this one process (no worker pool, broker inline) under the
numerical libraries' default threading; only the ``setup_s`` samples start
fresh interpreters.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for caches, ledgers and traces; listed in .gitignore.
WORKDIR = ROOT / ".perfbench-work"
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120

#: Modules each workload needs before its first campaign.
MODULES = {
    "table1-uvlo": (
        "repro.experiments.methods",
        "repro.experiments.config",
        "repro.circuits.behavioral.uvlo",
    ),
    "refit-ldo": ("repro.campaign", "repro.bo.rembo", "repro.circuits.behavioral.ldo"),
    "mc-ledger": (
        "repro.sampling.monte_carlo",
        "repro.runtime.broker",
        "repro.experiments.config",
        "repro.circuits.behavioral.ldo",
    ),
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*MODULES, "all"],
        help="one workload, or all three one after the other in this process",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seeds",
        type=lambda text: [int(s) for s in text.split(",") if s],
        default=None,
        help="comma-separated campaign seeds; overrides the ones --seed makes",
    )
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up and exit (one set-up time sample)",
    )
    return parser.parse_args(argv)


def campaign_seeds(seed: int, count: int) -> list[int]:
    import numpy as np

    entropy = seed % 2**64  # SeedSequence takes non-negative entropy only
    return [int(s) for s in np.random.SeedSequence(entropy).generate_state(count)]


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_setup(name: str, args: argparse.Namespace) -> float:
    """Wall time of a fresh interpreter that sets the workload up and exits."""
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", name, "--seed", str(args.seed), "--setup-only",
    ]
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        timeout=SETUP_TIMEOUT_S, check=False,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(
            f"set-up sample failed ({proc.returncode}): {proc.stderr.decode()[-2000:]}"
        )
    return elapsed


@dataclass
class Round:
    """Timings and outcomes of one round."""

    outcomes: list
    campaign_s: float
    cpu_s: float
    rss_mb: float

    @property
    def distinct_sims(self) -> int:
        return sum(o.distinct for o in self.outcomes)


def run_round(wl, seeds, span=None, telemetry=None) -> Round:
    """Run one prepared round's campaigns, timed."""
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    with span(wl.root_span) if span else contextlib.nullcontext():
        outcomes = wl.run_round(seeds, telemetry)
    t1 = time.perf_counter()
    cpu1 = cpu_seconds()
    return Round(outcomes, t1 - t0, cpu1 - cpu0, peak_rss_mb())


def traced_round(wl, seeds, index, problems):
    """One round under the layer wrappers; returns it and its metrics."""
    from layers import Instrumentation, SpanRecorder, attributed_s, layer_metrics

    wl.prepare_round(index)
    rec = SpanRecorder()
    telemetry = wl.program_telemetry()
    inst = Instrumentation(rec, telemetry).install()
    wl.span = rec.span
    wl.on_campaign = lambda: setattr(rec, "run_id", rec.run_id + 1)
    try:
        rnd = run_round(wl, seeds, span=rec.span, telemetry=telemetry)
    finally:
        inst.remove()
        wl.setup_hooks()
    wl.check_round(rnd.outcomes)
    metrics = layer_metrics(rec, inst)
    metrics.update(wl.round_sizes())
    wl.finish_round()

    root = rec.total_s[wl.root_span]
    gap = abs(attributed_s(rec) - root)
    if gap > 1e-6 * root + 1e-6:
        problems.append(f"layers account for {attributed_s(rec):.6f} s of a {root:.6f} s round")
    counters = telemetry.snapshot().get("counters", {})
    for ours, theirs in (("cache_hits", "cache.hits"), ("cache_misses", "cache.misses")):
        if rec.counts[f"compare.{ours}"] != counters.get(theirs, 0):
            problems.append(
                f"wrappers counted {rec.counts[f'compare.{ours}']:.0f} {ours}, "
                f"the broker's {theirs} counter {counters.get(theirs, 0)}"
            )
    acq_spans = [s for s in getattr(telemetry.tracer, "finished", []) if s["name"] == "acq_opt"]
    if acq_spans:
        program_fevals = sum(s["attrs"].get("fevals", 0) for s in acq_spans)
        optim_fevals = rec.counts["optim.direct_fevals"] + rec.counts["optim.cobyla_fevals"]
        for label, value in (("acquisition", rec.counts["acquisition.fevals"]), ("optim", optim_fevals)):
            if value != program_fevals:
                problems.append(
                    f"{label} wrappers counted {value:.0f} fevals, the program's "
                    f"acq_opt spans {program_fevals}"
                )
    rec.write_jsonl(WORKDIR / f"trace-{wl.name}.jsonl")
    metrics["trace.campaign_s"] = rnd.campaign_s
    metrics["trace.spans"] = float(rec.n_spans)
    return rnd, metrics


def proposal_metrics(outcomes) -> dict[str, float]:
    """Proposals that repeat an earlier design of the same campaign."""
    proposals = repeats = 0
    for o in outcomes:
        if o.result is None:
            continue
        proposed = o.result.X.shape[0] - o.result.n_init
        if proposed > 0:
            proposals += proposed
            repeats += o.result.X.shape[0] - o.distinct
    return {
        "bo.proposals": float(proposals),
        "bo.repeat_proposals": float(repeats),
        "bo.distinct_ratio": 1.0 - repeats / proposals if proposals else 0.0,
    }


def run_workload(name: str, args: argparse.Namespace) -> dict | None:
    """Run one workload; returns its result, or None for ``--setup-only``."""
    workdir = WORKDIR / f"{name}-{os.getpid()}"
    setup_samples = (
        [] if args.setup_only else [time_setup(name, args) for _ in range(SETUP_SAMPLES)]
    )
    t0 = time.perf_counter()
    for module in MODULES[name]:
        importlib.import_module(module)
    import_s = time.perf_counter() - t0

    from workloads import WORKLOADS

    wl = WORKLOADS[name]()
    try:
        wl.setup(workdir)
        if args.setup_only:
            wl.prepare_round(0)
            wl.finish_round()
            return None
        seeds = args.seeds or campaign_seeds(args.seed, wl.seeds_per_round)
        rounds: list[Round] = []
        problems: list[str] = []
        layer: dict[str, float] = {}
        loop_start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            wl.prepare_round(len(rounds))
            rnd = run_round(wl, seeds)
            wl.check_round(rnd.outcomes)
            wl.finish_round()
            rounds.append(rnd)
            if args.trace:
                traced, layer = traced_round(wl, seeds, len(rounds), problems)
                rounds.append(traced)
                break
            now = time.perf_counter()
            if now - loop_start + (now - round_start) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = [o for rnd in rounds for o in rnd.outcomes]
    for o in outcomes:
        print(f"record {name} " + json.dumps(o.record(wl.testbench), default=float))
        for problem in o.problems:
            problems.append(f"{o.label}: {problem}")
    for problem in problems:
        print(f"check failed: {name}: {problem}", file=sys.stderr)

    if args.trace:
        untraced = rounds[0]
        layer.update(proposal_metrics(rounds[1].outcomes))
        layer["setup.import_s"] = import_s
        layer["trace.overhead_s"] = layer["trace.campaign_s"] - untraced.campaign_s
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layer.items()}
    else:
        values = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "campaign_s": (statistics.median(r.campaign_s for r in rounds), "s"),
            "cpu_s": (statistics.median(r.cpu_s for r in rounds), "s"),
            "peak_rss_mb": (rounds[0].rss_mb, "MB"),
            "distinct_sims": (
                float(statistics.median(r.distinct_sims for r in rounds)), "count"
            ),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    return {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    names = list(MODULES) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        result = run_workload(name, args)
        if result is None:
            continue
        correct = correct and result["correct"]
        if len(names) > 1:
            print(f"workload {name} " + json.dumps(result))
        else:
            print(json.dumps(result))
    return 0 if correct else 1


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_us") or name.endswith("_us_per_row"):
        return "us"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio") or name.endswith("_fraction"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
