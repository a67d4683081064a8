"""Self-test of the benchmark's correctness checks, on a tiny budget.

    python3 perfbench/selftest/selftest.py

Each check must pass on a clean result and fail on a deliberately
corrupted copy of it: a y altered by one unit in the last place, a
proposed row moved off ``clip(A z)``, a row dropped from the budget, and a
cache entry changed on disk between the cold and the cache-served pass.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE.parent))

import numpy as np  # noqa: E402

import checks  # noqa: E402


def rembo_result():
    from repro.bo.rembo import RemboBO
    from repro.campaign import Campaign
    from repro.circuits.behavioral.uvlo import UVLOTestbench

    testbench = UVLOTestbench()
    objective = testbench.objective("delta_vthl")
    result = Campaign(
        objective, RemboBO(batch_size=3, embedding_dim=4, seed=7), seed=7
    ).run(n_init=5, n_batches=2, threshold=objective.threshold).run
    return testbench, result


def rembo_problems(testbench, result) -> dict[str, list[str]]:
    bounds = testbench.bounds()
    return {
        "rows": checks.check_rows(testbench, "delta_vthl", result.X, result.y),
        "embedding": checks.check_embedding(result, bounds[:, 0], bounds[:, 1]),
        "budget": checks.check_budget(result.X.shape[0], 5 + 2 * 3),
    }


def mc_passes(workdir: Path, corrupt: bool):
    """A 40-design cold pass and its cache-served repeat, optionally with
    one cache shard entry changed in between."""
    from repro.bo.engine import RunSpec
    from repro.circuits.behavioral.ldo import LDOTestbench
    from repro.runtime.broker import RuntimePolicy
    from repro.sampling.monte_carlo import MonteCarloSampler

    objective = LDOTestbench().objective("undershoot")
    spec = RunSpec(threshold=objective.threshold)
    results = {}
    for phase in ("cold", "warm"):
        if phase == "warm" and corrupt:
            shard = sorted((workdir / "cache").glob("shard-*.jsonl"))[0]
            lines = shard.read_text().splitlines()
            entry = json.loads(lines[0])
            entry["y"] = entry["y"] + 1e-6
            lines[0] = json.dumps(entry, separators=(",", ":"))
            shard.write_text("\n".join(lines) + "\n")
        policy = RuntimePolicy.shared(
            cache_path=workdir / "cache", ledger_path=workdir / f"{phase}.jsonl"
        )
        results[phase] = MonteCarloSampler(40, seed=3).solve(
            objective=objective, spec=spec, policy=policy
        )
        policy.ledger.close()
    served = checks.check_cache_served(
        results["cold"].y, results["warm"].y, workdir / "warm.jsonl"
    )
    ledger = checks.check_cold_ledger(
        workdir / "cold.jsonl", objective, results["cold"].X
    )
    return served, ledger


def main() -> int:
    failures: list[str] = []

    def expect(case: str, problems: list[str], should_fail: bool) -> None:
        ok = bool(problems) == should_fail
        verdict = "detected" if problems else "clean"
        print(f"{'ok  ' if ok else 'FAIL'} {case}: {verdict} {problems}")
        if not ok:
            failures.append(case)

    testbench, result = rembo_result()
    for name, problems in rembo_problems(testbench, result).items():
        expect(f"clean REMBO run, {name} check", problems, should_fail=False)

    altered = copy.deepcopy(result)
    altered.y[2] = np.nextafter(altered.y[2], np.inf)
    expect("altered y", rembo_problems(testbench, altered)["rows"], should_fail=True)

    moved = copy.deepcopy(result)
    row = moved.n_init + 1
    inside = np.flatnonzero(np.abs(moved.X[row]) < 0.5)
    moved.X[row, inside[0]] += 1e-6
    expect(
        "row moved off clip(A z)",
        rembo_problems(testbench, moved)["embedding"],
        should_fail=True,
    )

    short = copy.deepcopy(result)
    short.X, short.y = short.X[:-1], short.y[:-1]
    expect("row missing from the budget", rembo_problems(testbench, short)["budget"], should_fail=True)

    with tempfile.TemporaryDirectory() as tmp:
        served, ledger = mc_passes(Path(tmp) / "clean", corrupt=False)
        expect("clean cache-served pass", served, should_fail=False)
        expect("clean cold ledger", ledger, should_fail=False)
        served, _ = mc_passes(Path(tmp) / "corrupt", corrupt=True)
        expect("changed cache entry", served, should_fail=True)

    print("selftest:", "FAILED " + ", ".join(failures) if failures else "all cases behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
