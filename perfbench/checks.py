"""Correctness checks on campaign outputs, each computed apart from the program.

Every check returns a list of problems; an empty list means it passed.
The checks recompute what they compare against (scalar re-simulation,
the embedding map of Eq. 11, digests of the ledger) or test properties
the method must have; none compares with a stored copy of an earlier
run's output.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Sequence

import numpy as np

#: Rounding the result cache addresses designs with; rows equal after it
#: are one design.
CACHE_DECIMALS = 12

#: Tolerance of the Eq. 11 check.  The program computes ``A z`` for a
#: whole batch with one BLAS product; the check recomputes it row by row,
#: which may differ in the last bits.
EMBEDDING_ATOL = 1e-9


def distinct_rows(X: np.ndarray) -> int:
    """Designs in ``X`` that differ after rounding to the cache's decimals."""
    if X.shape[0] == 0:
        return 0
    rounded = np.round(np.asarray(X, dtype=float), CACHE_DECIMALS) + 0.0
    return int(np.unique(rounded, axis=0).shape[0])


def check_rows(
    testbench: Any,
    spec_name: str,
    X: np.ndarray,
    y: np.ndarray,
    rows: Sequence[int] | None = None,
) -> list[str]:
    """Scalar re-simulation, pass/fail agreement and the variation box.

    ``rows`` limits the scalar checks to a subset; the box check always
    covers every row.
    """
    problems: list[str] = []
    spec = testbench.specs[spec_name]
    threshold = testbench.threshold(spec_name)
    bounds = testbench.bounds()
    outside = np.flatnonzero(
        np.any((X < bounds[:, 0]) | (X > bounds[:, 1]), axis=1)
    )
    if outside.size:
        problems.append(
            f"{outside.size} rows outside the variation box, first row {outside[0]}"
        )
    indices = range(X.shape[0]) if rows is None else rows
    wrong_y: list[int] = []
    wrong_fail: list[int] = []
    for i in indices:
        x = X[i]
        expected = spec.to_minimization(testbench.performance(spec_name, x))
        if not expected == y[i]:
            wrong_y.append(int(i))
        if testbench.is_failure(spec_name, x) != bool(y[i] < threshold):
            wrong_fail.append(int(i))
    if wrong_y:
        i = wrong_y[0]
        problems.append(
            f"{len(wrong_y)} recorded y differ from the scalar re-simulation, "
            f"first row {i}"
        )
    if wrong_fail:
        problems.append(
            f"is_failure disagrees with y < T on {len(wrong_fail)} rows, "
            f"first row {wrong_fail[0]}"
        )
    return problems


def check_budget(n_rows: int, expected: int) -> list[str]:
    if n_rows != expected:
        return [f"{n_rows} rows recorded, the budget is {expected}"]
    return []


def check_embedding(result: Any, lower: np.ndarray, upper: np.ndarray) -> list[str]:
    """Every proposed row satisfies ``x = clip(A z)`` (Eq. 11)."""
    embedding = result.extra.get("embedding")
    if embedding is None or result.Z is None:
        return ["result carries no embedding matrix or Z"]
    A = np.asarray(embedding.matrix, dtype=float)
    n_init = result.n_init
    X = result.X[n_init:]
    Z = result.Z[n_init:]
    if Z.shape[0] != X.shape[0]:
        return [f"{Z.shape[0]} embedded rows for {X.shape[0]} proposed rows"]
    expected = np.array(
        [np.clip(np.einsum("dk,k->d", A, z), lower, upper) for z in Z]
    ).reshape(X.shape)
    off = np.flatnonzero(np.any(np.abs(X - expected) > EMBEDDING_ATOL, axis=1))
    if off.size:
        return [
            f"{off.size} proposed rows are not clip(A z), first row "
            f"{n_init + int(off[0])}"
        ]
    return []


def check_cache_served(
    cold_y: np.ndarray, warm_y: np.ndarray, warm_ledger: Path
) -> list[str]:
    """The cache-served pass returns the cold pass's y and simulates nothing."""
    problems: list[str] = []
    if cold_y.shape != warm_y.shape:
        problems.append(f"cold pass has {cold_y.shape[0]} rows, cached {warm_y.shape[0]}")
    else:
        differ = np.flatnonzero(cold_y.view(np.int64) != warm_y.view(np.int64))
        if differ.size:
            problems.append(
                f"{differ.size} cached y are not bitwise equal to the cold "
                f"pass, first row {int(differ[0])}"
            )
    data = warm_ledger.read_bytes()
    completed = data.count(b'"event":"completed"')
    if completed:
        problems.append(f"the cache-served pass simulated {completed} designs")
    return problems


def check_cold_ledger(ledger: Path, objective: Any, X: np.ndarray) -> list[str]:
    """One completed event per simulated design, and a clean warm replay."""
    from repro.runtime.replay import verify_replay

    report = verify_replay(ledger, objective, mode="warm")
    problems: list[str] = []
    designs = distinct_rows(X)
    if report.n_completed != report.n_unique or report.n_unique != designs:
        problems.append(
            f"ledger holds {report.n_completed} completed events for "
            f"{report.n_unique} digests; the pass simulated {designs} designs"
        )
    if not report.zero_divergence:
        problems.append(
            f"warm replay found {len(report.divergences)} divergences: "
            f"{report.first_divergence.render()}"
        )
    return problems
