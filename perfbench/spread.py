"""Run-to-run spread of the end-to-end metrics, the figure the bounds rest on.

    python3 perfbench/spread.py --workload table1-uvlo --runs 10 --seconds 30

Runs ``run.py`` once per seed (``--first-seed`` onwards, one process after
the other) and prints, for every end-to-end metric, its median and the
distance between the first and third quartiles as a share of the median,
as ``statistics.quantiles(values, n=4)`` gives them.  The last line is
the whole table as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    failed_shares = set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
            ],
            capture_output=True, text=True, check=False,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}, correct={result['correct']}")
        failed_shares.add(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + json.dumps({k: v["value"] for k, v in result["metrics"].items()}))

    table = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        table[name] = {"median": median, "iqr_share": (q3 - q1) / median if median else 0.0}
        print(f"{name:>14}: median {median:.4f}  iqr/median {table[name]['iqr_share']:.4f}")
    print(f"failed shares: {sorted(failed_shares)}")
    print(json.dumps(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
