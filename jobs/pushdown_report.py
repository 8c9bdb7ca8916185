"""Table 1b — uplink bytes under cloud vs push-down placement.

    python jobs/pushdown_report.py [--duration-s 3600]

Quantifies the paper's "push computation to IoT devices" claim on the
simulated coordinator/worker topology with selectivities measured on
the synthetic SNCB streams (no Spark needed — edge-side operators are
the MEOS numpy kernels); see ``repro.core.throughput.table1b``.
"""
import argparse

from repro.core.throughput import table1b

if __name__ == "__main__":
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--duration-s", type=float, default=3600.0)
    p.add_argument("--dt", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()

    df = table1b(duration_s=args.duration_s, dt=args.dt, seed=args.seed)
    df["uplink_mb"] = df["bytes_shipped"] / 1e6
    print(
        df[["qid", "strategy", "events_generated", "events_shipped", "uplink_mb",
            "savings_frac"]].to_string(index=False, float_format="{:.4f}".format)
    )
