"""Table 1 — per-query ingestion rate & throughput, paper vs measured.

    spark-submit jobs/table1_throughput.py [--duration-s 7200 --dt 0.25]

Prints the paper's §3 numbers next to ours and the Q1-normalised
ratios (the shape comparison recorded in EXPERIMENTS.md).
"""
import argparse

from repro.core.throughput import format_table1, table1

from run_query import get_spark

if __name__ == "__main__":
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--duration-s", type=float, default=7200.0)
    p.add_argument("--dt", type=float, default=0.25)
    p.add_argument("--batch-rows", type=int, default=50_000)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    spark = get_spark("nebulameos-table1")
    spark.sparkContext.setLogLevel("ERROR")
    df = table1(
        spark,
        duration_s=args.duration_s,
        dt=args.dt,
        batch_rows=args.batch_rows,
        seed=args.seed,
    )
    print(format_table1(df))
    print("\nQ1-normalised throughput (shape comparison):")
    print(
        df[["qid", "ratio_vs_q1", "paper_ratio_vs_q1"]]
        .round(3)
        .to_string(index=False)
    )
    spark.stop()
