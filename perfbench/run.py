"""Table-1 benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload geofence --seed 1 --seconds 16 --trace 0

Workloads: ``geofence`` (Q1–Q4 micro-batches), ``gcep`` (Q5–Q8
micro-batches) and ``streaming`` (Q2, Q6, Q7, Q8b through Structured
Streaming); see ``perfbench/README.md`` for why each exists and what
its figures should move. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` is a separate run that wraps the layer calls and prints
the per-layer metrics. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the full
record of the run (settings, host facts, per-query figures, spans) is
written to ``.bench_out/``.

Run it from the root of the repository; everything it writes stays
below that root.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("geofence", "gcep", "streaming")

#: End-to-end metrics and their units. ``batch_ms_p75`` is the tail: a
#: run times at least 40 batches, so it has 10 samples beyond it.
END_TO_END = {
    "events_per_s": "1/s", "mb_per_s": "MB/s", "batch_ms_p50": "ms",
    "batch_ms_p75": "ms", "setup_s": "s", "ok_frac": "frac",
    "driver_peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def prepare_env(work: Path, cfg) -> None:
    """Point every temporary file of Python, Spark and the JVM below
    ``work`` and fix the Spark launch settings."""
    for d in ("tmp", "local", "warehouse", "checkpoints"):
        (work / d).mkdir(parents=True, exist_ok=True)
    tmp = str(work / "tmp")
    os.environ["TMPDIR"] = tmp
    # Without perf data the JVMs keep nothing in /tmp/hsperfdata_<user>.
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    import tempfile

    tempfile.tempdir = tmp
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "local")
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src, str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    confs = {
        "spark.driver.host": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.local.dir": str(work / "local"),
        "spark.sql.warehouse.dir": str(work / "warehouse"),
        "spark.sql.streaming.checkpointLocation": str(work / "checkpoints"),
        "spark.sql.shuffle.partitions": str(cfg.shuffle_partitions),
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
    }
    args = ["--master", cfg.master, "--driver-memory", cfg.driver_memory,
            "--driver-java-options", f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"]
    for k, v in confs.items():
        args += ["--conf", f"{k}={v}"]
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join(args + ["pyspark-shell"])


def start_session():
    from pyspark.sql import SparkSession

    spark = SparkSession.builder.appName("perfbench").getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and the JVM it runs in, and wait for the JVM to end."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            proc.stdin.close()
            proc.wait(timeout=60)
        SparkContext._gateway = None
        SparkContext._jvm = None


def jvm_facts(spark) -> dict:
    jvm = spark._jvm
    pid = jvm.java.lang.ProcessHandle.current().pid()
    return {
        "java": jvm.java.lang.System.getProperty("java.version"),
        "jvm_pid": pid,
        "master": spark.sparkContext.master,
        "default_parallelism": spark.sparkContext.defaultParallelism,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "adaptive": spark.conf.get("spark.sql.adaptive.enabled"),
    }


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of process ``pid`` in MB (0 when unreadable)."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def run(args) -> dict:
    from perfbench import workloads as W
    from perfbench.trace import ProgressListener, Tracer

    cfg = W.Settings()
    t_inputs = time.perf_counter()
    inp = W.make_inputs(args.workload, args.seed, cfg)
    host_ref = W.host_ref_blocks(5)
    excluded_s = time.perf_counter() - t_inputs
    phases = {"inputs_s": excluded_s}

    t = time.perf_counter()
    spark = start_session()
    phases["session_s"] = time.perf_counter() - t
    try:
        facts = {**W.os_facts(), **jvm_facts(spark)}
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        first_timed: list[float] = []
        mark = lambda: first_timed.append(time.perf_counter())  # noqa: E731
        if args.workload == "streaming":
            listener = ProgressListener()
            spark.streams.addListener(listener)
            loop = W.run_streaming(
                spark, inp, cfg, seconds=args.seconds, listener=listener,
                tracer=tracer, on_first_timed=mark,
            )
        else:
            loop = W.run_microbatch(
                spark, args.workload, inp, cfg, seconds=args.seconds,
                tracer=tracer, on_first_timed=mark,
            )
        jvm_rss = peak_rss_mb(facts["jvm_pid"])
        phases["warmup_s"] = first_timed[0] - t - phases["session_s"]
        phases["timed_s"] = time.perf_counter() - first_timed[0]
    finally:
        t = time.perf_counter()
        stop_session(spark)
        phases["stop_s"] = time.perf_counter() - t
    host_ref += W.host_ref_blocks(5)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "settings": asdict(cfg), "host": facts,
        "timed_wall_s": loop.wall_s, "events": loop.events,
        "attempted": loop.attempted, "failed": loop.failed,
        "batch_ms": {q: loop.batch_ms[q] for q in loop.qids},
        "host_ref_ms_blocks": host_ref, "phases": phases,
    }
    if args.trace:
        figs = W.layer_figures(loop, tracer, args.workload)
        metrics = W.workload_layers(figs)
        metrics["jvm_peak_rss_mb"] = jvm_rss
        metrics["host_ref_ms"] = W.pct(host_ref, 50)
        units = {**W.PER_LAYER, "jvm_peak_rss_mb": "MB", "host_ref_ms": "ms"}
        record["per_query"] = figs
        record["untraced_batch_ms"] = {q: loop.untraced_ms[q] for q in loop.qids}
        record["spans"] = tracer.dump()
    else:
        metrics = loop.end_to_end()
        metrics["setup_s"] = first_timed[0] - T_START - excluded_s
        metrics["driver_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        units = END_TO_END
        record["host_ref_ms"] = W.pct(host_ref, 50)
    record["metrics"] = metrics
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1, default=float))
    print("# host " + json.dumps(facts))
    if args.trace:
        for fig in record["per_query"].values():
            print("# " + json.dumps(fig))
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import Settings

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    prepare_env(work, Settings())
    try:
        result = run(args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
