"""Layered benchmark of levyrisk, timed against a co-measured reference kernel.

    python3 bench/run.py --workload alloc_interior --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports levyrisk from ``src``.
Each run repeats whole rounds of seeded jobs (closed loop, one job at a time)
until ``--seconds`` have passed and at least MIN_JOBS jobs are done, checks
every output against computations of its own, and prints one JSON object as
the last line of standard output. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` installs counting wrappers and reports per-layer ones.
See README.md for the metrics, the workloads and the reference kernel.
"""
import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One thread for numpy's pool as well: jobs run one at a time on a 2-core box.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_JOBS = 40  # enough jobs that every run reports a p90
# Extra set-ups in fresh processes, half before and half after the timed
# loop so that they sample more than one phase of the machine's drift;
# setup_s is the median of these and the run's own set-up.
SETUP_SUBPROCESSES = 6
EXIT_NO_PROGRAM = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for setup_s)")
    return parser.parse_args(argv)


def import_program():
    """Import levyrisk from this checkout's src, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import levyrisk
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import levyrisk from {SRC}: {exc}\n")
        sys.exit(EXIT_NO_PROGRAM)
    if SRC.resolve() not in Path(levyrisk.__file__).resolve().parents:
        sys.stderr.write(f"error: levyrisk was imported from {levyrisk.__file__}, not {SRC}\n")
        sys.exit(EXIT_NO_PROGRAM)
    return levyrisk


def run_rounds(workload, jobs, seconds, min_jobs, parts, first_round=0, tracer=None):
    """Run whole rounds until `seconds` have passed and `min_jobs` are done.

    Each job is timed alone; the reference kernel `parts` run right after it,
    and the job's output is checked after that, outside both timed regions.
    """
    import refkernel

    results = []
    ref = refkernel.time_parts(parts, workload.ref_repeats)
    start = time.perf_counter()
    rnd = first_round
    while True:
        for k, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = len(results)
            error = output = None
            t0 = time.perf_counter()
            try:
                output = workload.run(job, rnd)
            except Exception:  # a failed operation is counted, not fatal
                error = traceback.format_exc()
            elapsed = time.perf_counter() - t0
            after = refkernel.time_parts(parts, workload.ref_repeats)
            problems = [] if error else workload.check(job, rnd, output)
            results.append({"round": rnd, "slot": k, "s": elapsed, "ref_before": ref,
                            "ref_after": after, "error": error, "problems": problems})
            ref = after
        rnd += 1
        if time.perf_counter() - start >= seconds and len(results) >= min_jobs:
            return results, rnd


def normalised_ms(result, part):
    """Job time in ref_ms: the job's wall time over the mean adjacent kernel time."""
    ref = 0.5 * (result["ref_before"][part] + result["ref_after"][part])
    return result["s"] / ref


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summary(results, part):
    """(normalised times of the jobs that did not fail, jobs per ref_s of busy time)."""
    norm = [normalised_ms(r, part) for r in results if r["error"] is None]
    busy = sum(normalised_ms(r, part) for r in results)
    return norm, 1000.0 * len(norm) / busy


def setup_samples(args, count):
    """Set-up times of `count` fresh processes, run one after another and each waited for."""
    samples = []
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    for _ in range(count):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up subprocess failed: {done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def cli_metrics(workload, jobs, problems):
    """Time parse_config and an in-process main (evar command) on each job's config."""
    import workloads
    from levyrisk import cli

    OUT.mkdir(exist_ok=True)
    path = OUT / f"cli-{workload.name}.cfg"
    parse_ms, main_ms = [], []
    for job in jobs:
        portfolio, seed, n_paths = workloads.cli_portfolio(job, 0)
        text = cli.serialize_portfolio(portfolio, seed=seed, n_paths=n_paths)
        t0 = time.perf_counter()
        cli.parse_config(text)
        parse_ms.append(1000.0 * (time.perf_counter() - t0))
        path.write_text(text)
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["--config", str(path), "--command", "evar", "--format", "json"])
        main_ms.append(1000.0 * (time.perf_counter() - t0))
        if code != 0 or "value" not in json.loads(buf.getvalue()):
            problems.append(f"cli main exited {code} on {path.name}")
    return {
        "cli.parse_config_ms": {"value": statistics.fmean(parse_ms), "unit": "ms"},
        "cli.main_ms": {"value": statistics.fmean(main_ms), "unit": "ms"},
    }


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"expected one of {sorted(workloads.WORKLOADS)}\n")
        return EXIT_NO_PROGRAM
    workload = workloads.WORKLOADS[args.workload]
    t_import = time.perf_counter()
    jobs = workload.make_inputs(args.seed)
    t_inputs = time.perf_counter()
    workload.run(jobs[0], 0)
    t_warm = time.perf_counter()
    setup = {"import": t_import - START, "inputs": t_inputs - t_import, "warmup": t_warm - t_inputs}
    own_setup = t_warm - START
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    part = workload.ref_part
    tracer = None
    problems = []
    detail = {}
    if args.trace == 0:
        samples = [own_setup] + setup_samples(args, SETUP_SUBPROCESSES // 2)
        results, _ = run_rounds(workload, jobs, args.seconds, MIN_JOBS, (part,))
        norm, throughput = summary(results, part)
        samples += setup_samples(args, SETUP_SUBPROCESSES - SETUP_SUBPROCESSES // 2)
        metrics = {
            "jobs_per_ref_s": {"value": throughput, "unit": "1/ref_s"},
            "job_p50_ref_ms": {"value": statistics.median(norm), "unit": "ref_ms"},
            "job_p90_ref_ms": {"value": quantile(norm, 90), "unit": "ref_ms"},
            "setup_s": {"value": statistics.median(samples), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        detail["setup_samples_s"] = samples
    else:
        # Untraced first half for the raw wall and machine figures, traced
        # second half (whole rounds) for the per-layer counts and times.
        plain, next_round = run_rounds(workload, jobs, args.seconds / 2.0, 1, ("interp", "array"))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, _ = run_rounds(workload, jobs, args.seconds / 2.0, 1, (part,), next_round, tracer)
        finally:
            tracer.uninstall()
        results = plain + traced
        ok_plain = [r for r in plain if r["error"] is None]
        _, traced_throughput = summary(traced, part)
        metrics = tracing.layer_metrics(tracer, len(traced))
        metrics.update(cli_metrics(workload, jobs, problems))
        refs = {name: [r["ref_after"][name] for r in plain] for name in ("interp", "array")}
        metrics.update({
            "setup.import_s": {"value": setup["import"], "unit": "s"},
            "setup.inputs_s": {"value": setup["inputs"], "unit": "s"},
            "setup.warmup_s": {"value": setup["warmup"], "unit": "s"},
            "ref.interp_ms": {"value": 1000.0 * statistics.median(refs["interp"]), "unit": "ms"},
            "ref.array_ms": {"value": 1000.0 * statistics.median(refs["array"]), "unit": "ms"},
            "wall.jobs_per_s": {"value": len(ok_plain) / sum(r["s"] for r in plain), "unit": "1/s"},
            "wall.job_p50_ms": {"value": 1000.0 * statistics.median(r["s"] for r in ok_plain),
                                "unit": "ms"},
            "trace.jobs_per_ref_s": {"value": traced_throughput, "unit": "1/ref_s"},
        })

    problems += [p for r in results for p in r["problems"]]
    failed = sum(r["error"] is not None for r in results)
    for r in results:
        if r["error"]:
            sys.stderr.write(f"job failed (round {r['round']}, slot {r['slot']}):\n{r['error']}")
            break
    for p in problems[:10]:
        sys.stderr.write(f"check failed: {p}\n")
    out = {"correct": not problems, "attempted": len(results), "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as handle:
        json.dump({"result": out, "setup": setup, "ref_part": part, **detail,
                   "jobs": [{k: v for k, v in r.items() if k != "problems"} for r in results]},
                  handle)
    if tracer is not None:
        with open(OUT / f"{stem}-spans.json", "w") as handle:
            json.dump({"columns": ["job", "name", "start", "end", "parent"],
                       "spans": tracer.records, "counts": tracer.counts,
                       "total_s": tracer.total, "self_s": tracer.self_time}, handle)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
