"""Benchmark of the lueders CLI and acceptance suite.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a lueders source tree.  One run builds the workload's
inputs from the seed, times set-up in fresh interpreters, warms up with one
untimed op, then runs ops in a closed loop (one client) for S seconds, checks
every output, and prints one JSON result line last.  ``--trace 1`` runs half
the time untraced and half traced, and reports per-layer metrics instead.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Fixed before NumPy loads.  One thread is steadier than two on a shared
# 2-core machine, and it skips the ~1 s first-call cost of starting the
# OpenBLAS thread pool.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "lueders"
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build inputs and run the warm-up op, then exit (one set-up sample)")
    return p.parse_args(argv)


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "platform": platform.platform(),
    }


@contextlib.contextmanager
def _workload_inputs(name: str, seed: int):
    """The workload with its inputs in a private work directory, removed on exit."""
    import workloads

    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        yield workloads.build(name, seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(workload, seconds: float, tracer=None, first_op_id: int = 0, whole_passes=False) -> dict:
    """Closed loop over the workload's schedule for `seconds`, at least one full pass.

    The reference kernel runs between consecutive ops, outside the timed
    calls; each op is also recorded in units of the mean reference time just
    before and after it.  With whole_passes the loop stops only at the end of
    a pass, so counts per pass repeat exactly.
    """
    import reference
    import workloads

    schedule = workload.schedule()
    times = {k.name: [] for k in workload.kinds}
    ratios = {k.name: [] for k in workload.kinds}
    refs = [reference.run_reference()]
    failures: list = []
    start = time.perf_counter()
    i = 0
    while (i < len(schedule) or time.perf_counter() - start < seconds
           or (whole_passes and i % len(schedule))):
        kind = schedule[i % len(schedule)]
        dt, problems = workloads.run_op(workload, kind, first_op_id + i, tracer)
        refs.append(reference.run_reference())
        times[kind.name].append(dt)
        ratios[kind.name].append(dt / ((refs[-2] + refs[-1]) / 2))
        if problems:
            failures.append({"op": kind.name, "problems": problems[:5]})
        i += 1
    return {"times": times, "ratios": ratios, "refs": refs, "attempted": i,
            "passes": i / len(schedule), "failures": failures}


def _summary(workload, run: dict) -> dict:
    """Per-kind medians, summed over the whole mix and per size class."""
    med = {name: statistics.median(ts) for name, ts in run["times"].items()}
    per_size: dict = {}
    for kind in workload.kinds:
        per_size.setdefault(kind.size, []).append(med[kind.name])
    return {
        "mix_s": sum(med.values()),
        "mix_ref": sum(statistics.median(rs) for rs in run["ratios"].values()),
        "reference_s": statistics.median(run["refs"]),
        "ops_per_s": {size: len(ts) / sum(ts) for size, ts in per_size.items()},
        "op_s": sum(sum(ts) for ts in run["times"].values()),
        "samples": {name: len(ts) for name, ts in run["times"].items()},
    }


def _setup_samples(args) -> list:
    """Wall time of fresh interpreters that import, build inputs and warm up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
    return samples


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "lueders" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no lueders sources under {SRC}; run from a lueders source tree\n")
        return 2
    sys.path.insert(0, str(SRC))
    import oracle
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"bench: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}\n")
        return 2

    if args.setup_only:
        with _workload_inputs(args.workload, args.seed) as w:
            _, problems = workloads.run_op(w, w.warmup_kind(), 0)
        return 1 if problems else 0

    env = _environment()
    print(json.dumps({"env": env}), flush=True)
    setup = [] if args.trace else _setup_samples(args)
    self_test_ok = oracle.self_test_passes()

    with _workload_inputs(args.workload, args.seed) as w:
        _, warm_problems = workloads.run_op(w, w.warmup_kind(), -1)
        if args.trace:
            import spans

            untraced = _measure(w, args.seconds / 2, whole_passes=True)
            tracer = spans.Tracer()
            tracer.install()
            traced = _measure(w, args.seconds / 2, tracer, untraced["attempted"], whole_passes=True)
            runs = [untraced, traced]
        else:
            runs = [_measure(w, args.seconds)]

    failures = [f for r in runs for f in r["failures"]]
    if warm_problems:
        failures.append({"op": f"warm-up {w.warmup_kind().name}", "problems": warm_problems[:5]})
    attempted = 1 + sum(r["attempted"] for r in runs)
    summaries = [_summary(w, r) for r in runs]
    info = {"workload": args.workload, "seed": args.seed, "setup_samples_s": setup,
            "oracle_self_test": self_test_ok, "samples": summaries[-1]["samples"],
            "mix_s": summaries[-1]["mix_s"], "reference_s": summaries[-1]["reference_s"],
            "ops_per_s_by_size": summaries[-1]["ops_per_s"],
            "failures": failures[:10]}

    if args.trace:
        plain, traced = summaries
        metrics = tracer.metrics(traced["op_s"], runs[1]["passes"])
        metrics.update({
            "trace.passes": {"value": runs[1]["passes"], "unit": "count"},
            "trace.ops": {"value": runs[1]["attempted"], "unit": "count"},
            "trace.op_s": {"value": traced["op_s"], "unit": "s"},
            "trace.untraced_mix_s": {"value": plain["mix_s"], "unit": "s"},
            "trace.traced_mix_s": {"value": traced["mix_s"], "unit": "s"},
            "trace.overhead_frac": {"value": traced["mix_s"] / plain["mix_s"] - 1, "unit": "frac"},
        })
        WORK.mkdir(parents=True, exist_ok=True)
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path, {"env": env, **info})
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        (summary,) = summaries
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "mix_ref": {"value": summary["mix_ref"], "unit": "ref"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }

    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures and self_test_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
