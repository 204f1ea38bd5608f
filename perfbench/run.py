"""Run one sidalign benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload score_eval --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The lines before it print every metric by name and unit, plus
provenance. A full record (provenance, per-repetition samples, problems) is
written to ``.perfbench_out/`` and, for a traced run, the spans too.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: on a shared 2-core machine a second thread made run-to-run
# spread about twice as wide. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import Tally, median, tail  # noqa: E402

OUT_DIR = Path(".perfbench_out")


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def source_hash(root: Path) -> str:
    """sha256 over the package sources: identifies the code in a checkout
    that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def blas_info() -> dict:
    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def provenance(root: Path, args, reps: int) -> dict:
    import numpy as np

    return {
        "git_sha": git_sha(root),
        "source_sha256": source_hash(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": reps,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(reps, setups, rss_mb) -> dict:
    """Every end-to-end metric the workload reports: name -> (value, unit)."""
    latencies = [x for r in reps for x in r.latencies]
    tail_s, tail_pct = tail(latencies)
    return {
        "setup_s": (median(setups), "s"),
        "wall_s": (median([r.wall_s for r in reps]), "s"),
        "request_p50_ms": (1000 * median(latencies), "ms"),
        "request_tail_ms": (1000 * tail_s, "ms"),
        # Over the whole run: one repetition holds too few requests to be steady.
        "trials_per_s": (sum(r.trials for r in reps) / sum(latencies), "trials/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, {"tail_percentile": tail_pct, "requests": len(latencies)}


def run_plan(wl, state, tally, tracer, plan, between=None):
    """Run one repetition per entry of ``plan`` (True: traced), and
    ``between(i)`` untraced after repetition i.

    Each repetition is itself a counted operation, so an exception anywhere
    in it, inside a finer operation or not, shows in ``failed``; the
    repetition is then left out of the metrics. Returns the untraced and
    traced repetitions and the peak RSS after the first repetition.
    """
    reps, traced_reps = [], []
    rss_mb = None
    for i, traced in enumerate(plan):
        if traced:
            tracer.install()
        try:
            with tally.op(f"repetition {i}"):
                rep = wl.rep(state, tally, tracer, i)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            continue
        finally:
            tracer.uninstall()
            if rss_mb is None:
                # Later repetitions add allocator fragmentation that varies
                # from run to run; set-up plus one repetition does not.
                rss_mb = peak_rss_mb()
            if between is not None:
                between(i)
        (traced_reps if traced else reps).append(rep)
    return reps, traced_reps, rss_mb


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sidalign" / "__init__.py").is_file():
        print("error: run from the root of a sidalign checkout (no src/sidalign here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    import workloads
    from tracing import PER_LAYER, Tracer, layer_metrics, totals_by_name

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tally = Tally()
    tracer = Tracer()
    try:
        setups = []

        def timed_setup():
            t0 = time.perf_counter()
            state = wl.setup()
            setups.append(time.perf_counter() - t0)
            return state

        state = timed_setup()
        n = wl.reps_for(args.seconds)
        # A traced run alternates untraced and traced repetitions, so the
        # tracing overhead is measured under the same conditions.
        plan = [False] * n if not args.trace else [False, True] * ((n + 1) // 2)
        # The other set-ups run between the repetitions, so that setup_s is
        # sampled across the whole run as the repetitions are; the machine's
        # speed drifts over seconds. The repetitions keep the first state.
        extra = wl.setup_repeats - 1

        def between(i):
            for _ in range(extra * (i + 1) // len(plan) - extra * i // len(plan)):
                timed_setup()

        reps, traced_reps, rss_mb = run_plan(wl, state, tally, tracer, plan, between)
        if not reps or (args.trace and not traced_reps):
            raise RuntimeError("no repetition completed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, tail_info = end_to_end(reps, setups, rss_mb)
    prov = provenance(root, args, len(plan))
    eers = reps[0].eers
    record = {
        "provenance": prov,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed_frac,
        "problems": tally.problems,
        "setup_s_samples": setups,
        "wall_s_samples": [r.wall_s for r in reps],
        "request_latency_s": [x for r in reps for x in r.latencies],
        **tail_info,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "eer": eers,
    }

    print(f"# workload {args.workload}  seed {args.seed}  runs {len(plan)}  "
          f"trace {args.trace}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    for name, (value, unit) in e2e.items():
        print(f"{name:<24} {value:>14.6g} {unit}")
    print(f"{'request_tail_percentile':<24} {tail_info['tail_percentile']:>14.4g} "
          f"% of {tail_info['requests']} requests")
    print(f"{'failed_frac':<24} {tally.failed_frac:>14.6g} ratio  "
          f"({tally.failed} failed of {tally.attempted} operations)")
    for name, value in sorted(eers.items()):
        print(f"{'eer.' + name:<24} {value:>14.6g} fraction")
    for problem in tally.problems:
        print(f"problem: {problem.splitlines()[0]}", file=sys.stderr)

    if args.trace:
        totals = totals_by_name(tracer)
        layers = layer_metrics(totals, tracer.counters, len(traced_reps))
        layers["trace.overhead_s"] = (median([r.wall_s for r in traced_reps])
                                      - median([r.wall_s for r in reps]))
        for name, value in layers.items():
            print(f"{name:<36} {value:>14.6g} {PER_LAYER[name]}")
        record["per_layer"] = {k: {"value": v, "unit": PER_LAYER[k]}
                               for k, v in layers.items()}
        record["span_totals"] = totals
        stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
        tracer.save(f"{stem}-spans.npz")
        metrics_out = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                       for m in spec["per_layer"]}
    else:
        metrics_out = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
