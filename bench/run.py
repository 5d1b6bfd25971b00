"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; kdcn is imported from ./src, never from an
installed copy. The workload runs untraced in fresh processes, one after
another, since speed differs between processes by more than it drifts
within one; with --trace 0 the last line holds the end-to-end metrics over
all of them. With --trace 1 one more process runs with span wrappers
installed; the last line holds the per-layer metrics, the fixed-shape
probes and the tracing overhead (traced minus untraced end-to-end numbers).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_LIMIT_S = 170  # every process of one run must end within this
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}


def cap_blas_threads() -> int:
    """Cap the BLAS pools at the CPUs this process may use (before numpy loads)."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, n))
        except ValueError:
            wanted = n
        os.environ[var] = str(max(1, min(wanted, n)))
    return n


def import_kdcn():
    """Import kdcn from this checkout's src/ only; exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "kdcn" / "__init__.py").is_file():
        print(f"error: no kdcn sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import kdcn

    if Path(kdcn.__file__).resolve().parent != (src / "kdcn").resolve():
        print(f"error: kdcn imported from {kdcn.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def blas_record() -> dict:
    import ctypes
    import glob

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "name": info.get("name"),
        "version": info.get("version"),
        "threads_env": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "threads": None,
    }
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["threads"] = fn()
                return record
    return record


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kdcn").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        return ref_path.read_text().strip() if ref_path.is_file() else None
    return ref


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def env_record(nproc: int, args) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": nproc,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def measure(workload, seed: int, seconds: float, traced: bool, scratch: Path) -> dict:
    """One process's share of a run: set up, run the timed loop, account."""
    from workloads import Accounting, Loop

    acct = Accounting()
    per_layer: dict = {}
    setup_times = []
    if traced:
        import probes
        from tracer import Tracer
        from workloads import UPLIFT_WORLD

        recorder = probes.BatchRecorder()
        tracer = Tracer(hooks={"pretrain.pretrain_loss_grads": recorder})
        with tracer:
            start = time.perf_counter()
            state = workload.setup(seed, scratch)
            setup_times.append(time.perf_counter() - start)
            out = workload.run(state, Loop(seconds, workload.min_ops, workload.trace_ops), acct)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # before the probes
        per_layer.update(tracer.metrics())
        cli_s = state.get("cli_s", {})
        for sub in ("gen-data", "build-kg", "pretrain", "train", "load"):
            per_layer[f"cli.{sub}.s"] = {"value": cli_s.get(sub, 0.0), "unit": "s"}
        per_layer.update(recorder.ratios())
        per_layer.update(probes.block_costs(UPLIFT_WORLD, seed))
    else:
        state = None
        for _ in range(workload.setups):
            state = None
            gc.collect()
            start = time.perf_counter()
            state = workload.setup(seed, scratch)
            setup_times.append(time.perf_counter() - start)
        out = workload.run(state, Loop(seconds, workload.min_ops, None), acct)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops": out["ops"],
        "named": out["named"],
        "setup_s_all": setup_times,
        "peak_rss_mb": peak_rss / 1024.0,
        "sizes": workload.sizes(state),
        "attempted": acct.attempted,
        "failed": acct.failed,
        "failures": acct.failures,
        "per_layer": per_layer,
    }


def summarize(workload, outs: list[dict]) -> dict:
    """End-to-end metrics and named figures of the processes of one run."""
    from workloads import pooled_rate

    return {
        "e2e": {
            "setup_s": statistics.median(t for o in outs for t in o["setup_s_all"]),
            "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in outs),
            "work_per_s": pooled_rate(outs),
        },
        "named": workload.combine(outs),
        "attempted": sum(o["attempted"] for o in outs),
        "failed": sum(o["failed"] for o in outs),
    }


def run_process(args, role: str, seconds: float, deadline: float) -> dict:
    """Run one share of the workload in a fresh interpreter and wait for it."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace),
        "--role", role,
    ]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"error: {role} process exited with code {proc.returncode}", file=sys.stderr)
        sys.exit(3)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    for msg in out["failures"]:
        print(f"check failed ({role}): {msg}", file=sys.stderr)
    return out


def main(argv=None) -> int:
    nproc = cap_blas_threads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "worker", "traced"), default="main", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_kdcn()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    if args.role != "main":
        scratch = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
        try:
            out = measure(workload, args.seed, args.seconds, args.role == "traced", scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
            try:
                scratch.parent.rmdir()
            except OSError:
                pass
        print(json.dumps(out))
        return 0

    deadline = time.monotonic() + RUN_LIMIT_S
    share = args.seconds / workload.workers
    outs = [run_process(args, "worker", share, deadline) for _ in range(workload.workers)]
    run = summarize(workload, outs)
    print(json.dumps({"env": env_record(nproc, args), "sizes": outs[0]["sizes"]}))
    print(json.dumps({"named": run["named"], "setup_s_all": [o["setup_s_all"] for o in outs]}))
    attempted, failed = run["attempted"], run["failed"]
    if args.trace:
        traced_out = run_process(args, "traced", share, deadline)
        traced = summarize(workload, [traced_out])
        attempted += traced["attempted"]
        failed += traced["failed"]
        metrics = dict(traced_out["per_layer"])
        for name, unit in E2E_UNITS.items():
            metrics[f"overhead.{name}"] = {
                "value": traced["e2e"][name] - run["e2e"][name],
                "unit": unit,
            }
        print(json.dumps({"named_traced": traced["named"], "e2e_traced": traced["e2e"]}))
    else:
        metrics = {name: {"value": run["e2e"][name], "unit": unit} for name, unit in E2E_UNITS.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
