"""flowquant benchmark: one command, three workloads, one JSON result line.

Run from the root of a checkout (the directory holding ``src/flowquant`` and
``BENCHMARK.json``):

    python3 perfbench/run.py --workload cli_batch --seed 1 --seconds 12 --trace 0

Workloads (their inputs come from --seed; see workloads.py for the details):

* ``cli_cold``        one fresh ``python -m flowquant.cli`` process per shipped
  scenario, one at a time: what a CLI user pays, 60-75 % of it import.
  Import and SciPy work shows here and nowhere else.
* ``cli_batch``       one warm process calling ``flowquant.cli.main`` on a
  seeded batch of generated scenario files for all four subcommands:
  scenario validation, flows, classical and the CLI's CSV writing do the
  work, unburied by import time.
* ``arrival_stream``  one warm process of library calls, no files:
  gaussian_packet -> to_momentum -> arrival_distribution -> arrival_moments
  on seeded packets whose s-grids span 32 KB to 2 MB, so transforms,
  resample and arrival do nearly all the work.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Timing metrics are reported at the speed
of a reference machine, scaled by a fixed kernel timed around each
operation (see speed.py); the measured values are printed beside them.  ``--steady N`` repeats the chosen
workload (or ``all``) with seeds seed .. seed+N-1 and prints the median and
quartiles of every metric against its bound in BENCHMARK.json.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Every process the benchmark starts is waited for before it exits.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("cli_cold", "cli_batch", "arrival_stream")

#: Fresh processes timed for setup_s (and for the import probe); the median
#: is reported.
SETUP_REPEATS = 3


class Child:
    """A process started by the benchmark, with its wall time and peak RSS."""

    def __init__(self, argv: list[str], log_stem: str):
        self.started = time.monotonic()
        with open(log_stem + ".stdout", "w") as out, open(log_stem + ".stderr", "w") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=ENV)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.wall_s = time.monotonic() - self.started
        self.rc = proc.returncode
        self.rss_mb = usage.ru_maxrss / 1024.0
        with open(log_stem + ".stdout") as out, open(log_stem + ".stderr") as err:
            self.stdout, self.stderr = out.read(), err.read()


ENV = dict(os.environ)
ENV["PYTHONPATH"] = SRC + (os.pathsep + ENV["PYTHONPATH"] if ENV.get("PYTHONPATH") else "")


def worker(role: str, args, run_dir: str, tag: str, extra: list[str] = ()) -> tuple[Child, dict]:
    result = os.path.join(run_dir, f"{tag}.json")
    child = Child([sys.executable, os.path.join(HERE, "worker.py"), "--role", role,
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--run-dir", run_dir,
                   "--result", result, *extra], os.path.join(run_dir, tag))
    if child.rc != 0:
        raise RuntimeError(f"worker {role} failed ({child.rc}):\n{child.stderr[-2000:]}")
    with open(result, encoding="utf-8") as fh:
        return child, json.load(fh)


def tail(latencies: list[float], basis: int) -> tuple[float, float]:
    """Latency at the highest of p99.9, p99, p95, p90, p75 and p50 that has
    at least ten samples beyond it in ``basis`` samples, the fewest a run of
    the workload makes (so every run picks the same percentile); the
    maximum (p100) when even p50 has fewer."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if basis * (1.0 - q / 100.0) >= 10.0:
            return percentile(latencies, q), q
    return max(latencies), 100.0


def percentile(values: list[float], q: float) -> float:
    s = sorted(values)
    pos = q / 100.0 * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def timing_metrics(latencies_ms: list[float], basis: int, failed: int) -> tuple[dict, dict]:
    """Throughput counts only operations that passed their checks, over the
    summed wall time of all operations (closed loop, one at a time)."""
    tail_ms, q = tail(latencies_ms, basis)
    metrics = {
        "ops_per_s": (len(latencies_ms) - failed) / (sum(latencies_ms) / 1e3),
        "op_p50_ms": statistics.median(latencies_ms),
        "op_tail_ms": tail_ms,
    }
    return metrics, {"op_tail_percentile": q, "samples": len(latencies_ms)}


def at_reference(timings: list[float], kernel_s: list[float]) -> list[float]:
    """Timings scaled to the reference machine speed (see speed.py)."""
    return [t * speed.REFERENCE_S / k for t, k in zip(timings, kernel_s)]


# --------------------------------------------------------------------------
# Workloads

def kernel_process(run_dir: str, tag: str) -> float:
    """The reference kernel's time in a fresh process (see speed.py)."""
    child = Child([sys.executable, os.path.join(HERE, "speed.py")], os.path.join(run_dir, tag))
    return float(child.stdout)


class Bracketed:
    """Times fresh processes one at a time, each between two runs of the
    reference kernel in processes of their own; the mean of the two is the
    machine's speed while the process ran."""

    def __init__(self, run_dir: str):
        self.run_dir = run_dir
        self.kernels = [kernel_process(run_dir, "kernel0")]

    def __call__(self, start):
        """``start()`` runs the process; returns its result and the kernel time."""
        result = start()
        self.kernels.append(kernel_process(self.run_dir, f"kernel{len(self.kernels)}"))
        return result, 0.5 * (self.kernels[-2] + self.kernels[-1])


def run_cli_cold(args, run_dir: str) -> dict:
    import_argv = [sys.executable, "-c", "import flowquant.cli"]
    # One untimed process fills the bytecode caches, which users do not pay
    # for on every run.
    Child(import_argv, os.path.join(run_dir, "bytecode"))
    timed = Bracketed(run_dir)
    setups, setup_kernels = [], []
    for i in range(SETUP_REPEATS):
        child, k = timed(lambda: Child(import_argv, os.path.join(run_dir, f"setup{i}")))
        setups.append(child.wall_s)
        setup_kernels.append(k)
    ops = []
    start = time.monotonic()
    while not ops or time.monotonic() - start < args.seconds:
        for op in workloads.cli_cold(args.seed + len(ops)):
            i = len(ops)
            op["out"] = os.path.join(run_dir, f"cold_{i}")
            argv = [sys.executable, "-m", "flowquant.cli", op["cmd"], "--config",
                    os.path.join(SRC, "flowquant", "scenarios", op["shipped"]),
                    "--out", op["out"], *op["args"]]
            child, k = timed(lambda: Child(argv, os.path.join(run_dir, f"cold_{i}")))
            op.update(rc=child.rc, stderr=child.stderr, latency_ms=child.wall_s * 1e3,
                      kernel_s=k, rss_mb=child.rss_mb)
            ops.append(op)
    ops_file = os.path.join(run_dir, "cold_ops.json")
    with open(ops_file, "w", encoding="utf-8") as fh:
        json.dump(ops, fh)
    _, check = worker("check", args, run_dir, "check", ["--ops-file", ops_file])
    return {"setups": setups, "setup_kernel_s": setup_kernels,
            "latencies_ms": [op["latency_ms"] for op in ops],
            "kernel_s": [op["kernel_s"] for op in ops],
            "tail_basis": len(workloads.cli_cold(args.seed)),
            "rss_mb": max(op["rss_mb"] for op in ops),
            "attempted": len(ops), "failed": check["failed"],
            "repeat_ok": check["repeat_ok"], "accuracy": check["accuracy"]}


def run_warm(args, run_dir: str) -> dict:
    """Set-up is timed in fresh processes that stop once their warm-up
    operation is done: from the spawn to the end of the warm-up."""
    timed = Bracketed(run_dir)
    setups, setup_kernels = [], []
    for i in range(SETUP_REPEATS):
        (child, res), k = timed(lambda: worker("setup", args, run_dir, f"setup{i}"))
        setups.append(res["ready_at"] - child.started)
        setup_kernels.append(k)
    _, res = worker("run", args, run_dir, "run")
    res.update(setups=setups, setup_kernel_s=setup_kernels)
    return res


def import_probe(run_dir: str) -> dict:
    """Fresh-process import costs: bare interpreter start, and the import
    of flowquant.cli timed inside the process with the modules it loads."""
    code = ("import sys, time; t = time.perf_counter(); import flowquant.cli; "
            "t = time.perf_counter() - t; print(t, len(sys.modules), "
            "sum(1 for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    Child([sys.executable, "-c", code], os.path.join(run_dir, "bytecode"))
    bare = [Child([sys.executable, "-c", "pass"], os.path.join(run_dir, f"bare{i}")).wall_s
            for i in range(SETUP_REPEATS)]
    probes = [Child([sys.executable, "-c", code], os.path.join(run_dir, f"imp{i}")).stdout.split()
              for i in range(SETUP_REPEATS)]
    return {"import.python_startup_s": statistics.median(bare),
            "import.flowquant_cli_s": statistics.median(float(p[0]) for p in probes),
            "import.modules_loaded": float(probes[-1][1]),
            "import.scipy_modules_loaded": float(probes[-1][2])}


# --------------------------------------------------------------------------
# Provenance

def provenance(args) -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "jsonschema"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or commit
    loc = 0
    for folder, _, files in os.walk(os.path.join(SRC, "flowquant")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    loc += sum(1 for _ in fh)
    deps = None
    try:
        import tomllib
        with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
            deps = len(tomllib.load(fh)["project"]["dependencies"])
    except (ImportError, OSError, KeyError):
        pass
    blas = {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                       "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                       "NUMEXPR_NUM_THREADS") if k in os.environ}
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **versions, "blas_env": blas,
            "commit": commit, "seed": args.seed, "argv": sys.argv,
            "source_loc": loc, "runtime_dependencies": deps}


# --------------------------------------------------------------------------

def measure(args, spec: dict) -> dict:
    run_dir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        if args.trace:
            layers = import_probe(run_dir)
            _, res = worker("trace", args, run_dir, "trace")
            layers.update(res["layers"])
            failed = len(res["failed"])
            info = {"trace.unattributed_pct": layers.pop("trace.unattributed_pct")}
            names = [m["name"] for m in spec["per_layer"]]
            metrics = {name: {"value": layers[name], "unit": unit_of(spec, name)}
                       for name in names}
            return {"correct": failed == 0, "attempted": res["attempted"],
                    "failed": failed, "metrics": metrics, "info": info}
        res = run_cli_cold(args, run_dir) if args.workload == "cli_cold" \
            else run_warm(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    failed = len(res["failed"])
    values, info = timing_metrics(at_reference(res["latencies_ms"], res["kernel_s"]),
                                  res["tail_basis"], failed)
    values.update(setup_s=statistics.median(at_reference(res["setups"], res["setup_kernel_s"])),
                  peak_rss_mb=res["rss_mb"], **res["accuracy"])
    raw, _ = timing_metrics(res["latencies_ms"], res["tail_basis"], failed)
    raw["setup_s"] = statistics.median(res["setups"])
    info.update(measured=raw, kernel_s_median=statistics.median(res["kernel_s"]),
                kernel_s_reference=speed.REFERENCE_S,
                error_rate=failed / res["attempted"], setup_samples=res["setups"],
                repeat_identical=res["repeat_ok"], rounds=res.get("rounds"),
                failures={str(k): v for k, v in res["failed"].items()})
    if "refusals" in res:
        info["refusals_failing"] = sum(not r["ok"] for r in res["refusals"])
        info["refusals"] = res["refusals"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    return {"correct": failed == 0 and res["repeat_ok"], "attempted": res["attempted"],
            "failed": failed, "metrics": metrics, "info": info}


def unit_of(spec: dict, name: str) -> str:
    return next(m["unit"] for m in spec["end_to_end"] + spec["per_layer"] if m["name"] == name)


def steady(args, spec: dict) -> int:
    """Repeat runs over consecutive seeds; print median, quartiles and the
    quartile spread as a share of the median, against each metric's bound."""
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        runs, walls = [], []
        for k in range(args.steady):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed + k), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            start = time.monotonic()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            walls.append(round(time.monotonic() - start, 1))
            lines = out.stdout.strip().splitlines()
            runs.append(json.loads(lines[-1]))
            for line in lines:
                if line.startswith("  info measured: "):
                    runs[-1]["measured"] = json.loads(line[len("  info measured: "):])
        print(f"== {name}: {args.steady} runs, seeds {args.seed}..{args.seed + args.steady - 1}")
        rows = [(m, [r["metrics"][m]["value"] for r in runs]) for m in runs[0]["metrics"]]
        if "measured" in runs[0]:
            rows += [(f"{m} (measured)", [r["measured"][m] for r in runs])
                     for m in runs[0]["measured"]]
        for metric, vals in rows:
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(metric)
            flag = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
            print(f"{metric:44s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {bound}  {flag}")
        print(f"failed per run: {[r['failed'] for r in runs]}")
        print(f"wall seconds per run: {walls}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0,
                    help="repeat the workload N times over consecutive seeds")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "flowquant", "cli.py")) \
            or not os.path.isfile(spec_path):
        print("error: run from the root of a flowquant checkout "
              "(src/flowquant and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.steady:
        return steady(args, spec)
    if args.workload == "all":
        ap.error("--workload all needs --steady")

    result = measure(args, spec)
    info = result.pop("info")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    for key, value in info.items():
        print(f"  info {key}: {json.dumps(value)}")
    print(f"  provenance: {json.dumps(provenance(args))}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
