"""Warm benchmark process: imports flowquant and runs one role of a workload.

Started by run.py, never by hand.  Roles:

* ``setup``  import flowquant.cli, run the workload's warm-up operation and
  report when the first timed operation could have started;
* ``run``    the same set-up, then the timed loop of cli_batch or
  arrival_stream, the per-operation checks, the repeated subset and the
  accuracy panel;
* ``check``  checks the outputs of the cold processes of cli_cold, repeats a
  fixed subset of them here, and computes cli_cold's accuracy panel;
* ``trace``  the per-layer run: the workload's operations once untimed and
  once under the span recorder, with each operation's stages replayed as
  spans of their own.

The result is written as JSON to the path given by ``--result``.
"""

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import random
import resource
import time

import flowquant.cli as cli
import numpy as np
from flowquant import (Component, Grid1D, PhysicalParams, Representation,
                       WaveFunction, arrival_amplitude_fast,
                       arrival_amplitude_quadrature, arrival_distribution,
                       arrival_moments, classify_flow, default_momentum_floor,
                       default_oriented_grid, default_time_grid,
                       ensemble_from_packet, evolve_free,
                       exact_momentum_histogram, fourier_eval,
                       gaussian_packet, l1_distance,
                       momentum_from_position_limit, norm_squared,
                       probability_current, quantum_momentum_limit,
                       split_movers, to_arrival_time, to_momentum,
                       to_oriented_energy, to_position)
from flowquant.resample import resample_complex
from flowquant.scenarios import (build_field, build_packet, build_params,
                                 build_probe_spec, build_s_grid,
                                 build_time_grid, build_x_grid, load_scenario,
                                 scenario_path)

import speed
import workloads
from spans import Tracer

#: Whole rounds a timed run makes at least.  run.py picks the tail
#: percentile that has ten samples beyond it in this many rounds: p75 for
#: cli_batch (32 operations a round), p95 for arrival_stream (28 a round).
MIN_ROUNDS = {"cli_batch": 2, "arrival_stream": 8}

#: Operations of arrival_stream repeated after the loop, to be bit-identical.
REPEATS = 4

#: Seconds between two timings of the reference kernel in a timed loop; the
#: machine's speed wanders on about this scale.
PROBE_EVERY_S = 1.5

#: Checks: total = plus + minus + interference to rounding, and the
#: interference term integrates to zero (the movers' s-supports are
#: disjoint).  Measured at the seed commit: <= 1e-15 and <= 3e-9.
IDENTITY_TOL = 1e-12
INTERFERENCE_TOL = 1e-6

_MOVER_FLOOR = 1e-6          # the CLI reports a mover's moments above this weight


# --------------------------------------------------------------------------
# Running and checking CLI operations in this process

def run_cli(argv: list[str]) -> tuple[int | None, str]:
    """cli.main(argv) with its output captured; exit code None if it raised
    (a traceback in a real process)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return cli.main(argv), err.getvalue()
        except Exception as exc:  # the benchmark must go on and count it
            return None, f"{type(exc).__name__}: {exc}"


def cli_argv(op: dict, config: str, out_dir: str) -> list[str]:
    return [op["cmd"], "--config", config, "--out", out_dir] + op.get("args", [])


def _all_finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def _csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_outputs(op: dict, out_dir: str) -> list[str]:
    """What is wrong with a CLI operation's output files (empty: nothing)."""
    problems = []
    files = sorted(os.listdir(out_dir))
    for name in files:
        path = os.path.join(out_dir, name)
        if name.endswith(".json"):
            with open(path, encoding="utf-8") as fh:
                if not _all_finite(json.load(fh)):
                    problems.append(f"{name}: non-finite value")
        elif name.endswith(".csv") and not np.all(np.isfinite(_csv(path))):
            problems.append(f"{name}: non-finite value")
    cmd = op["cmd"]
    expected = {"flow-classify": "flow_classification.json",
                "arrival": "arrival_density.csv",
                "classical-limit": "classical_limit_summary.json",
                "backflow": "backflow_current.csv"}[cmd]
    if expected not in files:
        return problems + [f"{expected} missing"]
    if cmd == "flow-classify":
        with open(os.path.join(out_dir, expected), encoding="utf-8") as fh:
            verdict = json.load(fh)["class"]
        if verdict != op["expect"]:
            problems.append(f"verdict {verdict}, README says {op['expect']}")
    elif cmd == "arrival":
        T, total, plus, minus, interference = _csv(os.path.join(out_dir, expected)).T
        problems += density_problems(T, total, plus, minus, interference)
    elif cmd == "backflow" and _csv(os.path.join(out_dir, expected)).shape[0] == 0:
        problems.append("empty current scan")
    return problems


def density_problems(T, total, plus, minus, interference) -> list[str]:
    problems = []
    if not all(np.all(np.isfinite(a)) for a in (total, plus, minus, interference)):
        return ["non-finite density"]
    scale = max(float(np.max(np.abs(total))), 1e-300)
    ident = float(np.max(np.abs(total - (plus + minus + interference)))) / scale
    if ident > IDENTITY_TOL:
        problems.append(f"total != plus + minus + interference ({ident:.1e})")
    integral = abs(float(np.trapezoid(interference, T)))
    if integral > INTERFERENCE_TOL:
        problems.append(f"interference integrates to {integral:.1e}")
    return problems


def same_bytes(dir_a: str, dir_b: str) -> bool:
    names = sorted(os.listdir(dir_a))
    if names != sorted(os.listdir(dir_b)):
        return False
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fa, \
                open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, n)) for n in os.listdir(path))


# --------------------------------------------------------------------------
# arrival_stream operations: library calls, no files

def axis(section: dict) -> Grid1D:
    return Grid1D.from_bounds(section["min"], section["max"], section["count"])


PARAMS = PhysicalParams(**workloads.PARAMS)
X_GRID = axis(workloads.X_BOX)


def stream_packet(spec: dict, call=lambda name, fn, *a: fn(*a)) -> WaveFunction:
    """The spec's packet on the position box; a superposition is formed and
    normalized the way scenarios.build_packet forms it."""
    comps = spec["components"]
    parts = [call("grids.gaussian_packet", gaussian_packet, X_GRID, PARAMS,
                  c["center_x"], c["center_p"], c["sigma_p"]) for c in comps]
    if len(parts) == 1:
        return parts[0]
    total = np.zeros(X_GRID.count, dtype=np.complex128)
    for c, part in zip(comps, parts):
        total = total + c["amplitude"] * np.exp(1j * c["phase"]) * part.values
    nrm = math.sqrt(float(np.sum(np.abs(total) ** 2) * X_GRID.step))
    return WaveFunction(X_GRID, total / nrm, Representation.POSITION, PARAMS)


def stream_T(spec: dict) -> Grid1D | None:
    return axis(spec["T"]) if spec["T"] else None


def stream_op(spec: dict):
    """gaussian_packet -> to_momentum -> arrival_distribution ->
    arrival_moments (total, and each mover the CLI would report)."""
    psi_tilde = to_momentum(stream_packet(spec))
    dist = arrival_distribution(psi_tilde, grid_T=stream_T(spec))
    moments = [arrival_moments(dist, c) for c, w in
               ((Component.TOTAL, 1.0), (Component.PLUS, dist.w_plus),
                (Component.MINUS, dist.w_minus)) if w > _MOVER_FLOOR]
    return psi_tilde, dist, moments


def stream_problems(dist, moments) -> list[str]:
    problems = density_problems(dist.grid_T.points, dist.total, dist.plus,
                                dist.minus, dist.interference)
    if not all(math.isfinite(m.mean) and math.isfinite(m.variance) for m in moments):
        problems.append("non-finite moments")
    return problems


def _dist_bytes(dist) -> bytes:
    return b"".join(a.tobytes() for a in (dist.grid_T.points, dist.total, dist.plus,
                                          dist.minus, dist.interference))


# --------------------------------------------------------------------------
# Accuracy panels (outside every timed loop; deterministic inputs)

def accuracy(arrival_inputs: list, classical_cfgs: list[dict], oracle_count: int) -> dict:
    """The four accuracy figures on fixed inputs.

    ``arrival_inputs`` holds (psi_tilde, grid_T, s_grid) triples; the
    oracle runs on the first ``oracle_count`` of them.
    """
    norm_defect = energy_defect = oracle_err = 0.0
    for i, (psi_tilde, grid_T, s_grid) in enumerate(arrival_inputs):
        dist = arrival_distribution(psi_tilde, grid_T=grid_T, s_grid=s_grid)
        norm_defect = max(norm_defect, abs(float(np.trapezoid(dist.total, dist.grid_T.points))
                                           - norm_squared(psi_tilde)))
        grid = s_grid or default_oriented_grid(psi_tilde,
                                               default_momentum_floor(psi_tilde.grid))
        for part in split_movers(psi_tilde):
            # a mover, as the CLI counts movers: a tail of 1e-11 of the mass
            # on the other side has a meaningless relative defect
            if norm_squared(part) > _MOVER_FLOOR:
                _, report = to_oriented_energy(part, s_grid=grid)
                energy_defect = max(energy_defect, report.unitarity_defect)
        if i < oracle_count:
            oracle = arrival_amplitude_quadrature(psi_tilde, dist.grid_T).values
            fast = arrival_amplitude_fast(psi_tilde, dist.grid_T, s_grid=s_grid).values
            oracle_err = max(oracle_err, float(np.abs(oracle - fast).max()
                                               / np.abs(oracle).max()))
    l1 = 0.0
    for cfg in classical_cfgs:
        params = build_params(cfg)
        packet = build_packet(cfg, params, build_x_grid(cfg))
        section = cfg["classical_limit"]
        bins = section["p_bins"]
        edges = np.linspace(bins["min"], bins["max"], bins["count"] + 1)
        limit = quantum_momentum_limit(packet, section.get("x0", 0.0),
                                       max(section["times"]), edges)
        l1 = max(l1, l1_distance(limit, exact_momentum_histogram(packet, edges)))
    return {"oracle_err_max": oracle_err, "norm_defect_max": norm_defect,
            "energy_map_defect_max": energy_defect, "classical_l1_max": l1}


def _cfg_arrival_input(cfg: dict):
    params = build_params(cfg)
    packet = build_packet(cfg, params, build_x_grid(cfg))
    psi_tilde = packet if packet.rep is Representation.MOMENTUM else to_momentum(packet)
    return psi_tilde, build_time_grid(cfg), build_s_grid(cfg)


def _shipped(name: str) -> dict:
    with open(scenario_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def panel(workload: str) -> dict:
    """Accuracy on the workload's fixed panel.

    cli_cold: the shipped arrival and classical scenarios, oracle on
    reference_rightmover (what ``arrival --oracle`` reports).  cli_batch:
    the arrival and classical scenarios of the round drawn with PANEL_SEED.
    arrival_stream: the packets of the round drawn with PANEL_SEED, which
    include broad packets on the default T-grid; it has no classical
    operations, so its classical figure is the shipped reference's.
    The oracle runs on the two explicit-T single movers of the smallest
    s-grid classes, where it converges in well under a second.
    """
    classical = [_shipped("classical_limit_reference.json")]
    if workload == "cli_cold":
        inputs = [_cfg_arrival_input(_shipped(n))
                  for n in ("reference_rightmover.json", "mixed_beam.json")]
        return accuracy(inputs, classical, oracle_count=1)
    if workload == "cli_batch":
        ops = workloads.batch_round(random.Random(workloads.PANEL_SEED))
        arrival = [op["config"] for op in ops if op["cmd"] == "arrival"]
        arrival.sort(key=lambda c: ("T" not in c["grids"], c["packet"]["type"] != "gaussian"))
        classical = [op["config"] for op in ops if op["cmd"] == "classical-limit"]
        return accuracy([_cfg_arrival_input(c) for c in arrival], classical, oracle_count=2)
    specs = workloads.arrival_round(random.Random(workloads.PANEL_SEED))
    specs.sort(key=lambda s: (s["T"] is None, len(s["components"]), s["k"]))
    inputs = [(to_momentum(stream_packet(s)), stream_T(s), None) for s in specs]
    return accuracy(inputs, classical, oracle_count=2)


# --------------------------------------------------------------------------
# Set-up and timed loops

def warm_up(workload: str, run_dir: str) -> None:
    """One untimed operation, the same for every seed."""
    if workload == "arrival_stream":
        stream_op(workloads.arrival_packet(random.Random(workloads.PANEL_SEED), 13, True, True))
        return
    out = os.path.join(run_dir, "warmup")
    op = {"cmd": "arrival"}
    run_cli(cli_argv(op, scenario_path("reference_rightmover.json"), out))


def write_configs(ops: list[dict], folder: str, tag: str) -> None:
    os.makedirs(folder, exist_ok=True)
    for i, op in enumerate(ops):
        op["path"] = os.path.join(folder, f"{tag}_{i}.json")
        op["out"] = os.path.join(folder, f"{tag}_{i}.out")
        if op["cmd"] == "classical-limit":
            op["args"] = ["--seed", str(op["seed"])]
        with open(op["path"], "w", encoding="utf-8") as fh:
            json.dump(op["config"], fh)


def loop_rounds(seconds: float, min_rounds: int, next_round, run_op) -> tuple[list, list]:
    """Whole rounds until both ``seconds`` have passed and ``min_rounds`` ran.

    The reference kernel is timed before the first operation and then
    whenever PROBE_EVERY_S has passed since it last ran, and at the end of
    each round; every operation gets the mean of the two kernel times
    around it, the machine's speed while it ran (see speed.py)."""
    done, kernel_s, pending = [], [], 0
    probe = speed.probe()
    last = start = time.monotonic()

    def settle():
        nonlocal probe, last, pending
        before, probe = probe, speed.probe()
        kernel_s.extend([0.5 * (before + probe)] * pending)
        last, pending = time.monotonic(), 0

    while len(done) < min_rounds or time.monotonic() - start < seconds:
        results = []
        for op in next_round(len(done)):
            results.append(run_op(op))
            pending += 1
            if time.monotonic() - last >= PROBE_EVERY_S:
                settle()
        if pending:
            settle()
        done.append(results)
    return done, kernel_s


def run_batch(seed: int, seconds: float, run_dir: str) -> dict:
    rng = random.Random(seed)
    folder = os.path.join(run_dir, "batch")

    def next_round(r):
        ops = workloads.batch_round(rng)
        write_configs(ops, folder, f"r{r}")
        return ops

    def run_op(op):
        argv = cli_argv(op, op["path"], op["out"])
        t0 = time.perf_counter()
        rc, err = run_cli(argv)
        op["latency_ms"] = (time.perf_counter() - t0) * 1e3
        op["rc"], op["stderr"] = rc, err
        return op

    rounds, kernel_s = loop_rounds(seconds, MIN_ROUNDS["cli_batch"], next_round, run_op)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = [op for r in rounds for op in r]
    failed = {}
    for i, op in enumerate(ops):
        problems = [] if op["rc"] == 0 else [f"exit {op['rc']}: {op['stderr'].strip()[:200]}"]
        failed_checks = check_outputs(op, op["out"]) if op["rc"] == 0 else []
        if problems + failed_checks:
            failed[i] = problems + failed_checks
    # Repeat the first operation of each subcommand: byte-identical outputs.
    firsts = {}
    for i, op in enumerate(rounds[0]):
        firsts.setdefault(op["cmd"], i)
    repeat_ok = True
    for i in firsts.values():
        op = ops[i]
        again = op["out"] + ".repeat"
        run_cli(cli_argv(op, op["path"], again))
        if not same_bytes(op["out"], again):
            repeat_ok = False
            failed.setdefault(i, []).append("repeat run differs")
    refusals = []
    for k, op in enumerate(workloads.refusal_ops()):
        write_configs([op], os.path.join(run_dir, "refusals"), f"x{k}")
        rc, err = run_cli(cli_argv(op, op["path"], op["out"]))
        ok = rc == 1 and len(err.strip().splitlines()) == 1
        refusals.append({"input": op["why"], "ok": ok,
                         "got": f"exit {rc}" if rc is not None else f"traceback ({err})"})
    return {"latencies_ms": [op["latency_ms"] for op in ops], "kernel_s": kernel_s,
            "tail_basis": MIN_ROUNDS["cli_batch"] * len(rounds[0]),
            "attempted": len(ops), "failed": failed, "rss_mb": rss_mb,
            "rounds": len(rounds), "repeat_ok": repeat_ok, "refusals": refusals}


def run_stream(seed: int, seconds: float) -> dict:
    rng = random.Random(seed)
    failed = {}
    first = []                   # (spec, output bytes) of the first operations
    index = itertools.count()

    def run_op(spec):
        i = next(index)
        t0 = time.perf_counter()
        _, dist, moments = stream_op(spec)
        latency = (time.perf_counter() - t0) * 1e3
        problems = stream_problems(dist, moments)
        if problems:
            failed[i] = problems
        if i < REPEATS:
            first.append((spec, _dist_bytes(dist)))
        return latency

    rounds, kernel_s = loop_rounds(seconds, MIN_ROUNDS["arrival_stream"],
                                   lambda _: workloads.arrival_round(rng), run_op)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    repeat_ok = True
    for i, (spec, expected) in enumerate(first):
        if _dist_bytes(stream_op(spec)[1]) != expected:
            repeat_ok = False
            failed.setdefault(i, []).append("repeat run differs")
    latencies = [lat for r in rounds for lat in r]
    return {"latencies_ms": latencies, "kernel_s": kernel_s,
            "tail_basis": MIN_ROUNDS["arrival_stream"] * len(rounds[0]),
            "attempted": len(latencies), "failed": failed,
            "rss_mb": rss_mb, "rounds": len(rounds), "repeat_ok": repeat_ok}


def check_cold(ops_file: str, run_dir: str) -> dict:
    """Checks of the cli_cold processes' outputs, plus a warm repeat of one
    operation per subcommand that must reproduce the cold bytes."""
    with open(ops_file, encoding="utf-8") as fh:
        ops = json.load(fh)
    failed = {}
    for i, op in enumerate(ops):
        problems = []
        if op["rc"] != 0:
            problems.append(f"exit {op['rc']}: {op['stderr'].strip()[-200:]}")
        else:
            problems += check_outputs(op, op["out"])
        if problems:
            failed[i] = problems
    firsts = {}
    for i, op in enumerate(ops):
        if "--oracle" not in op["args"]:
            firsts.setdefault(op["cmd"], i)
    repeat_ok = True
    for i in firsts.values():
        op = ops[i]
        again = os.path.join(run_dir, f"repeat_{i}")
        run_cli(cli_argv(op, scenario_path(op["shipped"]), again))
        if not same_bytes(op["out"], again):
            repeat_ok = False
            failed.setdefault(i, []).append("warm repeat differs from the cold run")
    return {"failed": failed, "repeat_ok": repeat_ok}


# --------------------------------------------------------------------------
# Traced run

class Layers:
    """Spans plus the counts recorded at the same boundaries, per source."""

    def __init__(self):
        self.tracer = Tracer()
        self.counts = {}

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault((self.tracer.op[0], name), []).append(float(value))


def replay_resample(lay: Layers, part: WaveFunction, s_grid: Grid1D) -> None:
    """The resampling calls to_oriented_energy makes for one mover: per
    momentum half-axis, nodes |p| and queries sqrt(2 m |s|)."""
    m = part.params.mass
    s_min = default_momentum_floor(part.grid) ** 2 / (2.0 * m)
    s, p = s_grid.points, part.points
    for positive in (True, False):
        sel = s >= s_min if positive else s <= -s_min
        mask = p > 0.0 if positive else p < 0.0
        nodes, vals = p[mask], part.values[mask]
        if not positive:
            nodes, vals = -nodes[::-1], vals[::-1]
        if not np.any(sel) or not np.any(vals):
            continue
        queries = np.sqrt(2.0 * m * np.abs(s[sel]))
        _, residual = lay.tracer.call("resample.resample_complex", resample_complex,
                                      nodes, vals, queries)
        lay.count("resample.query_points", queries.size)
        lay.count("resample.residual", residual)


def replay_distribution(lay: Layers, psi_tilde, grid_T, s_grid, dist) -> bool:
    """arrival_distribution's stages, as spans; True if they reproduce its
    total density bit for bit."""
    tr = lay.tracer
    with tr.span("arrival.replay"):
        plus, minus = tr.call("arrival.split_movers", split_movers, psi_tilde)
        w_plus, w_minus = norm_squared(plus), norm_squared(minus)
        if s_grid is None:
            s_grid = tr.call("transforms.default_oriented_grid", default_oriented_grid,
                             psi_tilde, default_momentum_floor(psi_tilde.grid))
        explicit = grid_T is not None
        if not explicit:
            grid_T = tr.call("arrival.default_time_grid", default_time_grid, psi_tilde)
        lay.count("transforms.T_points", grid_T.count)
        amps = []
        for part, w in ((plus, w_plus), (minus, w_minus)):
            if w <= 1e-12 * max(w_plus + w_minus, 1e-300):
                amps.append(np.zeros(grid_T.count, dtype=np.complex128))
                continue
            phi_s, _ = tr.call("transforms.to_oriented_energy", to_oriented_energy,
                               part, s_grid=s_grid)
            lay.count("transforms.s_grid_points", s_grid.count)
            replay_resample(lay, part, s_grid)
            amps.append(tr.call("transforms.to_arrival_time", to_arrival_time,
                                phi_s, grid_T).values)
            if explicit:
                tr.call("transforms.fourier_eval", fourier_eval, phi_s.values,
                        phi_s.grid, grid_T, -1, psi_tilde.params.hbar)
    return np.array_equal(np.abs(amps[0] + amps[1]) ** 2, dist.total)


def traced_stream_op(lay: Layers, spec: dict) -> bool:
    tr = lay.tracer
    with tr.span("op"):
        psi = stream_packet(spec, tr.call)
        psi_tilde = tr.call("transforms.to_momentum", to_momentum, psi)
        grid_T = stream_T(spec)
        dist = tr.call("arrival.arrival_distribution", arrival_distribution,
                       psi_tilde, grid_T=grid_T)
        faithful = replay_distribution(lay, psi_tilde, grid_T, None, dist)
        for c, w in ((Component.TOTAL, 1.0), (Component.PLUS, dist.w_plus),
                     (Component.MINUS, dist.w_minus)):
            if w > _MOVER_FLOOR:
                tr.call("arrival.arrival_moments", arrival_moments, dist, c)
    return faithful


def traced_cli_op(lay: Layers, op: dict, config: str, out_dir: str) -> bool:
    """The real cli.main call, then the layer calls it makes, replayed as
    spans beside it.  cli.self is main minus those replayed calls; spans
    under a ``*.replay`` span break a call down further and do not count
    against main."""
    tr, cmd = lay.tracer, op["cmd"]
    with tr.span("op"):
        with tr.span(f"cli.main.{cmd}"):
            rc, _ = run_cli(cli_argv(op, config, out_dir))
        lay.count(f"cli.bytes_out.{cmd}", dir_bytes(out_dir))
        cfg = tr.call("scenarios.load_scenario", load_scenario, config)
        with tr.span("scenarios.build"):
            params = build_params(cfg)
            if cmd == "flow-classify":
                field, probes = build_field(cfg, params), build_probe_spec(cfg)
            else:
                packet = build_packet(cfg, params, build_x_grid(cfg))
                grid_T, s_grid = build_time_grid(cfg), build_s_grid(cfg)
        if cmd != "flow-classify" and cfg["packet"]["type"] != "backflow":
            with tr.span("grids.replay"):
                for c in cfg["packet"].get("components", [cfg["packet"]]):
                    tr.call("grids.gaussian_packet", gaussian_packet, packet.grid, params,
                            c["center_x"], c["center_p"], c["sigma_p"])
        faithful = True
        if cmd == "flow-classify":
            kind = cfg["field"]["kind"]
            tr.call(f"flows.classify_flow.{kind}", classify_flow, field, probes)
            lay.count("flows.probes", probes.count)
        elif cmd == "arrival":
            psi_tilde = tr.call("transforms.to_momentum", to_momentum, packet)
            dist = tr.call("arrival.arrival_distribution", arrival_distribution,
                           psi_tilde, grid_T=grid_T, s_grid=s_grid)
            faithful = replay_distribution(lay, psi_tilde, grid_T, s_grid, dist)
            tr.call("arrival.arrival_moments", arrival_moments, dist, Component.PLUS)
            if dist.w_minus > _MOVER_FLOOR:
                tr.call("arrival.arrival_moments", arrival_moments, dist, Component.MINUS)
            if "--oracle" in op.get("args", []):
                tr.call("arrival.quadrature_oracle", arrival_amplitude_quadrature,
                        psi_tilde, dist.grid_T)
                tr.call("arrival.arrival_amplitude_fast", arrival_amplitude_fast,
                        psi_tilde, dist.grid_T, s_grid=s_grid)
        elif cmd == "classical-limit":
            section = cfg["classical_limit"]
            seed = int(op["args"][op["args"].index("--seed") + 1]) \
                if "--seed" in op.get("args", []) else cfg.get("seed", 0)
            bins = section["p_bins"]
            edges = np.linspace(bins["min"], bins["max"], bins["count"] + 1)
            samples = section.get("samples", 1_000_000)
            lay.count("classical.samples", samples)
            ens = tr.call("classical.ensemble_from_packet", ensemble_from_packet,
                          packet, samples, seed)
            tr.call("classical.exact_momentum_histogram", exact_momentum_histogram,
                    packet, edges)
            x0 = section.get("x0", 0.0)
            for t in section["times"]:
                tr.call("classical.momentum_from_position_limit",
                        momentum_from_position_limit, ens, x0, t, edges)
                tr.call("classical.quantum_momentum_limit", quantum_momentum_limit,
                        packet, x0, t, edges)
        else:
            scan = cfg["backflow_scan"]
            for t in np.linspace(scan["t_range"][0], scan["t_range"][1], scan["t_count"]):
                evolved = tr.call("transforms.evolve_free", evolve_free, packet, float(t))
                psi_t = tr.call("transforms.to_position", to_position, evolved)
                tr.call("grids.probability_current", probability_current, psi_t)
    return rc == 0 and faithful


def trace_ops(workload: str, seed: int, run_dir: str) -> list[tuple[str, dict]]:
    """The operations a traced run replays: one round of the workload (two
    for arrival_stream), then, unless the workload is cli_cold, the shipped
    operations of cli_cold, which supply the layers the workload never
    calls (the oracle, and for arrival_stream scenarios, flows, classical
    and cli)."""
    ops = []
    if workload == "cli_batch":
        batch = workloads.batch_round(random.Random(seed))
        write_configs(batch, os.path.join(run_dir, "trace"), "b")
        ops += [("own", op) for op in batch]
    elif workload == "arrival_stream":
        ops += [("own", {"spec": s}) for r in workloads.arrival_stream(seed, 2) for s in r]
    shipped = workloads.cli_cold(seed)
    for i, op in enumerate(shipped):
        op["path"] = scenario_path(op["shipped"])
        op["out"] = os.path.join(run_dir, "trace", f"s_{i}.out")
    ops += [("own" if workload == "cli_cold" else "shipped", op) for op in shipped]
    return ops


def run_trace(workload: str, seed: int, run_dir: str) -> dict:
    ops = trace_ops(workload, seed, run_dir)
    own = [op for source, op in ops if source == "own"]
    # Untraced pass over the workload's own operations, for the overhead.
    untraced = 0.0
    for op in own:
        t0 = time.perf_counter()
        if "spec" in op:
            stream_op(op["spec"])
        else:
            run_cli(cli_argv(op, op["path"], op["out"] + ".untraced"))
        untraced += time.perf_counter() - t0
    lay = Layers()
    failed = {}
    for i, (source, op) in enumerate(ops):
        lay.tracer.op = (source, i)
        ok = traced_stream_op(lay, op["spec"]) if "spec" in op else \
            traced_cli_op(lay, op, op["path"], op["out"])
        if not ok:
            failed[i] = ["operation failed or replay did not reproduce it"]
    os.makedirs(".perfbench/traces", exist_ok=True)
    lay.tracer.write(os.path.join(".perfbench", "traces", f"{workload}-seed{seed}.jsonl"))
    return {"layers": layer_metrics(lay, untraced, len(own)),
            "attempted": len(ops), "failed": failed}


def layer_metrics(lay: Layers, untraced_s: float, n_own: int) -> dict:
    spans = lay.tracer.spans
    own_time = lay.tracer.self_times()
    children = {}
    for idx, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(idx)

    def ms(idx):
        return (spans[idx][2] - spans[idx][1]) * 1e3

    table = {}

    def add(source, name, value):
        table.setdefault((source, name), []).append(value)

    for idx, (name, _, _, _, op) in enumerate(spans):
        add(op[0], name, ms(idx))
    for (source, name), vals in lay.counts.items():
        table[(source, name)] = vals

    unattributed = root_total = real = 0.0
    for root in (i for i, s in enumerate(spans) if s[3] is None):
        source = spans[root][4][0]
        kids = children.get(root, [])
        root_total += ms(root)
        unattributed += own_time[root] * 1e3
        replay = next((k for k in kids if spans[k][0] == "arrival.replay"), None)
        main = next((k for k in kids if spans[k][0].startswith("cli.main.")), None)
        if main is not None:
            cmd = spans[main][0][len("cli.main."):]
            stages = sum(ms(k) for k in kids
                         if k != main and not spans[k][0].endswith(".replay"))
            add(source, f"cli.main_ms.{cmd}", ms(main))
            add(source, f"cli.self_ms.{cmd}", ms(main) - stages)
        if source == "own":
            real += ms(main) if main is not None else ms(root) - ms(replay)
        if replay is None:
            continue
        dist = next(k for k in kids if spans[k][0] == "arrival.arrival_distribution")
        stages = 0.0
        for k in children.get(replay, []):
            name = spans[k][0]
            if name == "transforms.to_oriented_energy":
                add(source, "resample.resample_complex_ms", 0.0)
            if name == "resample.resample_complex":
                table[(source, "resample.resample_complex_ms")][-1] += ms(k)
            elif name != "transforms.fourier_eval":
                stages += ms(k)
        add(source, "arrival.self_ms", ms(dist) - stages)

    def values(name):
        for source in ("own", "shipped"):
            if (source, name) in table:
                return table[(source, name)]
        raise KeyError(name)

    def mean(name):
        vals = values(name)
        return sum(vals) / len(vals)

    out = {f"{name}_ms": mean(name) for name in (
        "scenarios.load_scenario", "scenarios.build",
        "grids.gaussian_packet", "grids.probability_current",
        "transforms.to_momentum", "transforms.to_position", "transforms.evolve_free",
        "transforms.fourier_eval", "transforms.default_oriented_grid",
        "transforms.to_oriented_energy", "transforms.to_arrival_time",
        "arrival.split_movers", "arrival.arrival_distribution",
        "arrival.arrival_moments", "arrival.quadrature_oracle",
        "classical.ensemble_from_packet", "classical.momentum_from_position_limit",
        "classical.quantum_momentum_limit", "classical.exact_momentum_histogram")}
    out.update({
        "transforms.s_grid_points_mean": mean("transforms.s_grid_points"),
        "transforms.s_grid_points_max": max(values("transforms.s_grid_points")),
        "transforms.T_points_mean": mean("transforms.T_points"),
        "resample.resample_complex_ms": mean("resample.resample_complex_ms"),
        "resample.query_points_mean": mean("resample.query_points"),
        "resample.residual_max": max(values("resample.residual")),
        "arrival.self_ms": mean("arrival.self_ms"),
        "flows.probes_per_op": mean("flows.probes"),
        "classical.samples_per_op": mean("classical.samples"),
    })
    for kind in workloads.EXPECTED_VERDICT:
        out[f"flows.classify_flow_ms.{kind}"] = mean(f"flows.classify_flow.{kind}")
    for cmd in ("flow-classify", "arrival", "classical-limit", "backflow"):
        for name in (f"cli.main_ms.{cmd}", f"cli.self_ms.{cmd}", f"cli.bytes_out.{cmd}"):
            out[name] = mean(name)
    # Overhead: the workload's own operations untraced against traced.  The
    # traced time counts the real calls (cli.main, or the stream operation
    # without its arrival.replay), not the replayed stages beside them.
    untraced_rate, traced_rate = n_own / untraced_s, n_own / (real / 1e3)
    out["trace.overhead_pct"] = 100.0 * (untraced_rate - traced_rate) / untraced_rate
    out["trace.unattributed_pct"] = 100.0 * unattributed / root_total
    return out


# --------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--role", required=True, choices=("setup", "run", "check", "trace"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--ops-file")
    args = ap.parse_args()

    result = {}
    if args.role in ("setup", "run"):
        warm_up(args.workload, args.run_dir)
        result["ready_at"] = time.monotonic()
    if args.role == "run":
        if args.workload == "cli_batch":
            result.update(run_batch(args.seed, args.seconds, args.run_dir))
        else:
            result.update(run_stream(args.seed, args.seconds))
        result["accuracy"] = panel(args.workload)
    elif args.role == "check":
        result.update(check_cold(args.ops_file, args.run_dir))
        result["accuracy"] = panel("cli_cold")
    elif args.role == "trace":
        result.update(run_trace(args.workload, args.seed, args.run_dir))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
