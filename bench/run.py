"""soct benchmark: one workload run in a fresh process.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. Each workload is one phase (see ``phases.py``), timed
as three stages. After one untimed warm-up round the phase runs in rounds
for about ``--seconds`` of measured time, with a fixed reference workload
timed between its stages and every few hundred operations; each stage
metric is its mean over rounds, scaled by the reference's mean time to the
host speed at which the reference takes ``REFERENCE_S`` (see ``measure``).
Peak RSS is read after the warm-up round, before any probe or check
runs; the outputs of the last round are checked. With ``--trace 1`` the run instead
alternates untraced and traced runs of the phase, then runs every other
workload's phase traced at a tiny size, and reports the per-layer metrics
and the tracing overhead. The last stdout line is the JSON result; the
exit code is non-zero when any output check failed.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported anywhere in this process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("pipeline", "stream", "queries")  # the index tags their rng streams
SIZE, TINY = (16, 4), (8, 3)  # grid size n and depth, n == 2**depth
MIN_ROUNDS, MAX_ROUNDS = 3, 60
SETUP_RUNS = 9
REFERENCE_S = 0.01  # the host speed the stage metrics are scaled to (see measure)
TRACE_PAIRS = 3
LABEL_SEED = 0

SETUP_CODE = """
import sys
from soct import cli, formats
formats.parse_world_config(open(sys.argv[1], encoding="utf-8").read())
formats.parse_weights_config(open(sys.argv[2], encoding="utf-8").read())
"""


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in order."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS}, "seed": seed}


def make_phase(workload: str, size: tuple[int, int], seed: int, workdir: str):
    """The workload's phase on an n x n x 8-cell world, inputs drawn from ``seed``.

    The seed draws each point's position within its cell and the query
    pairs. Label noise and confidences come from fixed streams: they decide
    which blocks the compressed map keeps, and on these map sizes one
    seed's noise changes the graph by up to a third in vertices, more than
    the bounds allow. Positions within a cell change neither the tree nor
    the work.
    """
    import phases
    tag = WORKLOADS.index(workload)
    labels = np.random.default_rng([LABEL_SEED, tag])
    if workload == "queries":
        return phases.QueriesPhase(workdir, *size, labels, [seed, 3])
    draws = np.random.default_rng([seed, tag])
    if workload == "stream":
        return phases.StreamPhase(*size, labels, draws)
    return phases.CliPhase(workdir, *size, labels, draws)


class Tally:
    """Stage times, latencies, operation counts and failures over phase runs."""

    def __init__(self):
        self.stages: list[list[float]] = []
        self.latencies: list[np.ndarray] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.fingerprints: dict[str, str] = {}

    def run(self, name: str, phase, tracer=None, probe=None) -> tuple[dict | None, float]:
        """Run a phase once and keep its timings; returns (output or None, wall time).

        Every run must reproduce the first run's fingerprints. With a
        tracer, only ``phase.run()`` is traced. A full collection first
        leaves each run the same garbage collector state.
        """
        gc.collect()
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                out = phase.run(probe) if probe else phase.run()
            except Exception as exc:  # a crash fails every operation of the phase
                out = exc
            wall = time.perf_counter() - t0
        self.attempted += phase.operations
        if isinstance(out, Exception):
            self.failures += [f"{name}: {type(out).__name__}: {out}"] * phase.operations
            return None, wall
        self.stages.append(phase.stage_times(out))
        self.latencies.append(np.asarray(phase.latencies(out), dtype=np.float64))
        for key, value in phase.fingerprints(out).items():
            old = self.fingerprints.setdefault(f"{name}.{key}", value)
            if old != value:
                self.failures.append(f"{name}: {key} changed between runs")
        return out, wall

    def check(self, name: str, phase, out: dict | None) -> None:
        if out is not None:
            self.failures += [f"{name}: {msg}" for msg in phase.check(out).values()]


def setup_time(workdir: str) -> float:
    """Wall time of a fresh process that imports soct and parses the configs."""
    import workloads as W
    world = os.path.join(workdir, "setup_world.cfg")
    weights = os.path.join(workdir, "setup_weights.cfg")
    if not os.path.exists(weights):
        with open(world, "w", encoding="utf-8") as fh:
            fh.write(W.world_text(64, 6))
        with open(weights, "w", encoding="utf-8") as fh:
            fh.write(W.WEIGHTS)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, world, weights],
                   env=dict(os.environ, PYTHONPATH=SRC), check=True, timeout=120)
    return time.perf_counter() - t0


class Reference:
    """Times the benchmark's own tree encoder on a fixed cloud, as a probe.

    ``reference.encode_tree`` is pure Python like the code under test (dict
    and list work, float arithmetic, ``struct`` packing) and imports no
    soct code, so a change to soct cannot change its time: only the host's
    speed can. Each call takes about 10 ms.
    """

    def __init__(self):
        import workloads as W
        self.k = W.NUM_CLASSES
        rng = np.random.default_rng([LABEL_SEED, len(WORKLOADS)])
        self.records = W.make_cloud(rng, TINY[0])
        self.times: list[float] = []
        self()  # warm-up
        self.times.clear()

    def __call__(self) -> float:
        import reference
        t0 = time.perf_counter()
        reference.encode_tree(self.records, *TINY, self.k)
        elapsed = time.perf_counter() - t0
        self.times.append(elapsed)
        return elapsed


def _rounds(values) -> str:
    return f"n={len(values)} rounds=[{', '.join(f'{v:.4g}' for v in values)}]"


def measure(workload: str, size: tuple[int, int], seed: int, seconds: float,
            workdir: str):
    tally = Tally()
    phase = make_phase(workload, size, seed, workdir)
    out, _ = tally.run(workload, phase)  # warm-up: lazy imports, first allocations
    tally.stages.clear()
    # Peak RSS of a round without the reference probes, which fragment the
    # heap of a growing tree; the checks have not run yet either.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref = Reference()
    setup: list[float] = []
    measured, rounds = 0.0, 0
    # Stop before a round that would end past ``seconds``.
    while rounds < MIN_ROUNDS or (measured * (rounds + 1) / rounds <= seconds
                                  and rounds < MAX_ROUNDS):
        out = None  # frees the last round's output before the next one runs
        out, wall = tally.run(workload, phase, probe=ref)
        measured += wall
        rounds += 1
        if len(setup) < SETUP_RUNS and measured >= len(setup) * seconds / SETUP_RUNS:
            setup.append(setup_time(workdir))  # spread over the run
    while len(setup) < SETUP_RUNS:
        setup.append(setup_time(workdir))
    tally.check(workload, phase, out)
    print(f"rounds {rounds} measured_s {measured:.6g}")
    # On a shared host the CPU speed changes by up to 1.6x over seconds to
    # minutes, with the load of other tenants, and the mean of a run moves
    # with it. The reference workload, run between the stages and every few
    # hundred operations, slows down with the host, so each stage's mean and
    # the median set-up time are scaled by REFERENCE_S over the reference's
    # mean time in the same run: the time they would take at the host speed
    # where the reference takes REFERENCE_S. A change to soct moves the
    # stage and set-up times and not the reference time.
    # name -> (value, how it is taken, samples)
    figures = {"peak_rss_mb": (rss_mb, "peak", [rss_mb])}
    if tally.stages:  # then the phase called the probe at least once
        refs = ref.times
        scale = REFERENCE_S / statistics.mean(refs)
        print(f"reference mean {statistics.mean(refs):.6g} s, median "
              f"{statistics.median(refs):.6g} s, n={len(refs)}; scale {scale:.6g}")
        figures["setup_s"] = (statistics.median(setup) * scale, "median x scale", setup)
        stages = np.array(tally.stages)
        for i, name in enumerate(("stage1_s", "stage2_s", "stage3_s")):
            figures[name] = (float(stages[:, i].mean()) * scale, "mean x scale",
                             list(stages[:, i]))
        rounds_s = stages.sum(axis=1)
        figures["round_s"] = (float(rounds_s.mean()) * scale, "mean x scale",
                              list(rounds_s))
    aliases = dict(zip(("stage1_s", "stage2_s", "stage3_s", "round_s"), phase.NAMES))
    metrics = {}
    for name, unit in metric_units("end_to_end").items():
        if name in figures:  # timings are absent only when every round crashed
            value, how, samples = figures[name]
            alias = f" ({aliases[name]})" if name in aliases else ""
            print(f"metric {name}{alias} {value:.6g} {unit} {how}; samples "
                  f"(unscaled) mean {statistics.mean(samples):.6g}, "
                  f"median {statistics.median(samples):.6g}, {_rounds(samples)}")
            metrics[name] = {"value": value, "unit": unit}
    if phase.LATENCY and tally.latencies:
        rate_name, prefix, unit, scale, percentiles = phase.LATENCY
        pooled = np.concatenate(tally.latencies)
        print(f"also {rate_name} {len(pooled) / pooled.sum():.6g} 1/s n={len(pooled)}")
        for q in percentiles:
            print(f"also {prefix}_p{q}_{unit} {np.percentile(pooled, q) * scale:.6g} "
                  f"{unit} n={len(pooled)} (pooled over rounds)")
    return tally, metrics


def measure_traced(workload: str, size: tuple[int, int], seed: int, workdir: str,
                   trace_path: str):
    import tracing
    tally = Tally()
    phase = make_phase(workload, size, seed, workdir)
    # Untraced and traced runs alternate; the layer metrics come from the
    # last traced run, the overhead from the medians of both kinds.
    untraced, traced = [], []
    for _ in range(TRACE_PAIRS):
        out = None
        out, wall = tally.run(workload, phase)
        untraced.append(wall)
        tracer = tracing.Tracer()
        out, wall = tally.run(workload, phase, tracer)
        traced.append(wall)
    tally.check(workload, phase, out)
    if out is None:
        return tally, {}
    stored = phase.stored(out)
    # Every other workload's phase too, at a tiny size: each layer is then
    # measured on every workload, not reported as a constant zero.
    for other in WORKLOADS:
        if other != workload:
            probe = make_phase(other, TINY, seed, workdir)
            out, _ = tally.run(f"{other}.tiny", probe, tracer)
            tally.check(f"{other}.tiny", probe, out)
            if out is None:
                return tally, {}
            stored = tuple(a + b for a, b in zip(stored, probe.stored(out)))
    tracer.write(trace_path)
    layers = tracing.layer_metrics(tracer, stored)
    overhead = statistics.median(traced) - statistics.median(untraced)
    layers["trace.overhead_s"] = overhead
    print(f"trace spans={len(tracer.spans)} file={os.path.relpath(trace_path, ROOT)}")
    print(f"trace overhead {overhead:.6g} s (median of {TRACE_PAIRS}: "
          f"traced {statistics.median(traced):.6g} s, "
          f"untraced {statistics.median(untraced):.6g} s)")
    metrics = {}
    for name, unit in metric_units("per_layer").items():
        print(f"layer {name} {layers[name]:.6g} {unit}")
        metrics[name] = {"value": layers[name], "unit": unit}
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "soct", "__init__.py")):
        print(f"error: no soct package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        return run(args.workload, SIZE, args.seed, args.seconds, args.trace)
    except Terminated as exc:
        return 128 + exc.args[0]


class Terminated(BaseException):
    """SIGTERM, raised so that ``finally`` blocks remove the scratch directory.

    Not an ``Exception``, and not ``SystemExit`` either, which the in-process
    CLI runner catches as an exit code.
    """


def _terminate(signum, _frame):
    raise Terminated(signum)


def run(workload: str, size: tuple[int, int], seed: int, seconds: float,
        traced: int) -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    print(f"# soct benchmark workload={workload} seed={seed} seconds={seconds} "
          f"trace={traced}")
    print("env " + json.dumps(environment(seed)))
    try:
        if traced:
            path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.jsonl")
            tally, metrics = measure_traced(workload, size, seed, workdir, path)
        else:
            tally, metrics = measure(workload, size, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for key, value in sorted(tally.fingerprints.items()):
        print(f"fingerprint {key} {value}")
    failed = len(tally.failures)
    for msg in tally.failures[:20]:
        print(f"FAILED {msg}")
    print(f"error_rate {failed / tally.attempted:.6g} "
          f"({failed} of {tally.attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
