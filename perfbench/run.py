"""qcmt benchmark: the public CLI entry point, closed loop, one client.

    python3 perfbench/run.py --workload gram --seed 1 --seconds 10 --trace 0

Runs ``qcmt.cli.main(argv)`` in one warm interpreter, one command after the
other, from the root of a checkout (``src/`` must hold the ``qcmt`` package).
Workloads, shape schedules and seeds are defined in ``workloads.py``; every
command's exit code and output are checked after timing (``checks.py``).

``--trace 0`` prints the end-to-end metrics: the timed loop runs whole
blocks of 50 commands until ``--seconds`` of command time have passed and
at least two blocks (100 commands) have run, so ten samples lie beyond the
90th percentile.  ``--trace 1`` prints the per-layer metrics: each command of
one block runs untraced and under the outside-in tracer (``tracer.py``),
and both runs must write identical bytes.  ``--check-shapes`` traces block 0
of two seeds and fails unless their shape-determined counts agree.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_BLOCKS = 2
SETUP_REPEATS = 7
# On a shared host the whole machine's speed drifts, by up to 30% between
# runs half a minute apart.  A fixed pure-Python loop drifts with it, so
# every end-to-end time is scaled by REFERENCE_LOOP_S over the median time
# of that loop in the same run: seconds at the reference machine's usual
# speed (2-core VM, Python 3.11.7, where the loop's median is 1.4 ms).
CALIBRATION_LOOPS = 20_000
REFERENCE_LOOP_S = 1.4e-3
SETUP_LOOPS = 10
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Counters that depend on the shape schedule only, never on seeded values.
# On cli-mix the verify probes draw random elements from each command's
# --seed, so the number of Wick moments they evaluate varies with it.
SHAPE_COUNTS = (
    "cli.main.calls",
    "gns.gram.entries",
    "fields.vacuum_kernel.calls",
    "fields.thermal_kernel.calls",
    "fields.kernel_as_gaussian.calls",
    "gaussian.wick_expect.calls",
)
SEEDED_COUNTS = {"cli-mix": {"gaussian.wick_expect.calls"}}


def pin_environment():
    """One BLAS thread and no progress logging, for this process and its children."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("QCMT_LOG", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))


def calibration_loop() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine's speed now."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return time.perf_counter() - start


def measure_setup() -> tuple:
    """Median wall time from a fresh interpreter to ``import qcmt.cli`` done,
    and the median calibration loop timed between those processes."""
    times, loops = [], []
    for _ in range(SETUP_REPEATS):
        loops += [calibration_loop() for _ in range(SETUP_LOOPS)]
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import qcmt.cli"],
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times), statistics.median(loops)


def write_configs(commands, workdir: Path, tag: str) -> list:
    """Write each command's config file; return the argument vectors."""
    argvs = []
    for i, cmd in enumerate(commands):
        path = None
        if cmd.config is not None:
            path = workdir / f"{tag}-{i}.json"
            path.write_text(json.dumps(cmd.config), encoding="utf-8")
        argvs.append(cmd.argv(None if path is None else str(path)))
    return argvs


def call(cli, argv) -> tuple:
    """Run one command; returns (exit status, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            status = cli.main(argv)
        except Exception as exc:  # a crash is a failed command, not a dead benchmark
            status = None
            print(f"{type(exc).__name__}: {exc}", file=err)
        seconds = time.perf_counter() - start
    return status, out.getvalue(), err.getvalue(), seconds


def gate(commands, results) -> dict:
    """Failure reason by command position, for each command that failed."""
    from checks import check

    reasons = {}
    for i, (cmd, (status, out, err, _)) in enumerate(zip(commands, results)):
        reason = check(cmd, status, out)
        if reason is not None:
            tail = err.strip().splitlines()[-1:]
            reasons[i] = f"{cmd.shape}: {reason} {' '.join(tail)}".rstrip()
    return reasons


def timed_run(cli, workload: str, seed: int, seconds: float, workdir: Path) -> tuple:
    """Whole blocks until ``seconds`` of command time and ``MIN_BLOCKS`` have
    passed; a calibration loop runs before each command, outside its time."""
    from workloads import block

    commands, results, loops, b = [], [], [], 0
    while b < MIN_BLOCKS or sum(r[3] for r in results) < seconds:
        cmds = block(workload, seed, b)
        for argv in write_configs(cmds, workdir, f"block{b}"):
            loops.append(calibration_loop())
            results.append(call(cli, argv))
        commands += cmds
        b += 1
    return commands, results, loops, b


def determinism_failures(cli, commands, results, workdir: Path) -> dict:
    """Repeat the first command of each mode; its bytes must not change."""
    reasons, seen = {}, set()
    for i, cmd in enumerate(commands):
        if cmd.mode in seen:
            continue
        seen.add(cmd.mode)
        (argv,) = write_configs([cmd], workdir, f"repeat-{cmd.mode}")
        status, out, _, _ = call(cli, argv)
        if (status, out) != results[i][:2]:
            reasons[i] = f"{cmd.shape}: repeating the command changed its output"
    return reasons


def end_to_end(args, workdir: Path) -> dict:
    setup_s, setup_loop_s = measure_setup()
    from qcmt import cli

    warm_up(cli, args.workload, args.seed, workdir)
    commands, results, loops, blocks = timed_run(
        cli, args.workload, args.seed, args.seconds, workdir
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    keys = [json.dumps([c.mode, c.config, c.seed], sort_keys=True) for c in commands]
    if len(set(keys)) != len(keys):
        raise SystemExit("benchmark error: a config repeats inside the timed run")
    reasons = determinism_failures(cli, commands, results, workdir)
    reasons.update(gate(commands, results))
    times = [r[3] for r in results]
    elapsed = sum(times)
    p50 = statistics.median(times)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
    loop_s = statistics.median(loops)
    scale = REFERENCE_LOOP_S / loop_s
    setup_scale = REFERENCE_LOOP_S / setup_loop_s
    print(f"# {args.workload}: {len(times)} commands in {blocks} blocks, {elapsed:.2f} s; "
          f"p50 {p50:.4f} s, p90 {p90:.4f} s over n={len(times)}, "
          f"{sum(t > p90 for t in times)} beyond p90; setup {setup_s:.4f} s (unscaled)")
    print(f"# calibration loop: median {loop_s * 1e3:.4f} ms over {len(loops)} commands, "
          f"{setup_loop_s * 1e3:.4f} ms at set-up; scales {scale:.4f}, {setup_scale:.4f}")
    return finish(reasons, len(commands), "end_to_end", {
        "setup_s": setup_s * setup_scale,
        "cmds_per_s": len(commands) / (elapsed * scale),
        "cmd_s.p50": p50 * scale,
        "cmd_s.p90": p90 * scale,
        "pass_ratio": (len(commands) - len(reasons)) / len(commands),
        "peak_rss_mb": peak_rss_mb,
    })


def warm_up(cli, workload: str, seed: int, workdir: Path):
    """One untimed command drawn apart from every block: first-call set-up
    inside numpy and scipy happens here, not in a timed command."""
    from workloads import warmup

    (argv,) = write_configs([warmup(workload, seed)], workdir, "warmup")
    call(cli, argv)


def traced_call(tracer, cli, argv) -> tuple:
    """``call`` with the tracer installed for this one command."""
    tracer.new_command()
    tracer.install()
    try:
        return call(cli, argv)
    finally:
        tracer.restore()


def per_layer(args, workdir: Path) -> dict:
    from qcmt import cli
    from tracer import Tracer
    from workloads import block

    warm_up(cli, args.workload, args.seed, workdir)
    commands = block(args.workload, args.seed, 0)
    argvs = write_configs(commands, workdir, "block0")
    # each command runs untraced and traced back to back, in alternating
    # order, so drift in machine speed and warm caches cancel in the ratio
    tracer = Tracer()
    untraced, traced = [], []
    for i, argv in enumerate(argvs):
        if i % 2:
            traced.append(traced_call(tracer, cli, argv))
            untraced.append(call(cli, argv))
        else:
            untraced.append(call(cli, argv))
            traced.append(traced_call(tracer, cli, argv))
    reasons = {
        i: f"{cmd.shape}: traced output differs from untraced output"
        for i, (cmd, a, b) in enumerate(zip(commands, untraced, traced))
        if a[:2] != b[:2]
    }
    reasons.update(gate(commands, untraced))
    metrics = tracer.metrics(
        traced_s=sum(r[3] for r in traced),
        untraced_s=sum(r[3] for r in untraced),
        output_bytes=sum(len(r[1].encode("utf-8")) for r in traced),
    )
    metrics["fields.boost_probe.vacuum_violations"] = probe_violations(cli, args.seed, workdir)
    shares = ", ".join(
        f"{k.split('.')[0]} {v:.1%}" for k, v in metrics.items() if k.endswith(".self_share")
    )
    print(f"# {args.workload}: self-time shares of {len(commands)} traced commands: {shares}")
    return finish(reasons, len(commands), "per_layer", metrics)


def probe_violations(cli, seed: int, workdir: Path) -> int:
    """Rows of untraced, ungated boost scans beyond field-scan's rapidity
    reach that break the vacuum-deviation gate: a known defect of the field
    kernel's quadrature, counted so that a fix (or a regression) shows."""
    from checks import vacuum_violations
    from workloads import boost_probe

    commands = boost_probe(seed)
    argvs = write_configs(commands, workdir, "probe")
    return sum(vacuum_violations(cmd, call(cli, argv)[1]) for cmd, argv in zip(commands, argvs))


def check_shapes(args, workdir: Path) -> int:
    from qcmt import cli
    from tracer import Tracer
    from workloads import block

    counts = []
    for seed in (args.seed, args.seed + 1):
        tracer = Tracer()
        for argv in write_configs(block(args.workload, seed, 0), workdir, f"seed{seed}"):
            traced_call(tracer, cli, argv)
        counts.append(tracer.metrics(1.0, 1.0, 0))
    names = [n for n in SHAPE_COUNTS if n not in SEEDED_COUNTS.get(args.workload, ())]
    differ = [n for n in names if counts[0][n] != counts[1][n]]
    for n in names:
        print(f"{n}: seed {args.seed} -> {counts[0][n]}, seed {args.seed + 1} -> {counts[1][n]}")
    print("shape counts differ: " + ", ".join(differ) if differ else "shape counts agree")
    return 1 if differ else 0


def finish(reasons: dict, attempted: int, section: str, values: dict) -> dict:
    """The result object; metric names and units must match ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(values) != set(units):
        raise SystemExit(f"benchmark error: metrics differ from BENCHMARK.json {section}: "
                         f"{sorted(set(values) ^ set(units))}")
    for reason in reasons.values():
        print(f"# FAILED {reason}")
    return {
        "correct": not reasons,
        "attempted": attempted,
        "failed": len(reasons),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main() -> int:
    from workloads import BLOCKS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(BLOCKS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-shapes", action="store_true")
    args = parser.parse_args()
    if not (SRC / "qcmt" / "cli.py").is_file():
        print(f"benchmark error: no qcmt package under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    print("# env " + json.dumps(environment(), sort_keys=True))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        if args.check_shapes:
            return check_shapes(args, workdir)
        result = per_layer(args, workdir) if args.trace else end_to_end(args, workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
