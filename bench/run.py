"""Benchmark of the wells-majorize command line, run in-process.

    python3 bench/run.py --workload threshold --seed 1 --seconds 30 --trace 0

One process, one thread, one closed-loop client: each operation is one
`wells_majorize.cli.main` call and starts when the previous one ends.
A run executes the workload's whole operation list (a pass) as many
times as fill --seconds at the first pass's pace, and at least three
times, so every run holds whole passes of the same operations and no
pass is cut short. Each latency is scaled to a reference host speed,
read by timing a fixed reference work before every operation, so that
a period in which the shared host runs slower does not read as a
slower program. Outputs are checked outside the timed region. The
last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}; with --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones. See README.md.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import oplist  # noqa: E402 - the script's directory is first on sys.path
import spans  # noqa: E402
import verify  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 7
SETUP_READINGS = 9
MIN_PASSES = 3
SETUP_TIMEOUT_S = 60
# Host-speed reference: the median time of ReferenceWork() on this host
# in a calm period (2 CPUs, Python 3.11.7, numpy 2.4.6). Timed metrics
# are scaled by REFERENCE_S over the reference work's time measured
# alongside each operation, so they read as times on a host running at
# that speed; see README.md, "Scaling to the host's speed".
REFERENCE_S = 0.0018
REFERENCE_WINDOW = 17


def import_cli():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "wells_majorize" / "cli.py").is_file():
        raise SystemExit(f"error: no wells_majorize sources under {src}")
    sys.path.insert(0, str(src))
    from wells_majorize import cli
    if Path(cli.__file__).resolve().parent != (src / "wells_majorize").resolve():
        raise SystemExit(f"error: imported wells_majorize from {cli.__file__}, not {src}")
    return cli


def invoke(cli, argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of one CLI call; a usage error that
    argparse turns into SystemExit is an exit code like any other."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def set_up(workload: str, seed: int, input_dir: Path):
    """Fresh import, seeded inputs and one warm-up call per subcommand."""
    cli = import_cli()
    ops = oplist.build(workload, seed, input_dir)
    for argv in oplist.WARMUP[workload]:
        code, _ = invoke(cli, argv)
        if code != 0:
            raise SystemExit(f"error: warm-up {' '.join(argv)} exited {code}")
    return cli, ops


def steal_seconds() -> float | None:
    """Machine-wide steal time so far, from /proc/stat (None if unreadable)."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def setup_samples(args) -> list[tuple[float, float]]:
    """Fresh processes that only set up: for each, the wall time from
    process start to the end of set-up, and the host-speed reading the
    process took right after its set-up (see `set_up_and_read_speed`).
    The reading's own cost is taken off the wall time."""
    samples = []
    env = {k: v for k, v in os.environ.items() if k != "WELLS_MAJORIZE_THREADS"}
    for i in range(SETUP_SAMPLES):
        input_dir = OUT_DIR / f"setup-{args.workload}-{os.getpid()}-{i}"
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(input_dir)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S)
        wall = time.perf_counter() - start
        shutil.rmtree(input_dir, ignore_errors=True)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up process failed: {proc.stderr.strip()}")
        reading = json.loads(proc.stdout.splitlines()[-1])
        samples.append((wall - reading["cost_s"], reading["reference_s"]))
    return samples


def set_up_and_read_speed(args) -> None:
    """The body of a set-up process: set up, then time the reference work
    SETUP_READINGS times and print the median and the readings' cost."""
    set_up(args.workload, args.seed, Path(args.setup_only))
    start = time.perf_counter()
    reference = ReferenceWork()
    readings = [reference() for _ in range(SETUP_READINGS)]
    print(json.dumps({"reference_s": statistics.median(readings),
                      "cost_s": time.perf_counter() - start}))


class Checker:
    """Checks each distinct output once; identical outputs of the same
    operation get the same verdict."""

    def __init__(self) -> None:
        self.verdicts: dict[tuple, list[str]] = {}
        self.problems: list[str] = []

    def __call__(self, op, code: int, text: str) -> bool:
        try:
            key = (tuple(op.argv), code, verify.normalized(text, op.fmt))
        except ValueError as exc:
            verdict = [f"unreadable report: {exc}"]
        else:
            if key not in self.verdicts:
                self.verdicts[key] = verify.check(op, code, text)
            verdict = self.verdicts[key]
        for problem in verdict:
            self.problems.append(f"{' '.join(op.argv)[:120]}: {problem}")
        return not verdict


class ReferenceWork:
    """A fixed piece of work independent of the package, timed next to
    every operation to read the host's current speed: big-integer
    `Fraction` arithmetic, string sorting and JSON encoding, and `exp`
    over an array, the kinds of work the three workloads do. Its arrays
    are allocated once, and the garbage collector is off while it runs,
    so that the reading depends on the host and not on the state of the
    process's allocator or the size of its heap."""

    def __init__(self) -> None:
        import numpy as np
        self.np = np
        self.grid = np.linspace(-3.0, 3.0, 100_000)
        self.buffer = np.empty_like(self.grid)

    def __call__(self) -> float:
        """Seconds the reference work took."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            acc = Fraction(0)
            for k in range(1, 60):
                acc += Fraction(k * k + 1, 2 * k + 3) ** 3
            words = sorted(str(k * 7919 % 100003) for k in range(1000))
            json.dumps({w: i for i, w in enumerate(words)})
            float(self.np.exp(self.grid, out=self.buffer).sum())
            return time.perf_counter() - start
        finally:
            if was_enabled:
                gc.enable()


def scaled(latencies: list[float], references: list[float]) -> list[float]:
    """Latencies scaled to the reference speed: each one times REFERENCE_S
    over the median reference time of the REFERENCE_WINDOW operations
    around it in the pass."""
    half = REFERENCE_WINDOW // 2
    return [t * REFERENCE_S / statistics.median(references[max(0, i - half):i + half + 1])
            for i, t in enumerate(latencies)]


def timed_invoke(cli, argv: list[str]) -> tuple[float, tuple[int, str]]:
    start = time.perf_counter()
    try:
        output = invoke(cli, argv)
    except Exception as exc:  # an operation that raises is a failed operation
        output = (-1, f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - start, output


def run_pass(cli, ops, reference: ReferenceWork, tracer=None, parity: int = 0):
    """One timed pass over the list; the reference work runs before each
    operation. With a tracer, each operation runs untraced and traced
    back to back, so that both see the same machine state; which goes
    first alternates between operations (and between passes, by
    `parity`), because a repeat right after the first call runs faster.
    Returns the untraced and traced latencies, the reference times and
    every (operation, output) pair."""
    latencies, traced, references, outputs = [], [], [], []
    gc.collect()
    for i, op in enumerate(ops):
        references.append(reference())
        runs = [latencies] if tracer is None else [latencies, traced]
        if (i + parity) % 2:
            runs.reverse()
        for sink in runs:
            with tracer if sink is traced else contextlib.nullcontext():
                seconds, output = timed_invoke(cli, op.argv)
            sink.append(seconds)
            outputs.append((op, output))
    return latencies, traced, references, outputs


def run_passes(cli, ops, seconds: float, min_passes: int, check: Checker, tracer=None):
    """Whole passes of the list: as many as fill `seconds` at the first
    pass's pace, and at least `min_passes`. Outputs are checked between
    passes, outside the timed region. Returns the untraced and traced
    latencies and the reference times of each pass, and the number of
    failed operations."""
    passes: list[list[float]] = []
    traced_passes: list[list[float]] = []
    reference_passes: list[list[float]] = []
    failed, target = 0, min_passes
    reference = ReferenceWork()
    while len(passes) < target:
        latencies, traced, references, outputs = run_pass(cli, ops, reference, tracer, len(passes))
        passes.append(latencies)
        traced_passes.append(traced)
        reference_passes.append(references)
        if len(passes) == 1:
            pass_s = sum(latencies) + sum(traced) + sum(references)
            target = max(min_passes, round(seconds / pass_s))
        failed += sum(not check(op, code, text) for op, (code, text) in outputs)
    return passes, traced_passes, reference_passes, failed


def per_op_median_s(passes: list[list[float]]) -> list[float]:
    """Each operation's median latency over the passes."""
    return [statistics.median(samples) for samples in zip(*passes)]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="INPUT_DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()
    os.environ.pop("WELLS_MAJORIZE_THREADS", None)
    if args.workload not in oplist.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(oplist.WORKLOADS)}")

    if args.setup_only:
        set_up_and_read_speed(args)
        return 0

    input_dir = OUT_DIR / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    cli, ops = set_up(args.workload, args.seed, input_dir)
    info: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "ops_per_pass": len(ops), "own_setup_s": time.perf_counter() - PROCESS_START,
                  "python": platform.python_version(), "numpy": sys.modules["numpy"].__version__,
                  "cpus": os.cpu_count()}
    check = Checker()
    steal_before = steal_seconds()
    try:
        if args.trace:
            tracer = spans.Tracer()
            untraced, passes, references, failed = run_passes(cli, ops, args.seconds, 1, check, tracer)
            attempted = 2 * len(ops) * len(passes)
            overhead = sum(per_op_median_s(passes)) / sum(per_op_median_s(untraced)) - 1
            span_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.write(span_file)
            metrics = {name: metric(value, unit)
                       for name, (value, unit) in tracer.layer_metrics(len(passes)).items()}
            info.update(trace_overhead=overhead, span_file=str(span_file.relative_to(ROOT)),
                        spans=len(tracer.spans))
        else:
            raw, _, references, failed = run_passes(cli, ops, args.seconds, MIN_PASSES, check)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            attempted = len(ops) * len(raw)
            passes = [scaled(p, r) for p, r in zip(raw, references)]
            setup = setup_samples(args)
            metrics = {
                "ops_per_s": metric(len(ops) / sum(per_op_median_s(passes)), "1/s"),
                "op_ms_p50": metric(statistics.median(itertools.chain(*passes)) * 1000, "ms"),
                "setup_s": metric(statistics.median(t * REFERENCE_S / r for t, r in setup), "s"),
                "peak_rss_mb": metric(peak_rss_mb, "MB"),
            }
            info.update(setup_samples_s=setup, raw_ms=[[t * 1000 for t in p] for p in raw], unscaled={
                "ops_per_s": len(ops) / sum(per_op_median_s(raw)),
                "op_ms_p50": statistics.median(itertools.chain(*raw)) * 1000,
                "setup_s": statistics.median(t for t, _ in setup)})
        if args.workload == "probe":
            check.problems += [f"oracle cross-check: {p}" for p in verify.oracle_cross_check(args.seed)]
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)
    steal_after = steal_seconds()
    if steal_before is not None and steal_after is not None:
        info["steal_s"] = steal_after - steal_before
    reference_ms = statistics.median(itertools.chain(*references)) * 1000
    info.update(passes=len(passes), pass_s=[sum(p) for p in passes], attempted=attempted,
                failed=failed, problems=check.problems[:50], reference_ms=reference_ms,
                references_ms=[[t * 1000 for t in r] for r in references],
                op_ms=[(" ".join(op.argv[:8])[:100], [t * 1000 for t in samples])
                       for op, samples in zip(ops, zip(*passes))])
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "metrics": metrics}, indent=1))
    for problem in check.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    print(f"steal_s: {info.get('steal_s', 'unavailable')}  reference_ms: {reference_ms:.4f}  "
          f"passes: {len(passes)}  ops/pass: {len(ops)}"
          + (f"  trace_overhead: {info['trace_overhead']:.4f}" if args.trace else ""))
    print(json.dumps({"correct": not check.problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
