"""Benchmark for renvol: one command, four workloads, one result line.

    python3 bench/run.py --workload compare-rational --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  One client, closed loop: one operation at a time,
each started when the previous one has returned.  A run repeats whole
rounds of the workload's fixed, seeded batch until ``--seconds`` is used
up, then checks the outputs of the first round against independent
oracles (``workloads.py``, ``oracles.py``) and that every later round
reproduced them exactly.

Times are wall times scaled to a reference machine speed by the probes
in ``calibration.py``; the unscaled figures are printed on stderr.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (set-up time, time per round, median operation
time, peak memory); with ``--trace 1`` untraced and traced rounds
alternate, and the metrics are the per-layer ones from ``tracing.py``.
Spans go to ``bench/out/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 7
TRACED_SETUP_SAMPLES = 3

sys.path.insert(0, str(HERE))

from calibration import process_slowdown, slowdown  # noqa: E402
from tracing import LAYER_METRICS, Tracer, combine_rounds, parse_importtime  # noqa: E402
from workloads import WORKLOADS, CliCold  # noqa: E402


def import_renvol():
    sys.path.insert(0, str(SRC))
    import renvol

    if Path(renvol.__file__).resolve().parent != SRC / "renvol":
        raise ImportError("renvol imported from %s, not from %s" % (renvol.__file__, SRC))
    return renvol


def child_env(tmp):
    """Environment of the measured child processes: renvol from this
    checkout, temporary files inside it, and bytecode caching on, so that a
    cold process starts the way it does for an installed package whatever
    the caller's PYTHONDONTWRITEBYTECODE."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(tmp)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup(args, samples, importtime, work):
    """Wall time from starting a fresh interpreter until it has imported
    renvol and generated the workload's inputs, one child per sample after
    an untimed one that leaves the bytecode cache filled."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
        "--seed", str(args.seed)]
    env = child_env(work)
    subprocess.run(cmd, env=env, capture_output=True, timeout=60, check=True)
    raw, scaled, imports = [], [], []
    before = process_slowdown()
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        watchdog = threading.Timer(60.0, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate()
        finally:
            watchdog.cancel()
            proc.kill()
            proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("set-up child failed (exit %s): %s" % (proc.returncode, err[-2000:]))
        after = process_slowdown()
        raw.append(t1 - t0)
        scaled.append((t1 - t0) / (0.5 * (before + after)))
        before = after
        imports.append(parse_importtime(err))
    return raw, scaled, imports


def setup_only(args):
    import_renvol()
    WORKLOADS[args.workload].generate(args.seed)
    print("ready", flush=True)
    return 0


class Runner:
    """Rounds of one workload; collects timings, outputs and trace data."""

    def __init__(self, workload, inputs, args, work):
        self.wl = workload
        self.ops = inputs["ops"]
        self.args = args
        self.work = str(work)
        self.cli = isinstance(workload, CliCold)
        self.rv = None
        self.cli_run = None
        if self.cli:
            workload.prepare(self.work)
            self.env = child_env(self.work)
            if args.trace:
                tempfile.tempdir = self.work
                self.rv = import_renvol()
                from renvol.cli import run as cli_run

                self.cli_run = cli_run
        else:
            self.rv = import_renvol()
        self.tracer = Tracer() if args.trace else None
        self.probe = self.process_probe if self.cli else self.chunk_probe
        self.reference = [None] * len(self.ops)
        self.bad_rounds = [0] * len(self.ops)  # rounds in which the op raised or differed
        self.errors = []
        self.op_scaled = []  # untraced op seconds at the reference speed
        self.scaled_pass = []  # untraced round seconds at the reference speed
        self.traced_scaled_pass = []
        self.untraced_pass = []  # raw wall seconds
        self.traced_pass = []
        self.layer_rounds = []
        self.cli_imports = []
        self.cli_run_ms = []
        self.rounds = 0

    @staticmethod
    def chunk_probe(op_seconds=0.0):
        # longer operations get a longer look at the machine's speed
        return slowdown(1 + min(4, int(op_seconds / 0.1)))

    @staticmethod
    def process_probe(op_seconds=0.0):
        return process_slowdown()

    def execute(self, i, traced):
        """Run op i; returns its output and the seconds that count as the
        operation (for cli-cold, the cold process alone)."""
        op = self.ops[i]
        if not self.cli:
            t0 = time.perf_counter()
            if traced:
                with self.tracer.span("op"):
                    output = self.wl.run_op(self.rv, op)
            else:
                output = self.wl.run_op(self.rv, op)
            return output, time.perf_counter() - t0
        output, wall, stderr = self.wl.run_cold(op, self.work, self.env, importtime=traced)
        if traced:
            self.cli_imports.append(parse_importtime(stderr))
            argv = self.wl.argv(op, self.work)
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                with self.tracer.span("cli.run"):
                    t0 = time.perf_counter()
                    code = self.cli_run(argv)
                    self.cli_run_ms.append((time.perf_counter() - t0) * 1e3)
            if code != output[0]:
                raise RuntimeError("in-process exit %r, cold process %r" % (code, output[0]))
        return output, wall

    def round(self, traced):
        gc.collect()
        if traced:
            self.tracer.round = self.rounds
            self.tracer.install()
        raw = scaled = 0.0
        try:
            before = self.probe()
            for i in range(len(self.ops)):
                if traced:
                    self.tracer.op = i
                try:
                    output, seconds = self.execute(i, traced)
                except Exception as exc:  # a failed operation is counted, not fatal
                    self.bad_rounds[i] += 1
                    self.errors.append("op %d (round %d) raised %s: %s"
                                       % (i, self.rounds, type(exc).__name__, exc))
                    before = self.probe()
                    continue
                after = self.probe(seconds)
                op_scaled = seconds / (0.5 * (before + after))
                before = after
                raw += seconds
                scaled += op_scaled
                if not traced:
                    self.op_scaled.append(op_scaled)
                if self.reference[i] is None:
                    self.reference[i] = output
                elif output != self.reference[i]:
                    self.bad_rounds[i] += 1
                    self.errors.append("op %d (round %d) differs from its first output"
                                       % (i, self.rounds))
        finally:
            if traced:
                self.tracer.uninstall()
        if traced:
            self.traced_pass.append(raw)
            self.traced_scaled_pass.append(scaled)
            self.layer_rounds.append(self.tracer.round_metrics(self.rounds))
        else:
            self.untraced_pass.append(raw)
            self.scaled_pass.append(scaled)
        self.rounds += 1

    def run(self, seconds):
        # one untimed operation first: compiles bytecode and fills lazy imports
        try:
            self.execute(0, False)
        except Exception:  # reported when the op fails in the timed rounds
            pass
        start = time.perf_counter()
        longest = 0.0
        while True:
            traced = bool(self.args.trace) and self.rounds % 2 == 1
            t0 = time.perf_counter()
            self.round(traced)
            longest = max(longest, time.perf_counter() - t0)
            enough = self.untraced_pass and (not self.args.trace or self.traced_pass)
            if enough and time.perf_counter() - start + longest > seconds:
                break


def run_workload(args, work):
    wl = WORKLOADS[args.workload]
    inputs = wl.generate(args.seed)
    runner = Runner(wl, inputs, args, work)
    runner.run(args.seconds)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if runner.cli else resource.RUSAGE_SELF)
    peak_rss_mb = usage.ru_maxrss / 1024.0

    try:
        bad = wl.check(inputs, runner.reference)
        check_error = None
    except Exception as exc:  # a crashing check is reported as incorrect
        bad, check_error = {}, "%s: %s" % (type(exc).__name__, exc)
    for i, msgs in sorted(bad.items()):
        for msg in msgs:
            runner.errors.append("op %d (%s): %s" % (i, json.dumps(runner.ops[i])[:160], msg))
    if check_error:
        runner.errors.append("check raised " + check_error)

    n_rounds = len(runner.untraced_pass) + len(runner.traced_pass)
    attempted = n_rounds * len(runner.ops)
    failed = sum(min(n_rounds, runner.bad_rounds[i] + (n_rounds if i in bad else 0))
                 for i in range(len(runner.ops)))
    correct = not bad and check_error is None

    if args.trace:
        layers, unsteady = combine_rounds(runner.layer_rounds)
        if unsteady:
            correct = False
            runner.errors.append("counts differ between traced rounds: " + ", ".join(unsteady))
        if runner.cli:
            imports = runner.cli_imports
            layers["cli.run_ms"] = statistics.median(runner.cli_run_ms)
        else:
            _, _, imports = measure_setup(args, TRACED_SETUP_SAMPLES, True, work)
            layers["cli.run_ms"] = 0.0
        layers["cli.import_ms"] = statistics.median(r for r, _ in imports)
        layers["cli.numpy_import_ms"] = statistics.median(n for _, n in imports)
        layers["trace.overhead_s"] = (statistics.median(runner.traced_scaled_pass)
                                      - statistics.median(runner.scaled_pass))
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
        trace_path = OUT / ("trace-%s-%d.jsonl" % (args.workload, args.seed))
        runner.tracer.write(trace_path)
        print("trace written to %s" % trace_path, file=sys.stderr)
    else:
        setup_raw, setup_scaled, _ = measure_setup(args, SETUP_SAMPLES, False, work)
        metrics = {
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "pass_s": {"value": statistics.median(runner.scaled_pass), "unit": "s"},
            "op_ms.p50": {"value": statistics.median(runner.op_scaled) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print("  unscaled wall: setup_s %.4f, pass_s %.4f"
              % (statistics.median(setup_raw), statistics.median(runner.untraced_pass)),
              file=sys.stderr)
        print("  round seconds, wall/scaled: %s" % " ".join(
            "%.3f/%.3f" % pair for pair in zip(runner.untraced_pass, runner.scaled_pass)),
            file=sys.stderr)
    print("%s seed %d: %d rounds of %d ops (%d traced), %d failed"
          % (args.workload, args.seed, n_rounds, len(runner.ops), len(runner.traced_pass), failed),
          file=sys.stderr)
    for line in runner.errors[:20]:
        print("  " + line, file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import renvol, generate the inputs, print 'ready' and exit "
                             "(the child that set-up time is measured on)")
    args = parser.parse_args(argv)
    if not (SRC / "renvol" / "__init__.py").is_file():
        print("error: renvol sources not found under %s" % SRC, file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_only(args)
    # The cores of the sandbox change speed independently of each other, so
    # the calibration only describes a child process that runs on the same
    # core: keep this process and every child on one.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / ("work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    work.mkdir()
    try:
        result = run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    line = json.dumps(result)
    with open(OUT / ("result-%s-%d-trace%d.json" % (args.workload, args.seed, args.trace)), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
