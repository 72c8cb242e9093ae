"""Benchmark of the ``persistnet run`` pipeline.

Usage, from the root of a persistnet checkout::

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 12 --trace 0

One operation is one in-process ``persistnet.cli.main(["run", FILE,
"--out-dir", DIR])`` call; one pass runs every scenario file of the
workload once.  A run

1. times the set-up: a fresh process imports persistnet and writes the
   workload's scenario files for ``--seed``;
2. runs one untimed pass over the ``REFERENCE_SEED`` inputs and checks each
   report and CSV against the stored reference (this also warms up);
3. runs timed passes for ``--seconds``, checking every operation's report.

Step 1 is repeated ``SETUP_SAMPLES`` times in a ``--trace 0`` run.

With ``--trace 0`` every timed operation and set-up is also run, at the
same time and on the same CPU, by the frozen baseline library in a child
process (``baseline/``).  Both are timed in CPU seconds, and times are
reported at the baseline's stored speed: each time is scaled by the
baseline's stored time for the same work over the baseline's time measured
beside it, which takes out the drift in machine speed that both see.  The
last line of standard output is a JSON object with the end-to-end metrics.  With ``--trace 1`` the run spends half its time
untraced and half traced (see ``tracing.py``), without the baseline, and
reports the per-layer metrics plus the tracing overhead.  Lines before the
last are for people.

``--write-reference`` instead runs every scenario at ``REFERENCE_SEED`` once
and stores the reports as the new reference; use it only when a verdict or
a reported value is meant to change.  ``--write-speed`` runs the baseline
alone on every workload at ``REFERENCE_SEED`` for ``--seconds`` each and
stores its median CPU time per operation and per set-up in ``SPEED_PATH``.

Linux only: the run pins itself to one CPU with ``os.sched_setaffinity``.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported, here and in set-up processes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import verify  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BASELINE_WORKER = HERE / "baseline" / "worker.py"
SPEED_PATH = HERE / "reference" / "baseline_speed.json"

SETUP_SAMPLES = 3

# (name, unit) of the metrics a --trace 0 run reports
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("verdict_s_p50", "s"),
              ("peak_rss_mb", "MB"), ("verified_ratio", "ratio"))
TRACE_EXTRA = (("trace.pass_s", "s"), ("trace.overhead_s", "s"))


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), cpu)
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (SRC / "persistnet").glob("*.py"))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit, "src_lines": src_lines}


def start_setup(workload: str, seed: int, out: Path, baseline: bool = False):
    """Start a fresh process that writes the inputs (with the baseline library if asked)."""
    return subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(out)] + (["--baseline"] if baseline else []),
        stdout=subprocess.PIPE, text=True,
    )


def setup_seconds(proc) -> float:
    """CPU seconds a set-up process used until it had written the inputs."""
    try:
        out, _ = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited with code {proc.returncode}")
    return float(out.split()[-1])


def setup_pair(workload: str, seed: int, program_out: Path, baseline_out: Path):
    """``(program_s, baseline_s)`` of two set-ups run side by side."""
    procs = [start_setup(workload, seed, program_out),
             start_setup(workload, seed, baseline_out, baseline=True)]
    return tuple(setup_seconds(proc) for proc in procs)


def pin_to_one_cpu() -> set[int]:
    """Keep this process, and the processes it starts, on one CPU; returns the old set."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    return cpus


def _contents(directory: Path) -> list[tuple[str, bytes]]:
    return [(p.name, p.read_bytes()) for p in sorted(directory.glob("*.json"))]


def run_op(scenario: Path, out_dir: Path) -> tuple[float, list[str]]:
    """Time one ``persistnet run`` call; returns CPU seconds and any failure."""
    from persistnet import cli  # looked up per call, so a traced run sees its wrappers

    sink = io.StringIO()
    start = time.process_time()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(["run", str(scenario), "--out-dir", str(out_dir)])
    except Exception as e:  # an operation that raises counts as failed; keep measuring
        return time.process_time() - start, [f"raised {e!r}"]
    seconds = time.process_time() - start
    return seconds, ([] if rc == 0 else [f"exit code {rc}: {sink.getvalue()[-300:]}"])


class Gate:
    """Counts operations and checks each one's report against its reference."""

    def __init__(self, references: dict, out_dir: Path):
        self.references = dict(references)  # scenario name -> canonical report
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._docs: dict[Path, dict] = {}

    def scenario(self, path: Path) -> dict:
        if path not in self._docs:
            self._docs[path] = json.loads(path.read_text())
        return self._docs[path]

    def report_path(self, path: Path) -> Path:
        return self.out_dir / f"{self.scenario(path)['name']}.report.json"

    def run(self, path: Path, read_csv: bool = False, fingerprint: dict | None = None) -> float:
        """Run one operation, check it, and return its time.

        With ``read_csv`` the operation's trajectory file is read back too,
        and compared with ``fingerprint`` when one is given.
        """
        self.report_path(path).unlink(missing_ok=True)
        seconds, problems = run_op(path, self.out_dir)
        if not problems:
            problems = self.check(path)
        if not problems and read_csv:
            problems = self.check_csv(path, fingerprint)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{path.name}: {p}" for p in problems[:3]]
        return seconds

    def check(self, path: Path) -> list[str]:
        doc = self.scenario(path)
        report_path = self.report_path(path)
        if not report_path.exists():
            return ["no report written"]
        got = verify.canonical(json.loads(report_path.read_text()))
        ref = self.references.setdefault(doc["name"], got)
        return verify.expectations(doc, got) + verify.differences(ref, got)

    def check_csv(self, path: Path, fingerprint: dict | None) -> list[str]:
        from persistnet.scenarios import read_trajectory_csv

        report = json.loads(self.report_path(path).read_text())
        csv = self.out_dir / report["trajectory_file"]
        problems = verify.csv_problems(csv, report, read_trajectory_csv)
        if fingerprint is not None:
            got = verify.csv_fingerprint(csv, read_trajectory_csv)
            problems += verify.differences(fingerprint, got, "csv")
        return problems


class Baseline:
    """The frozen baseline library, run op by op in a child process.

    The child starts at once and warms up on ``warmup``, on any of
    ``warmup_cpus``, while the caller does other work; ``ready`` waits for
    that and then moves the child onto the caller's CPU.  From then on the
    two share one CPU: an operation sent with ``send`` runs while the caller
    runs its own, and ``receive`` returns the child's CPU seconds for it.
    """

    def __init__(self, warmup: list[Path], out_dir: Path, warmup_cpus: set[int]):
        out_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir = out_dir
        self.proc = subprocess.Popen(
            [sys.executable, str(BASELINE_WORKER), *map(str, warmup)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        os.sched_setaffinity(self.proc.pid, warmup_cpus)

    def ready(self) -> None:
        self._reply()
        os.sched_setaffinity(self.proc.pid, os.sched_getaffinity(0))

    def send(self, path: Path) -> None:
        self.proc.stdin.write(json.dumps([str(path), str(self.out_dir)]) + "\n")
        self.proc.stdin.flush()

    def receive(self) -> float:
        reply = self._reply()
        if reply["rc"] != 0:
            raise RuntimeError(f"baseline exited {reply['rc']}")
        return reply["seconds"]

    def run(self, path: Path) -> float:
        self.send(path)
        return self.receive()

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"baseline worker ended with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def speed_key(workload: str, scenario_name: str) -> str:
    """Key of an operation's stored baseline time: the catalog scenario or the workload."""
    return f"{workload}/{scenario_name}" if workload == "catalog" else workload


def paired_passes(gate: Gate, baseline: Baseline, inputs: list[Path], seconds: float):
    """Passes over ``inputs`` for about ``seconds``, each operation run twice.

    Every operation runs in the program and in the baseline at the same
    time, on one CPU.  Returns, per pass, the ``(program_s, baseline_s)``
    CPU times of each operation.  A pass starts only while more than half of
    the last one still fits, and the first pass also reads back the first
    operation's CSV.
    """
    passes = []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not passes or time.perf_counter() + last / 2 < deadline:
        start = time.perf_counter()
        pairs = []
        for i, path in enumerate(inputs):
            baseline.send(path)
            program_s = gate.run(path, read_csv=not passes and i == 0)
            pairs.append((program_s, baseline.receive()))
        passes.append(pairs)
        last = time.perf_counter() - start
    return passes


def timed_passes(gate: Gate, inputs: list[Path], seconds: float, tracer: Tracer | None = None):
    """Passes over ``inputs`` for about ``seconds``.

    Returns the time of each pass and each operation, and with a tracer the
    layer metrics of each pass.  A pass starts only while more than half of
    the last one still fits, so the measured time centres on ``seconds``.
    The first pass also reads back the first operation's CSV.
    """
    passes, ops, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() + passes[-1] / 2 < deadline:
        if tracer is not None:
            tracer.start_pass()
        times = [gate.run(path, read_csv=not passes and i == 0) for i, path in enumerate(inputs)]
        if tracer is not None:
            layers.append(tracer.end_pass())
        passes.append(sum(times))
        ops += times
    return passes, ops, layers


def write_reference(work: Path) -> int:
    """Store the report and CSV fingerprint of every scenario at REFERENCE_SEED."""
    from persistnet.scenarios import read_trajectory_csv

    gate = Gate({}, work / "out")
    fingerprints = {}
    for workload in workloads.WORKLOADS:
        for path in workloads.write_inputs(workload, verify.REFERENCE_SEED, work / workload):
            gate.run(path, read_csv=True)  # the first report of a scenario becomes its reference
            report = json.loads(gate.report_path(path).read_text())
            fingerprints[report["scenario_name"]] = verify.csv_fingerprint(
                gate.out_dir / report["trajectory_file"], read_trajectory_csv)
    if gate.failed:
        print("\n".join(gate.problems), file=sys.stderr)
        return 1
    print(f"wrote {verify.save_reference(gate.references, fingerprints)}")
    return 0


def write_speed(work: Path, seconds: float) -> int:
    """Store the baseline's median CPU time per operation and per set-up at REFERENCE_SEED."""
    cpus = pin_to_one_cpu()
    speed, setup = {}, {}
    for workload in workloads.WORKLOADS:
        setup[workload] = statistics.median(
            setup_seconds(start_setup(workload, verify.REFERENCE_SEED, work / f"setup-{k}", True))
            for k in range(SETUP_SAMPLES))
        inputs = workloads.write_inputs(workload, verify.REFERENCE_SEED, work / workload)
        baseline = Baseline(inputs, work / "baseline-out", cpus)
        try:
            baseline.ready()
            times: dict[str, list[float]] = {}
            deadline = time.perf_counter() + seconds
            while not times or time.perf_counter() < deadline:
                for path in inputs:
                    key = speed_key(workload, json.loads(path.read_text())["name"])
                    times.setdefault(key, []).append(baseline.run(path))
        finally:
            baseline.close()
        speed.update({key: statistics.median(v) for key, v in times.items()})
    SPEED_PATH.write_text(json.dumps({"cpu": environment()["cpu"], "seconds": speed,
                                      "setup": setup},
                                     indent=1, sort_keys=True) + "\n")
    print(f"wrote {SPEED_PATH}")
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=verify.REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    p.add_argument("--write-speed", action="store_true")
    args = p.parse_args(argv)
    if not (args.workload or args.write_reference or args.write_speed):
        p.error("--workload is required")

    if not (SRC / "persistnet" / "__init__.py").is_file():
        print(f"error: {SRC / 'persistnet'} not found; run from a persistnet checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload or 'reference'}-seed{args.seed}-{os.getpid()}"
    try:
        if args.write_reference:
            return write_reference(work)
        if args.write_speed:
            return write_speed(work, args.seconds)
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def traced_run(args, gate: Gate, inputs: list[Path]):
    half = args.seconds / 2.0
    plain, _, _ = timed_passes(gate, inputs, half)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _, layers = timed_passes(gate, inputs, half, tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
    values = {name: statistics.median(m[name] for m in layers) for name, _, _ in LAYER_METRICS}
    values["trace.pass_s"] = statistics.median(traced)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    units = [(n, u) for n, u, _ in LAYER_METRICS] + list(TRACE_EXTRA)
    return values, units, f"{len(plain)} untraced and {len(traced)} traced passes"


def paired_run(args, gate: Gate, baseline: Baseline, inputs: list[Path], setups: list):
    """The end-to-end metrics, timed against the baseline.

    ``setups`` holds the ``(program_s, baseline_s)`` CPU times of the set-ups.
    """
    speed = json.loads(SPEED_PATH.read_text())
    stored = [speed["seconds"][speed_key(args.workload, gate.scenario(path)["name"])]
              for path in inputs]
    baseline.ready()
    passes = paired_passes(gate, baseline, inputs, args.seconds)
    # Each operation's time at the baseline's stored speed.
    scaled = [[p * ref / b for (p, b), ref in zip(pairs, stored)] for pairs in passes]
    ops = [t for pass_ in scaled for t in pass_]
    stored_setup = speed["setup"][args.workload]
    values = {
        "setup_s": statistics.median(p * stored_setup / b for p, b in setups),
        "pass_s": statistics.median(sum(pass_) for pass_ in scaled),
        "verdict_s_p50": statistics.median(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "verified_ratio": (gate.attempted - gate.failed) / gate.attempted,
    }
    program = statistics.median(sum(p for p, _ in pairs) for pairs in passes)
    base = statistics.median(sum(b for _, b in pairs) for pairs in passes)
    samples = (f"{len(passes)} passes, {len(ops)} operations, {len(setups)} set-ups; "
               f"measured pass {program:.3f} s, baseline {base:.3f} s "
               f"(stored {sum(stored):.3f} s); measured set-up "
               f"{statistics.median(p for p, _ in setups):.3f} s, baseline "
               f"{statistics.median(b for _, b in setups):.3f} s; error_rate {gate.failed}/{gate.attempted}")
    if len(ops) >= 20:  # highest percentile with at least ten samples beyond it
        q = int(100 * (1 - 10 / len(ops)))
        samples += f"; verdict_s p{q} {statistics.quantiles(ops, n=100)[q - 1]:.4f} s"
    return values, list(END_TO_END), samples


def measure(args, work: Path) -> int:
    cpus = pin_to_one_cpu()
    dirs = [work / "inputs"] + [work / f"setup-{k}" for k in range(1, SETUP_SAMPLES)]
    if args.trace:
        setup_seconds(start_setup(args.workload, args.seed, dirs[0]))
    else:
        # Each set-up runs beside the same set-up with the baseline library.
        setups = [setup_pair(args.workload, args.seed, d, work / f"base-{k}")
                  for k, d in enumerate(dirs)]
        if any(_contents(d) != _contents(dirs[0]) for d in dirs[1:]):
            raise RuntimeError(f"seed {args.seed} gave different inputs in two set-ups")
    inputs = sorted(dirs[0].glob("*.json"))

    import persistnet

    if not Path(persistnet.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported persistnet from {persistnet.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    env = environment()

    stored = verify.load_reference()
    gate = Gate(stored["reports"], work / "out")
    golden = workloads.write_inputs(args.workload, verify.REFERENCE_SEED, work / "reference")
    # The baseline warms up on the same files while the program checks them.
    baseline = None if args.trace else Baseline(golden, work / "baseline-out", cpus)
    try:
        for path in golden:
            name = gate.scenario(path)["name"]
            gate.run(path, read_csv=True, fingerprint=stored["csv"][name])
        if args.trace:
            values, units, samples = traced_run(args, gate, inputs)
        else:
            values, units, samples = paired_run(args, gate, baseline, inputs, setups)
    finally:
        if baseline is not None:
            baseline.close()

    print(f"env: {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed}: {samples}")
    for name, unit in units:
        print(f"  {name:32s} {values[name]:14.6g} {unit}")
    for problem in gate.problems[:10]:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
