"""Benchmark of the rtfinite CLI: cold-process workloads and a traced replay.

Run from the root of a checkout (stdlib only; the program comes from src/):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0
    for w in sweep lattice decide verify; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 40 --trace 0; done

--trace 0 runs the workload's calls as cold ``python -m rtfinite.cli``
processes, one at a time, until --seconds have passed and at least one whole
pass is done.  It checks every output and reports the end-to-end metrics.
--trace 1 replays one pass in-process with replay.py, once untraced and once
traced, each in a fresh interpreter, and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The full run record goes to .perfbench-out/.
Exit codes: 0 all outputs correct, 1 some check failed, 2 no program to run.
"""

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from replay import COUNTERS, SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
RUN_LIMIT_S = 170  # every run ends within this, whatever the workload does
SETUP_SAMPLES = 5
SYMPY_IMPORT_SAMPLES = 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "call_p50_s": "s",
    "call_tail_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Name and unit of every metric a traced run reports."""
    units = {}
    for name in SPAN_NAMES:
        units.update({f"{name}.calls": "count", f"{name}.s": "s", f"{name}.self_s": "s"})
    units.update(dict.fromkeys(COUNTERS, "count"))
    units["cli.stdout_bytes"] = "bytes"
    units["positivity.useful_ratio"] = "ratio"
    for name in ("setup.sympy_import_s", "trace.wall_s", "trace.untraced_wall_s",
                 "trace.overhead_s", "trace.unattributed_s"):
        units[name] = "s"
    return units


def tail_percentile(n: int):
    """The highest whole percentile q >= 50 with at least ten of n samples
    beyond its nearest-rank value, or None when n is too small for any."""
    for q in range(99, 49, -1):
        if n - math.ceil(q * n / 100) >= 10:
            return q
    return None


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered) / 100), 1) - 1]


@dataclass
class Child:
    wall_s: float
    exit_code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def run_child(argv, env, timeout: float) -> Child:
    """Run argv to completion, timing it and reading its peak RSS from wait4.

    Output goes through files, so no pipe can fill up; a child still running
    after ``timeout`` seconds is killed.
    """
    out_path, err_path = OUT_DIR / "child.stdout", OUT_DIR / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                 usage.ru_maxrss)


def git_commit(root: Path):
    """HEAD of the repository at root, read from .git, or None outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(root: Path) -> str:
    """Digest of every file under src/, which identifies the program measured
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_record(args, calls) -> dict:
    try:
        sympy_version = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seeded": args.workload in ("decide", "lattice"),
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(ROOT),
        "source_sha256": source_sha256(ROOT),
        "python": {"executable": sys.executable, "version": platform.python_version()},
        "sympy": sympy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "pass": [workloads.key(argv) for argv in calls],
    }


def measure_cold(args, calls, env, refs, deadline) -> tuple[dict, dict]:
    """Run the calls as cold processes; return the metrics and input sizes.

    Calls run in pass order, over and over, until they have taken --seconds
    and at least one whole pass is done.  The timing metrics count whole
    passes only, because the calls of a pass differ in operations and time.
    The set-up samples are spread over the run, so that a few seconds of a
    slower machine move their median little.
    """
    setup, walls, rss, problems, done_ops = [], [], [], [], []
    attempted = failed = 0
    busy = 0.0  # wall time of the workload's calls, set-up samples excluded

    def sample_setup():
        setup.append(run_child([sys.executable, "-c", "import rtfinite.cli"], env,
                               deadline - time.perf_counter()).wall_s)

    while True:
        while len(setup) < SETUP_SAMPLES and busy >= len(setup) * args.seconds / SETUP_SAMPLES:
            sample_setup()
        argv = calls[len(walls) % len(calls)]
        child = run_child([sys.executable, "-m", "rtfinite.cli", *argv], env,
                          deadline - time.perf_counter())
        busy += child.wall_s
        walls.append(child.wall_s)
        rss.append(child.maxrss_kb)
        ops = workloads.expected_ops(argv, refs)
        attempted += ops
        found = workloads.check_call(argv, child.exit_code, child.stdout, refs)
        done_ops.append(0 if found else ops)
        if found:
            failed += ops
            problems.append({"argv": workloads.key(argv), "problems": found,
                             "stderr": child.stderr[-2000:].decode("utf-8", "replace")})
        if (len(walls) >= len(calls) and busy >= args.seconds) \
                or time.perf_counter() >= deadline:
            break
    while len(setup) < SETUP_SAMPLES:
        sample_setup()
    whole = len(walls) - len(walls) % len(calls) or len(walls)
    q = tail_percentile(len(calls)) or 50
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "ops_per_s": (sum(done_ops[:whole]) / sum(walls[:whole]), whole),
        "call_p50_s": (statistics.median(walls[:whole]), whole),
        "call_tail_s": (nearest_rank(walls[:whole], q), whole),
        "peak_rss_mb": (max(rss) / 1024, len(rss)),
    }
    sizes = {
        "calls_per_pass": len(calls),
        "ops_per_pass": sum(workloads.expected_ops(a, refs) for a in calls),
        "calls_run": len(walls),
        "calls_in_whole_passes": whole,
        "workload_wall_s": busy,
        "call_tail_percentile": q,
        "calls_beyond_tail": sum(w > metrics["call_tail_s"][0] for w in walls[:whole]),
        "setup_samples_s": setup,
        "call_walls_s": walls,
    }
    return metrics, {"attempted": attempted, "failed": failed, "problems": problems,
                     "sizes": sizes}


def _replay_child(args, env, trace: int, deadline) -> tuple[dict, Child]:
    argv = [sys.executable, str(HERE / "replay.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--trace", str(trace)]
    if trace:
        argv += ["--spans", str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")]
    child = run_child(argv, env, deadline - time.perf_counter())
    try:
        result = json.loads(child.stdout.decode().splitlines()[-1])
    except (ValueError, IndexError):
        result = None
    return result, child


def measure_traced(args, calls, env, refs, deadline) -> tuple[dict, dict]:
    """Replay one pass untraced and traced; return the per-layer metrics."""
    sympy_import = [run_child([sys.executable, "-c", "import sympy"], env,
                              deadline - time.perf_counter()).wall_s
                    for _ in range(SYMPY_IMPORT_SAMPLES)]
    untraced, untraced_child = _replay_child(args, env, 0, deadline)
    traced, traced_child = _replay_child(args, env, 1, deadline)
    attempted = sum(workloads.expected_ops(a, refs) for a in calls)
    problems = []
    for label, result, child in (("untraced", untraced, untraced_child),
                                 ("traced", traced, traced_child)):
        if result is None or child.exit_code != 0:
            problems.append({"argv": f"{label} replay", "problems": [f"exit {child.exit_code}"],
                             "stderr": child.stderr[-2000:].decode("utf-8", "replace")})
    failed = attempted if problems else 0
    if not problems:
        for plain, call in zip(untraced["calls"], traced["calls"]):
            found = workloads.check_call(call["argv"], call["exit"],
                                         call["stdout"].encode(), refs)
            if plain["stdout"] != call["stdout"] or plain["exit"] != call["exit"]:
                found.append("traced output differs from untraced output")
            if found:
                failed += workloads.expected_ops(call["argv"], refs)
                problems.append({"argv": workloads.key(call["argv"]), "problems": found,
                                 "stderr": call["stderr"]})
    layer = dict(traced["metrics"]) if traced else {}
    layer["setup.sympy_import_s"] = statistics.median(sympy_import)
    if traced and untraced:
        layer["trace.untraced_wall_s"] = untraced["wall_s"]
        layer["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    samples = {"setup.sympy_import_s": len(sympy_import)}
    metrics = {name: (layer.get(name, 0), samples.get(name, 1)) for name in per_layer_units()}
    sizes = {"calls_per_pass": len(calls), "ops_per_pass": attempted,
             "replay_peak_rss_mb": traced_child.maxrss_kb / 1024}
    return metrics, {"attempted": attempted, "failed": failed, "problems": problems,
                     "sizes": sizes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    if not (ROOT / "src" / "rtfinite" / "cli.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'rtfinite'} is missing",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    # The warm-up import writes bytecode caches and proves that the children
    # import the program from this checkout.
    probe = run_child([sys.executable, "-c", "import rtfinite.cli; print(rtfinite.cli.__file__)"],
                      env, 60)
    location = probe.stdout.decode().strip()
    if probe.exit_code != 0 or Path(location).resolve() != ROOT / "src" / "rtfinite" / "cli.py":
        print(f"rtfinite.cli does not import from {ROOT / 'src'}: "
              f"{location or probe.stderr.decode()[-500:]}", file=sys.stderr)
        return 2

    refs = workloads.load_refs()
    calls = workloads.make_pass(args.workload, args.seed)
    record = run_record(args, calls)
    if args.trace:
        metrics, outcome = measure_traced(args, calls, env, refs, deadline)
        units = per_layer_units()
    else:
        metrics, outcome = measure_cold(args, calls, env, refs, deadline)
        units = END_TO_END
    attempted, failed = outcome["attempted"], outcome["failed"]
    record.update(
        inputs=outcome["sizes"],
        attempted=attempted,
        failed=failed,
        ops_failed_ratio=failed / attempted,
        problems=outcome["problems"][:20],
        metrics={name: {"value": value, "unit": units[name], "samples": n}
                 for name, (value, n) in metrics.items()},
    )
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: {outcome['sizes']['calls_per_pass']} "
          f"calls, {outcome['sizes']['ops_per_pass']} ops per pass")
    for name, (value, n) in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]} ({n} samples)")
    print(f"  ops_failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for problem in outcome["problems"][:5]:
        print(f"  FAILED {problem['argv']}: {'; '.join(problem['problems'])}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
