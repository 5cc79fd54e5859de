"""In-process replay of one workload pass, optionally traced.

Run by run.py in a fresh interpreter whose PYTHONPATH is the checkout's src/:

    python perfbench/replay.py --workload decide --seed 3 --trace 1 --spans FILE

It imports rtfinite.cli, then runs every call of the pass through
``rtfinite.cli.main`` with stdout captured.  Between calls it clears the
package's lru caches and sympy's cache, so each call starts as cold as a new
process would (apart from imports).  It prints one JSON object: the wall time
of the pass, each call's exit code and stdout, and with --trace 1 the
per-layer metrics from the spans, which it also writes to --spans.
"""

import argparse
import contextlib
import io
import json
import sys
import time
import traceback

import workloads
from spans import Tracer, self_times, span_metrics

# One span name per layer boundary the tracer wraps (see install()).
SPAN_NAMES = (
    "cli.main", "cli.render",
    "context.at",
    "quantum.sign_table", "quantum.eval_sign",
    "positivity.decide_torus", "positivity.decide_closed",
    "positivity.check_complete_positivity",
    "bases.witness_text", "bases.ratio_build",
    "cyclotomic.reduce", "cyclotomic.mul", "cyclotomic.conjugate", "cyclotomic.trace",
    "lattice.certificate", "lattice.psi_norm_sq", "lattice.naive_norm_formula",
)

COUNTERS = (
    "cyclotomic.sin_sign.calls",
    "positivity.sign_entries", "positivity.entries_to_witness",
    "quantum.sign_table.builds", "quantum.sign_table.hits",
    "quantum.qfactorial.hits", "quantum.qfactorial.misses",
    "cli.stdout_bytes",
)


def _package_caches() -> list:
    """Every lru_cache'd function defined in the rtfinite package."""
    from rtfinite import bases, context, cyclotomic, lattice, positivity, quantum

    found = {}
    for module in (bases, context, cyclotomic, lattice, positivity, quantum):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == module.__name__:
                found[id(obj)] = obj
    return list(found.values())


def install(tracer: Tracer):
    """Wrap the calls into each layer under every name its callers use.

    positivity and cli import functions by name, so both the defining module
    and the importing ones are patched.  Witness text and ratio building both
    call into bases; they are told apart by call site.
    """
    from rtfinite import bases, cli, cyclotomic, lattice, positivity, quantum
    from rtfinite.context import LevelContext
    from rtfinite.cyclotomic import CyclotomicInteger

    counts = tracer.counts

    def note_report(verdict):
        report = verdict.report
        if report is None:
            return
        entries = len(report.sign_matrix)
        position = entries
        if report.witness is not None:
            position = next(
                (i for i, key in enumerate(report.sign_matrix, 1) if key == report.witness),
                entries,
            )
        counts["positivity.sign_entries"] += entries
        counts["positivity.entries_to_witness"] += position

    tracer.wrap([cli], "main", "cli.main")
    tracer.wrap([cli], "_render", "cli.render")
    tracer.wrap([LevelContext], "at", "context.at")
    tracer.wrap_cache_misses([quantum, positivity], "qint_sign_values", "quantum.sign_table")
    tracer.wrap([quantum, positivity], "eval_sign", "quantum.eval_sign")
    tracer.count([quantum], "sin_sign", "cyclotomic.sin_sign.calls")
    tracer.wrap([cli, positivity], "decide_torus", "positivity.decide_torus",
                on_result=note_report)
    tracer.wrap([cli, positivity], "decide_closed", "positivity.decide_closed",
                on_result=note_report)
    tracer.wrap([positivity], "check_complete_positivity",
                "positivity.check_complete_positivity")
    # cli._witness_dict calls lollipop_ratio_cumulative by its imported name
    # and imports theta_norm_ratio from bases when it runs.
    tracer.wrap([cli], "lollipop_ratio_cumulative", "bases.witness_text", outer_only=True)
    tracer.wrap([bases], "theta_norm_ratio", "bases.witness_text", outer_only=True)
    tracer.wrap([positivity], "theta_norm_ratio", "bases.ratio_build", outer_only=True)
    tracer.wrap([positivity], "admissible_triples", "bases.ratio_build", outer_only=True)
    tracer.wrap([bases, positivity], "lollipop_ratio_step", "bases.ratio_build", outer_only=True)
    tracer.wrap([bases], "lollipop_ratio_two_step", "bases.ratio_build", outer_only=True)
    tracer.wrap([cyclotomic, lattice], "reduce", "cyclotomic.reduce")
    tracer.wrap([CyclotomicInteger], "__mul__", "cyclotomic.mul")
    tracer.wrap([CyclotomicInteger], "conjugate", "cyclotomic.conjugate")
    tracer.wrap([CyclotomicInteger], "trace", "cyclotomic.trace")
    tracer.wrap([cli], "discreteness_certificate", "lattice.certificate")
    tracer.wrap([lattice], "psi_norm_sq", "lattice.psi_norm_sq")
    tracer.wrap([lattice], "naive_norm_formula", "lattice.naive_norm_formula")


def _call_main(argv) -> tuple[int, str, str]:
    from rtfinite import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a cold process would exit 1 with this traceback
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def replay(calls, trace: bool = False) -> tuple[dict, list]:
    """Run ``calls`` through ``rtfinite.cli.main`` in this process.

    Returns the result (wall time, each call's exit code and output, and
    with ``trace`` the per-layer metrics) and the spans recorded.
    """
    from sympy.core.cache import clear_cache

    from rtfinite import quantum

    caches = _package_caches()
    sign_table, qfactorial = quantum.qint_sign_values, quantum.qfactorial
    tracer = Tracer()
    if trace:
        install(tracer)
    totals = dict.fromkeys(COUNTERS, 0)
    results = []
    try:
        start = time.perf_counter()
        for argv in calls:
            code, out, err = _call_main(argv)
            results.append({"argv": list(argv), "exit": code, "stdout": out,
                            "stderr": err[-2000:]})
            info = sign_table.cache_info()
            totals["quantum.sign_table.hits"] += info.hits
            totals["quantum.sign_table.builds"] += info.misses
            info = qfactorial.cache_info()
            totals["quantum.qfactorial.hits"] += info.hits
            totals["quantum.qfactorial.misses"] += info.misses
            for func in caches:
                func.cache_clear()
            clear_cache()
        wall = time.perf_counter() - start
    finally:
        tracer.restore()
    result = {"wall_s": wall, "calls": results}
    if trace:
        metrics = span_metrics(tracer.spans, SPAN_NAMES)
        for name in ("cyclotomic.sin_sign.calls", "positivity.sign_entries",
                     "positivity.entries_to_witness"):
            totals[name] = tracer.counts[name]
        totals["cli.stdout_bytes"] = sum(len(r["stdout"].encode()) for r in results)
        metrics.update(totals)
        entries = totals["positivity.sign_entries"]
        metrics["positivity.useful_ratio"] = (
            totals["positivity.entries_to_witness"] / entries if entries else 0.0)
        metrics["trace.wall_s"] = wall
        metrics["trace.unattributed_s"] = wall - sum(self_times(tracer.spans))
        result["metrics"] = metrics
    return result, tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", default=None, help="write the spans here (JSON)")
    args = parser.parse_args(argv)

    calls = workloads.make_pass(args.workload, args.seed)
    import rtfinite.cli  # noqa: F401  (set-up stays outside the replayed wall time)

    result, spans = replay(calls, trace=bool(args.trace))
    if args.trace and args.spans:
        t0 = spans[0][1] if spans else 0.0
        rows = [[name, round(start - t0, 7), round(end - t0, 7), parent]
                for name, start, end, parent in spans]
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": rows}, fh)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
