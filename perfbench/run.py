#!/usr/bin/env python3
"""dgmono benchmark: time to a converged, bound-preserving solution.

    python3 perfbench/run.py                       # every workload, in turn
    python3 perfbench/run.py --workload sharp-layer-hybrid --seed 3 \\
        --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics, with ``--trace 1`` one with the per-layer metrics.  See
perfbench/README.md for the workloads, metrics and reference figures.
"""

import os

# one thread for BLAS/OpenMP: set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracing import NullTracer, Tracer, instrument  # noqa: E402

# the keys of workloads.WORKLOADS, which needs dgmono; listed here so that
# argument parsing and the all-workload mode do not import the package
WORKLOAD_NAMES = ("sharp-layer-picard", "sharp-layer-hybrid",
                  "three-body-be-hybrid")
MIN_SETUPS = 3       # set-up samples per run, at least
MIN_SETUP_SECONDS = 2.0  # and at least this much set-up time in total


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def import_program():
    """Import dgmono from this checkout's src/, never from elsewhere."""
    if not (SRC / "dgmono" / "__init__.py").is_file():
        raise SystemExit(f"no dgmono package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dgmono
    if Path(dgmono.__file__).resolve().parent != SRC / "dgmono":
        raise SystemExit(f"dgmono imported from {dgmono.__file__}, not {SRC}")


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "dgmono").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


@dataclass
class Round:
    setup_s: float
    solve_s: float
    wall_s: float
    ops: int
    failed: int
    errors: list
    counts: tuple              # nonlinear iterations per operation
    tracer: object = None
    traces: list = field(default_factory=list)


def one_round(wl, inputs, tracer=None):
    """Build, solve and check once; spans are recorded when a tracer is given."""
    gc.collect()
    t0 = time.perf_counter()
    patched = instrument(tracer) if tracer else contextlib.nullcontext()
    tr = tracer or NullTracer()
    with patched:
        with tr.span("setup"):
            setup = wl.setup(inputs, tr)
        t1 = time.perf_counter()
        with tr.span("solve"):
            ops = wl.solve(setup)
        t2 = time.perf_counter()
    failed, errors = 0, []
    for i, op in enumerate(ops):
        errs = wl.check(setup, op)
        if not op.trace.converged:
            log(f"  operation {i}: unconverged after "
                f"{op.trace.iterations} iterations")
        if errs or not op.trace.converged:
            failed += 1
        errors += [f"operation {i}: {e}" for e in errs]
    return Round(setup_s=t1 - t0, solve_s=t2 - t1,
                 wall_s=time.perf_counter() - t0, ops=len(ops), failed=failed,
                 errors=errors,
                 counts=tuple(op.trace.iterations for op in ops),
                 tracer=tracer, traces=[op.trace for op in ops])


def layer_metrics(wl, rnd):
    """Per-layer numbers of one traced round."""
    from workloads import newton_counts

    tot = rnd.tracer.totals()
    notes = rnd.tracer.notes

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    iters = sum(rnd.counts)
    trials, accepted, fallbacks = newton_counts(
        rnd.traces, notes["picard_phase_iters"], wl.cfg)
    return {
        "mesh.build_s": (incl("mesh.build"), "s"),
        "assembly.operators_s": (incl("assembly.operators"), "s"),
        "detector.topology_s": (incl("detector.topology"), "s"),
        "detector.alpha_calls": (calls("detector.alpha"), "count"),
        "detector.alpha_s": (incl("detector.alpha"), "s"),
        "detector.alpha_per_iter": (calls("detector.alpha") / iters,
                                    "calls/iter"),
        "stabilization.viscosity_calls": (calls("stabilization.viscosity"),
                                          "count"),
        "stabilization.viscosity_s": (incl("stabilization.viscosity"), "s"),
        "stabilization.operators_calls": (calls("stabilization.operators"),
                                          "count"),
        "stabilization.operators_s": (incl("stabilization.operators"), "s"),
        "stabilization.residual_calls": (calls("stabilization.residual"),
                                         "count"),
        "stabilization.residual_s": (self_s("stabilization.residual"), "s"),
        "solve.nonlinear_iters": (iters, "count"),
        "solve.linear_solves": (calls("solve.linear"), "count"),
        "solve.lu_s": (incl("solve.lu"), "s"),
        "solve.lu_fill_nnz": (max(notes["lu_fill"], default=0), "count"),
        "solve.jacobians": (calls("solve.jacobian"), "count"),
        "solve.jacobian_s": (self_s("solve.jacobian"), "s"),
        "solve.colors": (max(notes["colors"], default=0), "count"),
        "solve.color_s": (incl("solve.color"), "s"),
        "solve.line_search_trials": (trials, "count"),
        "solve.line_search_accepted": (accepted, "count"),
        "solve.picard_fallbacks": (fallbacks, "count"),
    }


def check_counts(wl, seed, rounds):
    """Work counts must repeat exactly: across the rounds of this run and
    across earlier runs of the same program on the same inputs, whose counts
    are kept in perfbench/out/counts.json.  Returns error strings."""
    errors = []
    counts = rounds[0].counts
    if any(r.counts != counts for r in rounds):
        errors.append("work counts differ between rounds: "
                      f"{sorted({r.counts for r in rounds})}")
    key = f"{wl.name}|seed={seed if wl.seeded else '-'}|src={source_digest()}"
    path = OUT / "counts.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    if key in known and tuple(known[key]) != counts:
        errors.append(f"work counts {list(counts)} differ from an earlier "
                      f"run's {known[key]}")
    elif key not in known:
        known[key] = list(counts)
        OUT.mkdir(exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return errors


def run_workload(name, seed, seconds, trace):
    import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    inputs = wl.make_inputs(seed)
    # warm-up outside the timed region: same code path, small inputs
    wl.solve(wl.setup(wl.warm_inputs, NullTracer()))

    rounds, traced = [], []
    start = time.perf_counter()
    while True:
        use_trace = trace and len(traced) < len(rounds)
        rnd = one_round(wl, inputs, Tracer() if use_trace else None)
        (traced if use_trace else rounds).append(rnd)
        log(f"  round {len(rounds) + len(traced)}{' (traced)' * use_trace}: "
            f"setup {rnd.setup_s:.3f} s, solve {rnd.solve_s:.3f} s, "
            f"iterations {list(rnd.counts)}")
        elapsed = time.perf_counter() - start
        done = not trace or (rounds and traced)
        if done and elapsed + rnd.wall_s > seconds:
            break
    setups = [r.setup_s for r in rounds]
    while not trace and (len(setups) < MIN_SETUPS
                         or sum(setups) < MIN_SETUP_SECONDS):
        gc.collect()
        t0 = time.perf_counter()
        wl.setup(inputs, NullTracer())
        setups.append(time.perf_counter() - t0)

    everything = rounds + traced
    errors = [e for r in everything for e in r.errors]
    errors += check_counts(wl, seed, everything)
    for e in errors:
        log(f"CHECK FAILED: {e}")
    result = {"correct": not errors,
              "attempted": sum(r.ops for r in everything),
              "failed": sum(r.failed for r in everything)}
    if trace:
        per_round = [layer_metrics(wl, r) for r in traced]
        metrics = {k: {"value": statistics.median(m[k][0] for m in per_round),
                       "unit": per_round[0][k][1]} for k in per_round[0]}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r.solve_s for r in traced)
            - statistics.median(r.solve_s for r in rounds),
            "unit": "s"}
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{name}-seed{seed}.json").write_text(json.dumps(
            [r.tracer.dump() for r in traced]))
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "solve_s": {"value": statistics.median(r.solve_s for r in rounds),
                        "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)
    return 0


def run_all(seed, seconds, trace):
    """Each workload in its own process, so peak RSS is the workload's own."""
    status = 0
    for name in WORKLOAD_NAMES:
        log(f"== {name}")
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log(f"{name}: exited with code {proc.returncode}")
            status = 1
            continue
        res = json.loads(lines[-1])
        print(f"{name}: correct={res['correct']} attempted={res['attempted']}"
              f" failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:32s} {m['value']:14.6g} {m['unit']}")
        if not res["correct"]:
            status = 1
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
