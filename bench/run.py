"""Benchmark of darbouxkdv: one workload per invocation, run from the checkout root.

    python3 bench/run.py --workload {acceptance,spectral_sweep,soliton_fields}
                         --seed N --seconds S --trace {0,1}

The package is not installed: every child process gets ``src`` on its path.
Set-up time is the median of several cold starts up to ``import
darbouxkdv.cli``.  The workload then runs in one fresh worker process (one
closed-loop client, BLAS pinned to one thread) that repeats whole rounds, at
least two, until the next one would end after ``--seconds``.  Times are scaled
to a reference host speed (``speed.py``).  After the timed rounds the outputs
are checked against mpmath references (``reference.py``), and every later
round must reproduce the first one exactly.  With ``--trace 0`` the last line
of standard output carries the end-to-end metrics; with ``--trace 1`` a second
worker runs traced rounds after an untraced one, and the line carries the
per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("acceptance", "spectral_sweep", "soliton_fields")
COLD_STARTS = 3
IMPORTTIME_RUNS = 3
WORKER_TIMEOUT_S = 150.0
# later rounds must reproduce the first, and a median needs more than one
MIN_ROUNDS = 2
IMPORT_MODULES = (
    "darbouxkdv", "darbouxkdv.specfun", "darbouxkdv.darboux", "darbouxkdv.spectral_oracle",
    "darbouxkdv.scattering", "darbouxkdv.kdv", "darbouxkdv.verification", "darbouxkdv.cli",
    "scipy.integrate", "scipy.sparse.linalg", "mpmath",
)
# span name -> per-layer metrics "<span>.<suffix>"; the suffix names the field
# of tracing.layer_totals: self time, outermost calls, or inclusive seconds
LAYERS = (
    ("specfun.gamma", ("calls", "self_s")),
    ("specfun.jacobi_coefficients", ("self_s",)),
    ("darboux.deformed_potential", ("self_s",)),
    ("darboux.potential_vector", ("self_s",)),
    ("darboux.potential_scalar", ("calls", "self_s")),
    ("darboux.bound_states", ("self_s",)),
    ("spectral_oracle.eigen_spectrum", ("self_s",)),
    ("scattering.deformed_amplitudes", ("calls", "self_s")),
    ("scattering.numerical_amplitudes.real", ("self_s",)),
    ("scattering.numerical_amplitudes.detour", ("self_s",)),
    ("kdv.scattering_data_from_spec", ("self_s",)),
    ("kdv.field_u.vector", ("self_s",)),
    ("kdv.field_u.scalar", ("calls", "self_s")),
    ("kdv.conserved_quantities", ("self_s",)),
    ("kdv.kdv_residual", ("self_s",)),
    ("verification.suite.spectra", ("s",)),
    ("verification.suite.scattering", ("s",)),
    ("verification.suite.glm", ("s",)),
    ("verification.suite.kdv", ("s",)),
    ("cli.main", ("self_s",)),
)
SUFFIX_FIELD = {"self_s": ("self_s", "s"), "calls": ("calls", "count"), "s": ("total_s", "s")}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _run(cmd, env, timeout=60.0) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1:3]} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def cold_starts(env) -> list:
    """Seconds from spawning a fresh interpreter to `import darbouxkdv.cli` done.

    Each start is scaled to the reference speed by the calibration kernel
    timed just before and after it, as the worker's operations are.
    """
    out = []
    for _ in range(COLD_STARTS):
        before = speed.kernel_time()
        t0 = time.perf_counter()
        _run([sys.executable, "-c", "import darbouxkdv.cli"], env)
        wall = time.perf_counter() - t0
        out.append(wall * speed.REFERENCE_KERNEL_S / ((before + speed.kernel_time()) / 2.0))
    return out


def import_times(env) -> dict:
    """Median cumulative import seconds per module, from `python -X importtime`."""
    samples = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORTTIME_RUNS):
        proc = _run([sys.executable, "-X", "importtime", "-c", "import darbouxkdv.cli"], env)
        seen = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            seen[name.strip()] = int(cumulative) * 1e-6
        for m in IMPORT_MODULES:
            samples[m].append(seen.get(m, 0.0))
    return {m: statistics.median(v) for m, v in samples.items()}


def run_worker(workload, inputs_path, out_dir, tag, seconds, min_rounds, trace, env) -> dict:
    """One worker process: its rounds, peak RSS and median kernel time."""
    _run([sys.executable, os.path.join(BENCH, "worker.py"), workload, inputs_path, out_dir,
          tag, repr(seconds), str(min_rounds), str(trace)], env, timeout=WORKER_TIMEOUT_S)
    with open(os.path.join(out_dir, f"{tag}.json")) as fh:
        result = json.load(fh)
    if trace:
        spans = tracing.load_spans(os.path.join(out_dir, f"{tag}-spans.json"))
        for r, round_spans in zip(result["rounds"], spans):
            r["layers"] = tracing.layer_totals(round_spans)
    return result


def _same_outputs(first: dict, later: dict) -> bool:
    if first.get("error") or later.get("error"):
        return first.get("error") == later.get("error")
    return first["digest"] == later["digest"]


def evaluate(workload, inputs, rounds, out_dir):
    """(attempted, failed, correct, problems) over all rounds.

    An operation fails when it raises or its outputs fail a check.  `correct`
    is false when an operation outside the known faults fails, or when a
    later round does not reproduce the first one.
    """
    problems = []
    if workload == "acceptance":
        attempted = failed = 0
        for r in rounds:
            checks, summary = workloads.parse_verify(r["output"])
            bad = [c for c in checks if not (c[3] and c[1] <= c[2])]
            attempted += len(checks)
            failed += len(bad)
            problems += [f"verify check failed: {c[0]}" for c in bad]
            expected = f"{len(checks) - len(bad)}/{len(checks)} checks passed"
            if not checks or not summary.startswith(expected) or r["exit_code"] != (1 if bad else 0):
                problems.append(f"verify summary {summary!r}, exit code {r['exit_code']}")
        return attempted, failed, not problems, problems

    systems = inputs["systems"]
    first = rounds[0]["ops"]
    if workload == "spectral_sweep":
        verdicts = [
            [op["error"]] if op["error"] else workloads.check_sweep_system(s, op, inputs)
            for s, op in zip(systems, first)
        ]
    else:
        sys.path.insert(0, SRC)
        from darbouxkdv import SystemSpec, deformed_potential

        verdicts = []
        for s, op in zip(systems, first):
            if op["error"]:
                verdicts.append([op["error"]])
                continue
            pot = deformed_potential(SystemSpec(s["h"], tuple(s["seeds"])))
            path = os.path.join(out_dir, op["csv"])
            verdicts.append(workloads.check_soliton_system(s, op, path, pot))
    for s, v in zip(systems, verdicts):
        if v and "fault" not in s:
            problems.append(f"h={s['h']} seeds={s['seeds']}: {'; '.join(v)}")
    for r in rounds[1:]:
        for s, a, b in zip(systems, first, r["ops"]):
            if not _same_outputs(a, b):
                problems.append(f"h={s['h']} seeds={s['seeds']}: round outputs differ")
    n_failed = sum(1 for v in verdicts if v)
    return len(systems) * len(rounds), n_failed * len(rounds), not problems, problems


def round_seconds(rounds) -> float:
    """Seconds of one round: each operation's median over the rounds, summed.

    The per-operation median drops an operation's slow repeat, so a few
    seconds of host contention in one round do not move the figure.
    """
    per_op = zip(*(r["unit_s"] for r in rounds))
    return sum(statistics.median(times) for times in per_op)


def end_to_end(run, setup) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "round_s": (round_seconds(run["rounds"]), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def per_layer(plain, traced, imports) -> dict:
    med = statistics.median
    rounds = traced["rounds"]
    m = {}
    for span, suffixes in LAYERS:
        for suffix in suffixes:
            field, unit = SUFFIX_FIELD[suffix]
            m[f"{span}.{suffix}"] = (med(r["layers"].get(span, {}).get(field, 0) for r in rounds),
                                     unit)
    m["cli.bytes_written"] = (med(r["bytes_written"] for r in rounds), "bytes")
    for mod, secs in imports.items():
        m[f"setup.import.{mod}_s"] = (secs, "s")
    overhead = round_seconds(rounds) / round_seconds(plain["rounds"]) - 1.0
    m["trace.overhead_pct"] = (100.0 * overhead, "%")
    m["trace.round_raw_s"] = (med(sum(r["raw_s"]) for r in rounds), "s")
    m["host.kernel_ms"] = (1e3 * traced["kernel_s"], "ms")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "darbouxkdv", "cli.py")):
        sys.stderr.write(f"error: no darbouxkdv sources under {SRC}\n")
        return 2

    env = child_env()
    inputs = workloads.inputs_for(args.workload, args.seed)
    out_dir = tempfile.mkdtemp(prefix=f".run-{args.workload}-", dir=BENCH)
    try:
        inputs_path = os.path.join(out_dir, "inputs.json")
        with open(inputs_path, "w") as fh:
            json.dump(inputs, fh)
        if args.trace:
            # untraced and traced rounds in two workers, half the time each
            imports = import_times(env)
            half = args.seconds / 2.0
            plain = run_worker(args.workload, inputs_path, out_dir, "plain", half, 1, 0, env)
            traced = run_worker(args.workload, inputs_path, out_dir, "traced", half, 1, 1, env)
            rounds = plain["rounds"] + traced["rounds"]
            metrics = per_layer(plain, traced, imports)
        else:
            setup = cold_starts(env)
            run = run_worker(args.workload, inputs_path, out_dir, "run", args.seconds,
                             MIN_ROUNDS, 0, env)
            rounds = run["rounds"]
            metrics = end_to_end(run, setup)
        attempted, failed, correct, problems = evaluate(args.workload, inputs, rounds, out_dir)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for p in problems:
        sys.stderr.write(f"unexpected: {p}\n")
    per_round = attempted // len(rounds)
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} operations attempted "
          f"({per_round} per round), {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
