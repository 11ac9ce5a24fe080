"""The rounds of one workload, in one fresh interpreter.

    python3 bench/worker.py <workload> <inputs.json> <out_dir> <tag>
                            <seconds> <min_rounds> <trace 0|1>

Imports darbouxkdv from ``src`` of the checkout and repeats whole rounds of
the workload, at least ``min_rounds``, until the next round would end after
``seconds``.  Operation times are reported raw and corrected for the host's
speed (``speed.py``).  Writes ``<tag>.json`` (per-round operation times and outputs,
peak RSS) into ``out_dir``; with trace 1 the spans of every round are kept in
memory and written to ``<tag>-spans.json`` at the end.  Each timer covers
calls into the program only; collecting outputs for the checks happens
outside them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import darbouxkdv.cli as cli  # noqa: E402
from darbouxkdv import darboux, kdv, scattering  # noqa: E402

from speed import Speedometer  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import sweep_x_grid  # noqa: E402


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_acceptance(inputs: dict, prefix: str, tracer=None) -> dict:
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(inputs["argv"]))
    units = [[(t0, time.perf_counter())]]
    text = buf.getvalue()
    return {"units": units, "exit_code": code, "output": text,
            "bytes_written": len(text.encode())}


def _complex_pairs(values) -> list:
    return [[v.real, v.imag] for v in values]


def run_spectral_sweep(inputs: dict, prefix: str, tracer=None) -> dict:
    ks = np.linspace(*inputs["k"][:2], int(inputs["k"][2]))
    units = []
    ops = []
    for system in inputs["systems"]:
        seeds = tuple(system["seeds"])
        xs = sweep_x_grid(inputs, len(seeds))
        states = poles = None
        t0 = time.perf_counter()
        try:
            spec = darboux.SystemSpec(system["h"], seeds)
            pot = darboux.deformed_potential(spec, allow_singular=len(seeds) > 1)
            u = pot(xs)
            if len(seeds) <= 1:
                states = darboux.bound_states(spec)
                poles = scattering.transmission_poles(spec)
            amps = [scattering.deformed_amplitudes(spec, float(k)) for k in ks]
        except Exception as exc:  # one failed system must not stop the sweep
            units.append([(t0, time.perf_counter())])
            ops.append({"error": _error(exc)})
            continue
        units.append([(t0, time.perf_counter())])
        t = np.array([a.t for a in amps])
        r = np.array([a.r for a in amps])
        out = {
            "error": None,
            "u_samples": u[system["x_samples"]].tolist(),
            "t_samples": _complex_pairs(t[system["k_samples"]]),
            "r_samples": _complex_pairs(r[system["k_samples"]]),
            "unitarity_max": max(a.unitarity_defect for a in amps),
            "r_max_abs": float(np.max(np.abs(r))),
        }
        digest = hashlib.sha256(u.tobytes() + t.tobytes() + r.tobytes())
        if states is not None:
            states = sorted(states, key=lambda s: s.kappa)
            out["kappas"] = [s.kappa for s in states]
            out["energies"] = [s.energy for s in states]
            out["norming_constants"] = [s.norming_constant for s in states]
            out["poles"] = list(poles)
            digest.update(np.array(out["norming_constants"]).tobytes())
        out["digest"] = digest.hexdigest()
        ops.append(out)
    return {"units": units, "ops": ops, "bytes_written": 0}


def run_soliton_fields(inputs: dict, prefix: str, tracer=None) -> dict:
    (xmin, xmax, nx), (tmin, tmax, nt) = inputs["x"], inputs["t"]
    units = []
    nbytes = 0
    ops = []
    for i, system in enumerate(inputs["systems"]):
        path = f"{prefix}field-{i}.csv"
        argv = [
            "soliton", "--from-spec", "--h", repr(system["h"]),
            "--seeds", ",".join(str(v) for v in system["seeds"]),
            "--tmin", repr(tmin), "--tmax", repr(tmax), "--nt", str(nt),
            "--xmin", repr(xmin), "--xmax", repr(xmax), "--n", str(nx),
            "--output", path,
        ]
        t0 = time.perf_counter()
        code = cli.main(argv)
        write = (t0, time.perf_counter())
        if code != 0:
            units.append([write])
            ops.append({"error": f"soliton exited {code}"})
            continue
        with open(path, "rb") as fh:
            blob = fh.read()
        nbytes += len(blob)
        spec = darboux.SystemSpec(system["h"], tuple(system["seeds"]))
        with tracer.paused() if tracer else contextlib.nullcontext():
            data = kdv.scattering_data_from_spec(spec)  # the CLI derived it already
        t0 = time.perf_counter()
        invariants = [kdv.conserved_quantities(data, t) for t in inputs["invariant_times"]]
        residuals = [kdv.kdv_residual(data, x, t) for x, t in system["residual_points"]]
        units.append([write, (t0, time.perf_counter())])
        ops.append({
            "error": None,
            "csv": os.path.basename(path),
            "digest": hashlib.sha256(blob).hexdigest(),
            "invariants": [list(map(float, mq)) for mq in invariants],
            "residuals": residuals,
        })
    return {"units": units, "ops": ops, "bytes_written": nbytes}


WORKLOADS = {
    "acceptance": run_acceptance,
    "spectral_sweep": run_spectral_sweep,
    "soliton_fields": run_soliton_fields,
}


def main(argv) -> int:
    workload, inputs_path, out_dir, tag, seconds, min_rounds, trace = argv
    with open(inputs_path) as fh:
        inputs = json.load(fh)
    tracer = Tracer() if trace == "1" else None
    if tracer:
        tracer.install()
    rounds, spans = [], []
    t_start = time.perf_counter()
    with Speedometer() as speedometer:
        while True:
            t0 = time.perf_counter()
            if tracer:
                tracer.reset()
            prefix = os.path.join(out_dir, f"{tag}-{len(rounds)}-")
            rounds.append(WORKLOADS[workload](inputs, prefix, tracer))
            if tracer:
                spans.append(tracer.spans)
            step = time.perf_counter() - t0
            elapsed = time.perf_counter() - t_start
            if len(rounds) >= int(min_rounds) and elapsed + step > float(seconds):
                break
    for r in rounds:
        units = r.pop("units")
        r["unit_s"] = [sum(speedometer.normalized(a, b) for a, b in u) for u in units]
        r["raw_s"] = [sum(b - a for a, b in u) for u in units]
    if tracer:
        tracer.dump(os.path.join(out_dir, f"{tag}-spans.json"), spans)
    result = {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "kernel_s": statistics.median(b - a for a, b in speedometer.samples),
    }
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
