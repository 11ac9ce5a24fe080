"""Tests of the benchmark's own code: references, self-time arithmetic, inputs."""

import json
import math
import os
import subprocess
import sys
import time

import mpmath as mp
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import reference as ref  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_reference_h1_seed2():
    assert ref.norming_constants_sq(1.0, (2,)) == [
        (1.0, pytest.approx(10 / 3, rel=1e-14)),
        (4.0, pytest.approx(40 / 3, rel=1e-14)),
    ]
    assert ref.norming_constants_sq_integer(1, (2,)) == [
        (1.0, pytest.approx(10 / 3, rel=1e-15)),
        (4.0, pytest.approx(40 / 3, rel=1e-15)),
    ]
    assert ref.deformed_potential(1.0, (2,), 0.0) == pytest.approx(-30.0, abs=1e-12)
    t, r = ref.amplitudes(1.0, (2,), 1.0)
    assert abs(t - complex(-8, -15) / 17) < 1e-15
    assert r == 0


def test_reference_h2_seed2():
    c2 = ref.norming_constants_sq(2.0, (2,))
    assert [k for k, _ in c2] == [1.0, 2.0, 5.0]
    assert [c for _, c in c2] == pytest.approx([9.0, 28.0, 35.0], rel=1e-14)
    assert [c for _, c in ref.norming_constants_sq_integer(2, (2,))] == pytest.approx(
        [9.0, 28.0, 35.0], rel=1e-15)
    u = ref.glm_field([1.0, 2.0, 5.0], [3.0, math.sqrt(28.0), math.sqrt(35.0)], 0.0, 0.0)
    assert u == pytest.approx(-44.0, abs=1e-12)


def test_reference_residues_match_integer_closed_form():
    for h, seeds in ((3, ()), (3, (4,)), (5, (2,))):
        by_residue = [c for _, c in ref.norming_constants_sq(float(h), seeds)]
        closed = [c for _, c in ref.norming_constants_sq_integer(h, seeds)]
        assert by_residue == pytest.approx(closed, rel=1e-14)


def test_reference_jacobi_sum_matches_mpmath_hypergeometric_form():
    for n, a, b, z in ((4, 0.3, -1.7, 0.3), (6, -2.5, 1.25, -0.8), (3, 1.5, 1.5, 0.9)):
        assert float(ref.jacobi(n, a, b, mp.mpf(z))) == pytest.approx(
            float(mp.jacobi(n, a, b, z)), rel=1e-13)


def test_reference_unitarity_for_noninteger_h():
    t, r = ref.amplitudes(1.7, (2, 4), 0.8)
    assert abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) < 1e-14
    assert abs(r) > 1e-3


def test_self_time_on_synthetic_span_tree():
    # A(0,10) -> B(1,4) -> B(2,3);  A -> C(5,7) -> D(5.5,6);  E(11,12) a second root
    spans = [
        ("A", 0.0, 10.0, -1),
        ("B", 1.0, 4.0, 0),
        ("B", 2.0, 3.0, 1),
        ("C", 5.0, 7.0, 0),
        ("D", 5.5, 6.0, 3),
        ("E", 11.0, 12.0, -1),
    ]
    totals = tracing.layer_totals(spans)
    assert totals["A"] == {"self_s": 5.0, "total_s": 10.0, "calls": 1}
    assert totals["B"] == {"self_s": 3.0, "total_s": 3.0, "calls": 1}
    assert totals["C"] == {"self_s": 1.5, "total_s": 2.0, "calls": 1}
    assert totals["D"] == {"self_s": 0.5, "total_s": 0.5, "calls": 1}
    assert totals["E"] == {"self_s": 1.0, "total_s": 1.0, "calls": 1}
    assert sum(t["self_s"] for t in totals.values()) == 11.0


def test_covered_merges_overlapping_intervals():
    assert tracing.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert tracing.covered([]) == 0.0


def test_speed_normalization_removes_kernel_runs_and_scales_by_their_time():
    samples = [(0.0, 0.002), (0.1, 0.104), (0.2, 0.202)]
    scale = speed.REFERENCE_KERNEL_S / 0.003
    # two kernel runs inside: 6 ms removed, median kernel time 3 ms
    assert speed.normalized(samples, 0.05, 0.25) == pytest.approx(0.194 * scale)
    # none inside: the runs just before and after give the speed
    assert speed.normalized(samples, 0.01, 0.05) == pytest.approx(0.04 * scale)


def test_speedometer_samples_while_active():
    with speed.Speedometer(interval_s=0.01) as meter:
        t_end = time.perf_counter() + 0.1
        while time.perf_counter() < t_end:
            pass
    n = len(meter.samples)
    assert n >= 3
    time.sleep(0.03)
    assert len(meter.samples) == n


def test_tracer_wraps_functions_where_callers_look_them_up():
    # in a subprocess, so that the wrappers never touch this test session
    script = (
        "import sys, json; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import darbouxkdv.cli\n"
        "from tracing import Tracer, layer_totals\n"
        "tr = Tracer(); tr.install()\n"
        "from darbouxkdv import kdv, SystemSpec\n"
        "data = kdv.scattering_data_from_spec(SystemSpec(1.0, (2,)))\n"
        "kdv.field_u(data, [0.0, 1.0], 0.0); kdv.field_u(data, 0.0, 0.0)\n"
        "with tr.paused():\n"
        "    kdv.field_u(data, 0.5, 0.0)\n"
        "print(json.dumps({k: v['calls'] for k, v in layer_totals(tr.spans).items()}))\n"
    )
    src = os.path.join(os.path.dirname(BENCH), "src")
    proc = subprocess.run([sys.executable, "-c", script, BENCH, src],
                          capture_output=True, text=True, timeout=120, check=True)
    calls = json.loads(proc.stdout.splitlines()[-1])
    assert calls["kdv.scattering_data_from_spec"] == 1
    assert calls["darboux.bound_states"] == 1  # kdv imports it by name
    assert calls["darboux.deformed_potential"] == 1
    assert calls["specfun.jacobi_coefficients"] == 2  # the seed and the one base state
    assert calls["kdv.field_u.vector"] == 1
    assert calls["kdv.field_u.scalar"] == 1


def test_inputs_depend_only_on_seed_and_keep_the_faults():
    for workload in ("spectral_sweep", "soliton_fields"):
        a = workloads.inputs_for(workload, 7)
        assert a == workloads.inputs_for(workload, 7)
        assert a != workloads.inputs_for(workload, 8)
        for seed in (0, 1, 2):
            systems = workloads.inputs_for(workload, seed)["systems"]
            faults = [(s["h"], s["seeds"], s["fault"]) for s in systems if "fault" in s]
            fixed = (workloads.SWEEP_FIXED if workload == "spectral_sweep"
                     else (workloads.SOLITON_FAULT,))
            assert faults == [(s["h"], s["seeds"], s["fault"]) for s in fixed if "fault" in s]


def test_sweep_draws_stay_clear_of_the_fault_regions():
    for seed in range(50):
        for s in workloads.sweep_inputs(seed)["systems"]:
            if "fault" in s:
                continue
            h = s["h"]
            assert h == round(h) or h % 1.0 >= 0.5 or h < 1.0
            assert min(ref.kappa_set(h, s["seeds"])) >= 0.5
            if len(s["seeds"]) == 1:
                assert s["seeds"][0] <= (34 if h < 1.0 else workloads._max_seed_degree(h))


def test_parse_verify():
    text = ("spectrum h=1 [2] vs {-16,-1} (n=4001, L=20): defect 1.2e-09 vs tol 1.0e-06 PASS\n"
            "oracle agreement t, h=1.0 seeds=[2]: defect 3.0e-03 vs tol 1.0e-04 FAIL\n"
            "1/2 checks passed, 1 FAILED\n")
    checks, summary = workloads.parse_verify(text)
    assert checks == [
        ("spectrum h=1 [2] vs {-16,-1} (n=4001, L=20)", 1.2e-09, 1e-06, True),
        ("oracle agreement t, h=1.0 seeds=[2]", 3e-03, 1e-04, False),
    ]
    assert summary == "1/2 checks passed, 1 FAILED"
