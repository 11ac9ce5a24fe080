"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion printed to stdout."""

import pytest

from darbouxkdv import verification as ver


def _report(results):
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    assert not failed, "; ".join(r.line() for r in failed)


def test_c01_spectrum_reproduction():
    """h=1, seeds=[2]: sinc oracle spectrum {-16, -1} within 1e-6 on n=161, L=20, a=0.55."""
    _report(ver.check_bound_states_h1()[:1])


def test_c02_norming_constants():
    """Closed-form c = sqrt(10/3), sqrt(40/3) within 1e-6; sinc oracle within 1e-3."""
    _report(ver.check_bound_states_h1()[1:])


def test_spectra_suite_solves_each_system_once(monkeypatch):
    # C01 and C02 read h=1 [2] off one oracle solve; C05 solves h=2 [2]; each solve
    # is one eigvalsh per parity sector, and no eigh computes an eigenvector
    import scipy.linalg

    from darbouxkdv import spectral_oracle

    solved, sectors = [], []
    eigen_spectrum, eigvalsh = spectral_oracle.eigen_spectrum, scipy.linalg.eigvalsh

    def counted(potential, grid):
        solved.append(potential(0.0))
        return eigen_spectrum(potential, grid)

    def counted_sector(*args, **kwargs):
        sectors.append(args[0].shape)
        return eigvalsh(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("eigh call in the spectra suite")

    monkeypatch.setattr(spectral_oracle, "eigen_spectrum", counted)
    monkeypatch.setattr(ver, "eigen_spectrum", counted)
    monkeypatch.setattr(scipy.linalg, "eigvalsh", counted_sector)
    monkeypatch.setattr(scipy.linalg, "eigh", refused)
    _report(ver.run_suite("spectra"))
    assert solved == pytest.approx([-30.0, -44.0])
    assert sectors == [(81, 81), (80, 80)] * 2


def test_c03_glm_reconstruction_h1():
    """max |u(x,0) - U_D(x)| <= 1e-8 on [-10,10] (2001 pts); u(0,0) = -30."""
    _report(ver.check_reconstruction_h1())


def test_c04_explicit_two_soliton_formula():
    """field_u for kappa=(1,4) matches the transcribed closed form to 1e-9."""
    _report(ver.check_explicit_formula())


def test_c05_h2_chain():
    """h=2: spectrum {-25,-4,-1} within 1e-6; u(0,0) = -44; reconstruction <= 1e-6."""
    _report(ver.check_h2_chain())


def test_c06_kdv_residuals():
    """KdV residual <= 1e-5 on a 9x5 grid for (1), (1,4), (1,2,5); <= 1e-6 for (1)."""
    _report(ver.check_kdv_residuals())


def test_c07_scattering_unitarity():
    """200 random non-integer h: | |t|^2+|r|^2 - 1 | <= 1e-10; exact r = 0 for integer h."""
    _report(ver.check_unitarity())


def test_c08_scattering_oracle_agreement():
    """Closed form vs ODE oracle within 1e-4 over K in {0.25,...,8} for four specs."""
    _report(ver.check_oracle_agreement())


def test_c09_pole_spectrum_duality():
    """transmission_poles equals the bound-state kappa sets exactly."""
    _report(ver.check_pole_duality())


def test_c10_asymptotic_phase_shifts():
    """Peaks at t = +-3 sit at 4 k^2 t -+ chi/k within 1e-2; heights within 1e-3."""
    _report(ver.check_asymptotic_phase_shifts())


def test_c11_conservation():
    """Mass -4 sum(k) and momentum (16/3) sum(k^3) within 1e-8, t-independent."""
    _report(ver.check_conservation())


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
