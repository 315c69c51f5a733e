import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import struct
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbstates import cli
from gbstates.cli import main
from gbstates.verification import CheckResult


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def test_binomial_payload(capsys):
    doc = run_json(capsys, ["binomial", "--eta", "0.5", "--m", "2"])
    assert doc["command"] == "binomial"
    amps = [re for re, _ in doc["results"]["amplitudes"]]
    np.testing.assert_allclose(amps, [0.5, 0.70710678118654757, 0.5], atol=1e-15)
    assert doc["results"]["photon_statistics"]["mean"] == pytest.approx(1.0)
    assert doc["diagnostics"]["ladder_residual"] <= 1e-12


def test_binomial_endpoint_is_number_state(capsys):
    doc = run_json(capsys, ["binomial", "--eta", "1.0", "--m", "3"])
    amps = np.array([complex(re, im) for re, im in doc["results"]["amplitudes"]])
    np.testing.assert_array_equal(amps, [0, 0, 0, 1])
    assert doc["diagnostics"]["ladder_residual"] is None


def test_binomial_validation_exit_code(capsys):
    code, _, err = run_cli(capsys, ["binomial", "--eta", "1.5", "--m", "2"])
    assert code == 2
    assert "[0, 1]" in err


def test_binomial_past_the_amplitude_cap_exits_2(capsys, monkeypatch):
    # used to start a 2^26-entry lgamma list
    def no_amplitudes(p):
        raise AssertionError("binomial_amplitudes reached")

    monkeypatch.setattr(cli, "binomial_amplitudes", no_amplitudes)
    code, out, err = run_cli(capsys, ["binomial", "--eta", "0.5", "--m", "67108864"])
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == [
        "error: photon cap m = 67108864 needs 67108865 amplitudes per state, above the cap 67108864"
    ]


def test_gbs_spectrum_and_roots(capsys):
    doc = run_json(capsys, ["gbs", "--mu-re", "1", "--eta", "0.25", "--m", "2"])
    eigs = sorted(re for re, _ in doc["results"]["eigenvalues"])
    np.testing.assert_allclose(eigs, [-0.5, 0.0, 0.5], atol=1e-15)
    assert doc["results"]["kind"] == "generic"
    roots = doc["results"]["delta_roots"]
    assert roots[0] == [0.0, 0.0]
    assert doc["diagnostics"]["oracle"]["max_pair_error"] <= 1e-12


@pytest.mark.parametrize("nu_im, method", [("0", "sturm"), ("0.3", "lapack")], ids=["0-sturm", "0.3-eigvals"])
def test_gbs_reports_the_oracle_routine_and_skipped_steps(capsys, nu_im, method):
    # mu nu > 0 lies on the real slice, where the Sturm count replaces
    # LAPACK; at mu nu = 0.3 + 0.3i the count proves nothing and LAPACK's
    # eigvals decides
    doc = run_json(capsys, ["gbs", "--mu-re", "1", "--nu-re", "0.3", "--nu-im", nu_im,
                            "--eta", "0.4", "--m", "12"])
    oracle = doc["diagnostics"]["oracle"]
    assert (oracle["method"], oracle["skipped_newton_steps"]) == (method, 0)


def test_gbs_degenerate_kind(capsys):
    doc = run_json(
        capsys, ["gbs", "--mu-re", "1", "--nu-re", "1", "--eta", "0.5", "--m", "3"]
    )
    assert doc["results"]["kind"] == "degenerate-a-plus-zero"
    imag_parts = [im for _, im in doc["results"]["eigenvalues"]]
    assert max(abs(v) for v in imag_parts) <= 1e-10


def test_gbs_defective_kind_flags_collapse(capsys):
    doc = run_json(
        capsys, ["gbs", "--mu-re", "1", "--nu-re", "-1", "--eta", "0.8", "--m", "2"]
    )
    assert doc["results"]["kind"] == "defective-a-zero-zero"
    assert doc["diagnostics"]["oracle"]["multiplicity_collapse"] is True
    assert doc["diagnostics"]["oracle"]["max_pair_error"] is None


def test_gbs_eigenstate_output(capsys):
    doc = run_json(capsys, ["gbs", "--mu-re", "1", "--eta", "0.3", "--m", "4", "--k", "4"])
    state = np.array([complex(re, im) for re, im in doc["results"]["eigenstate"]])
    assert len(state) == 5
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


def test_gbs_invalid_k(capsys):
    code, _, err = run_cli(capsys, ["gbs", "--mu-re", "1", "--eta", "0.3", "--m", "4", "--k", "9"])
    assert code == 2
    assert "outside" in err


def test_gbs_degenerate_branch_still_serves_eigenstates(capsys):
    doc = run_json(
        capsys, ["gbs", "--mu-re", "1", "--nu-re", "1", "--eta", "0.5", "--m", "3", "--k", "2"]
    )
    state = np.array([complex(re, im) for re, im in doc["results"]["eigenstate"]])
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--mu-re", "1", "--eta", "0.3", "--m", "4", "--k", "9"],
         "eigenstate index 9 outside 0..4"),
        (["--mu-re", "1", "--eta", "0.3", "--m", "4", "--k", "-1"],
         "eigenstate index -1 outside 0..4"),
        (["--mu-re", "1", "--nu-re", "-0.25", "--eta", "0.5", "--m", "4", "--k", "1"],
         "the defective-a-zero-zero branch carries only the eigenstate k = 0; k = 1 unavailable"),
    ],
    ids=["above-m", "negative", "defective-k1"],
)
def test_gbs_k_messages_are_the_solvers(capsys, argv, message):
    # gbs --k speaks with eigenstate's words, and writes no record
    code, out, err = run_cli(capsys, ["gbs", *argv])
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == [f"error: {message}"]


def test_gbs_defective_branch_limits_k(capsys):
    code, _, err = run_cli(
        capsys,
        ["gbs", "--mu-re", "1", "--nu-re", "-1", "--eta", "0.8", "--m", "2", "--k", "1"],
    )
    assert code == 2
    assert "defective" in err


def test_limit_number_csv_monotone(capsys):
    code, out, _ = run_cli(
        capsys,
        ["limit", "--mode", "number", "--m", "6", "--k", "3", "--etas", "0.9,0.99,0.999"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m_or_eta,fidelity,residual"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert len(rows) == 3
    fids = [r[1] for r in rows]
    assert fids[0] < fids[1] < fids[2]
    residuals = [r[2] for r in rows]
    assert residuals[0] > residuals[1] > residuals[2]


def test_gbs_near_number_limit_at_m100_exits_0(capsys):
    # the eigenstate cores here used to overflow into an IndexError, exit 1
    doc = run_json(capsys, ["gbs", "--mu-re", "1", "--nu-re", "0", "--eta", "0.9999", "--m", "100"])
    assert doc["results"]["kind"] == "generic"
    oracle = doc["diagnostics"]["oracle"]
    assert oracle["max_residual"] <= oracle["residual_bound"]


@pytest.mark.parametrize(
    "flags, bound",
    [
        (["--mu-re", "nan"], "mu must be finite"),
        (["--nu-im", "inf"], "nu must be finite"),
        (["--eta", "nan"], "eta must lie strictly inside"),
    ],
)
def test_gbs_non_finite_input_exits_2(capsys, flags, bound):
    argv = ["gbs", "--eta", "0.4", "--m", "5"] + flags
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert bound in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "flags, bound",
    [
        (["--nu-re", "1e160"], "|nu| must be at most 1e50"),
        (["--mu-re", "1e-200", "--nu-re", "1e200"], "|mu| must lie in [1e-50, 1e50]"),
        (["--mu-re", "1e308", "--nu-re", "1e308"], "|mu| must lie in [1e-50, 1e50]"),
    ],
)
def test_gbs_magnitudes_past_the_bound_exit_2(capsys, flags, bound):
    # these used to overflow into an OverflowError traceback, exit 1
    code, out, err = run_cli(capsys, ["gbs", "--eta", "0.4", "--m", "3"] + flags)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bound}, got ")
    assert len(err.strip().splitlines()) == 1


def _modulus_and_phase(log10_modulus, phase):
    return complex(10.0**log10_modulus * math.cos(phase), 10.0**log10_modulus * math.sin(phase))


@settings(max_examples=40)
@given(
    mu=st.builds(_modulus_and_phase, st.floats(-300, 300), st.floats(-math.pi, math.pi)),
    nu=st.builds(_modulus_and_phase, st.floats(-300, 300), st.floats(-math.pi, math.pi)),
    eta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    m=st.integers(0, 8),
)
def test_gbs_never_shows_a_traceback(mu, nu, eta, m):
    # every finite input solves or is rejected by name: exit 0, 2 or 3
    argv = ["gbs", f"--mu-re={mu.real!r}", f"--mu-im={mu.imag!r}", f"--nu-re={nu.real!r}",
            f"--nu-im={nu.imag!r}", f"--eta={eta!r}", f"--m={m}"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    if code == 2:
        assert err.getvalue().startswith("error: ")


def _equals_form(argv):
    """argv with every negative value attached to its flag by '='."""
    joined = []
    for token in argv:
        if token.startswith("-") and token[1:2] in tuple(".0123456789"):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["gbs", "--eta", "0.4", "--m", "3", "--nu-re", "-1e-3"], "nu", [-1e-3, 0.0]),
        (["gbs", "--eta", "0.4", "--m", "3", "--mu-re", "-2.5E+1", "--mu-im", "-1e-2"], "mu", [-25.0, -0.01]),
        (["gbs", "--eta", "0.4", "--m", "3", "--nu-im", "-.5e0", "--nu-re", "-3"], "nu", [-3.0, -0.5]),
    ],
)
def test_gbs_takes_negative_exponent_values_after_a_space(capsys, argv, flag, value):
    # argparse's negative-number pattern has no exponent: left to itself it
    # exits 2 on "--nu-re -1e-3" with "expected one argument"
    doc = run_json(capsys, argv)
    assert doc["params"][flag] == value
    assert doc == run_json(capsys, _equals_form(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["limit", "--mode", "coherent", "--phi", "-1e-1", "--alpha", "1.5", "--m-values", "10,20"],
        ["evolve", "--eta", "0.4", "--m", "3", "--k", "1", "--omega", "-1e0", "--t", "2e-1", "--phi", "-3e-1"],
    ],
)
def test_limit_and_evolve_take_negative_exponent_values_after_a_space(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    assert run_cli(capsys, _equals_form(argv))[:2] == (0, out)


def test_gbs_unwritable_out_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, ["gbs", "--eta", "0.4", "--m", "3", "--out", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert len(err.strip().splitlines()) == 1


def test_gbs_oracle_non_convergence_exits_3(capsys, monkeypatch):
    from gbstates import cli
    from gbstates.oracle import NonConvergenceError

    def stalled(p, sol):
        raise NonConvergenceError("QR iteration exceeded 100 sweeps on a 6x6 matrix")

    monkeypatch.setattr(cli, "compare", stalled)
    code, out, err = run_cli(capsys, ["gbs", "--mu-re", "1", "--eta", "0.4", "--m", "5"])
    assert code == 3
    assert out == ""
    assert err.strip().splitlines() == [
        "error: oracle did not converge: QR iteration exceeded 100 sweeps on a 6x6 matrix"
    ]


def test_gbs_exits_3_on_the_reports_verdict(capsys, monkeypatch):
    # the verdict and the bounds written out are the report's, not re-derived
    from gbstates.oracle import compare

    reports = []

    def over_bound(p, sol):
        reports.append(dataclasses.replace(compare(p, sol), max_residual=2e-3, residual_bound=1e-3))
        return reports[-1]

    monkeypatch.setattr(cli, "compare", over_bound)
    code, out, err = run_cli(capsys, ["gbs", "--mu-re", "1", "--eta", "0.4", "--m", "5"])
    assert code == 3
    doc = json.loads(out)
    assert len(doc["results"]["eigenvalues"]) == 6
    oracle = doc["diagnostics"]["oracle"]
    assert oracle["max_residual"] == 2e-3
    assert oracle["residual_bound"] == 1e-3
    assert oracle["pair_error_bound"] == reports[0].pair_bound
    assert oracle["max_pair_error"] == reports[0].max_pair_error <= reports[0].pair_bound
    assert err == "oracle comparison exceeded tolerance\n"


def test_limit_number_defective_k_exits_2(capsys):
    # mu = 1, nu = -1/4, eta = 1/2 is defective: only k = 0 exists
    argv = ["limit", "--mode", "number", "--mu-re", "1", "--nu-re", "-0.25",
            "--m", "4", "--k", "2", "--etas", "0.5"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert "defective" in err


def test_limit_number_missing_args(capsys):
    code, _, err = run_cli(capsys, ["limit", "--mode", "number", "--m", "6"])
    assert code == 2
    assert "needs" in err


def test_limit_coherent_csv(capsys):
    code, out, _ = run_cli(
        capsys, ["limit", "--mode", "coherent", "--alpha", "1", "--m-values", "50,100,200"]
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    fids = [float(r[1]) for r in rows]
    assert fids == sorted(fids)
    assert fids[-1] >= 0.999


def test_limit_squeezed_validation(capsys):
    code, _, err = run_cli(
        capsys,
        ["limit", "--mode", "squeezed", "--nu-re", "1.5", "--alpha", "1", "--m-values", "50"],
    )
    assert code == 2
    assert "nu/mu" in err


def test_limit_squeezed_fidelity_is_finite_far_from_the_limit(capsys):
    # |lam/mu| = 50: the reference's C_n pass 1e200 on the way up, and the
    # recursion must rescale them to print a finite row
    argv = ["limit", "--mode", "squeezed", "--alpha", "1", "--m-values", "50", "--mu-re", "0.01"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    (row,) = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert row[0] == "50"
    assert all(math.isfinite(float(x)) for x in row)


def test_limit_squeezed_solves_at_strong_squeezing(capsys):
    # |nu/mu| = 0.8: the reference used to be sized too short, and this valid
    # input exited 2 with "dimension 88 too small"
    argv = ["limit", "--mode", "squeezed", "--alpha", "1", "--m-values", "50,100", "--nu-re", "0.8"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["50", "100"]
    assert all(math.isfinite(float(x)) for r in rows for x in r)


@pytest.mark.parametrize("m_values", ["50,inf", "nan", "50.6"])
def test_limit_m_values_must_be_finite_integers(capsys, m_values):
    argv = ["limit", "--mode", "coherent", "--alpha", "1", "--m-values", m_values]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --m-values must be finite integers")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--mode", "squeezed", "--alpha", "1", "--m-values", "0"], "m values must be >= 1, got 0"),
        (["--mode", "coherent", "--alpha", "1", "--m-values=-2,50"], "m values must be >= 1, got -2"),
        (["--mode", "coherent", "--alpha", "1", "--m-values", "-2,50"], "m values must be >= 1, got -2"),
        (["--mode", "squeezed", "--alpha", "1e200", "--m-values", "50"],
         "eta = alpha^2/m = inf outside (0, 1) at m = 50"),
        (["--mode", "coherent", "--alpha", "1e200", "--m-values", "50"],
         "eta = alpha^2/m = inf outside (0, 1) at m = 50"),
        (["--mode", "squeezed", "--alpha", "1", "--m-values", "50", "--mu-re", "1e-300"],
         "|mu| must lie in [1e-50, 1e50], got 1e-300"),
    ],
    ids=["m-zero", "m-negative", "m-negative-list", "squeezed-huge-alpha", "coherent-huge-alpha", "tiny-mu"],
)
def test_limit_names_the_violated_bound(capsys, argv, message):
    # each used to exit 1 with a ZeroDivisionError, OverflowError or an
    # infinite reference dimension
    code, out, err = run_cli(capsys, ["limit"] + argv)
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == [f"error: {message}"]


@settings(max_examples=40)
@given(
    mode=st.sampled_from(["squeezed", "coherent"]),
    alpha=st.one_of(st.floats(0.05, 3.0), st.sampled_from([1e200, 1.5e154, 0.0, -1.0])),
    m_values=st.lists(st.integers(-3, 300), min_size=1, max_size=3).map(sorted),
    mu=st.builds(_modulus_and_phase, st.floats(math.log10(0.5), math.log10(2.0)), st.floats(-math.pi, math.pi)),
    ratio=st.floats(0.0, 0.9),
    nu_phase=st.floats(-math.pi, math.pi),
)
def test_limit_never_shows_a_traceback(mode, alpha, m_values, mu, ratio, nu_phase):
    # alpha <= 3, |mu| >= 1/2 and |nu/mu| <= 0.9 keep every reference state's
    # stop bound near 5000 entries; the huge alphas fail on eta before any is built
    nu = mu * ratio * complex(math.cos(nu_phase), math.sin(nu_phase))
    argv = ["limit", f"--mode={mode}", f"--alpha={alpha!r}", "--m-values=" + ",".join(map(str, m_values)),
            f"--mu-re={mu.real!r}", f"--mu-im={mu.imag!r}", f"--nu-re={nu.real!r}", f"--nu-im={nu.imag!r}"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")


@pytest.mark.parametrize("phi", ["inf", "nan"])
def test_limit_coherent_phi_must_be_finite(capsys, phi):
    argv = ["limit", "--mode", "coherent", "--alpha", "1", "--m-values", "50", "--phi", phi]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == [f"error: --phi must be finite, got {float(phi)!r}"]


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--etas", ["limit", "--mode", "number", "--m", "4", "--k", "2", "--etas", "abc"]),
        ("--m-values", ["limit", "--mode", "coherent", "--alpha", "1", "--m-values", "50,abc"]),
    ],
)
def test_limit_parse_errors_name_the_flag(capsys, flag, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == [f"error: {flag} takes comma-separated numbers, got {argv[-1]!r}"]


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--etas", ["limit", "--mode", "number", "--m", "4", "--k", "2", "--etas", ","]),
        ("--etas", ["limit", "--mode", "number", "--m", "4", "--k", "2", "--etas", ""]),
        ("--m-values", ["limit", "--mode", "squeezed", "--alpha", "1", "--m-values", ","]),
    ],
)
def test_limit_empty_lists_name_the_flag(capsys, flag, argv):
    # an empty --etas used to exit 0 with a bare CSV header, and an empty
    # --m-values to fail later without naming the flag
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == [f"error: {flag} needs at least one number, got {argv[-1]!r}"]


@pytest.mark.parametrize(
    "argv",
    [
        ["limit", "--mode", "number", "--m", "4", "--k", "9", "--etas", "0.5"],
        ["evolve", "--eta", "0.3", "--m", "4", "--k", "7", "--omega", "1", "--t", "1"],
    ],
)
def test_limit_and_evolve_name_the_eigenstate_index(capsys, argv):
    # the solver's index check speaks, with the words of gbs --k
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    k = argv[argv.index("--k") + 1]
    assert err.strip().splitlines() == [f"error: eigenstate index {k} outside 0..4"]


@pytest.mark.parametrize(
    "argv",
    [
        ["binomial", "--eta", "0.5", "--m", "2"],
        ["gbs", "--eta", "0.25", "--m", "2"],
        ["evolve", "--eta", "0.3", "--m", "8", "--k", "4", "--omega", "1.0", "--t", "0.0"],
    ],
    ids=["binomial", "gbs", "evolve"],
)
def test_single_solves_have_no_format_flag(capsys, argv):
    # their only output is JSON
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


def test_gbs_root_is_an_unknown_option(capsys):
    # one constraint root: the secondary root only relabels the states
    with pytest.raises(SystemExit) as exc:
        main(["gbs", "--eta", "0.25", "--m", "2", "--root", "secondary"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --root secondary" in capsys.readouterr().err


def test_limit_json_format(capsys):
    doc = run_json(
        capsys,
        [
            "limit",
            "--mode",
            "squeezed",
            "--nu-re",
            "0.3",
            "--alpha",
            "1",
            "--m-values",
            "30,60",
            "--format",
            "json",
        ],
    )
    rows = doc["results"]["rows"]
    assert len(rows) == 2
    assert rows[1]["residual"] < rows[0]["residual"]


def test_evolve_identity_at_t_zero(capsys):
    doc = run_json(
        capsys,
        ["evolve", "--eta", "0.3", "--m", "8", "--k", "4", "--omega", "1.0", "--t", "0.0"],
    )
    assert doc["results"]["fidelity_vs_phase_shifted_rebuild"] == pytest.approx(1.0, abs=1e-14)


def test_evolve_phase_shift_identity(capsys):
    doc = run_json(
        capsys,
        [
            "evolve",
            "--eta", "0.3", "--m", "8", "--k", "4",
            "--phi", "0.0", "--omega", "1.0", "--t", str(math.pi / 3),
        ],
    )
    assert doc["results"]["fidelity_vs_phase_shifted_rebuild"] >= 1 - 1e-12


def test_evolve_full_period(capsys):
    doc = run_json(
        capsys,
        ["evolve", "--eta", "0.3", "--m", "8", "--k", "0", "--omega", "1.0", "--t", str(2 * math.pi)],
    )
    assert doc["results"]["fidelity_vs_phase_shifted_rebuild"] >= 1 - 1e-12


@pytest.mark.parametrize(
    "flag, value", [("--omega", "inf"), ("--t", "nan"), ("--phi", "inf")]
)
def test_evolve_non_finite_input_exits_2(capsys, flag, value):
    argv = ["evolve", "--eta", "0.3", "--m", "8", "--k", "4", "--omega", "1.0", "--t", "0.5"]
    code, out, err = run_cli(capsys, argv + [flag, value])
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == [f"error: {flag} must be finite, got {float(value)!r}"]


@pytest.mark.parametrize(
    "m, omega, t, phase",
    [(3, "1e308", "1e10", "phi + omega*t"), (20, "1e307", "1", "omega*t*(m + 1/2)")],
)
def test_evolve_overflowing_phase_exits_2(capsys, m, omega, t, phase):
    # phi + omega*t used to reach math.cos as inf ("math domain error"), and
    # the top amplitude's phase to return NaN amplitudes with exit 0
    argv = ["evolve", "--eta", "0.4", "--m", str(m), "--k", "1", "--omega", omega, "--t", t]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == [f"error: {phase} must be finite, got inf"]


def test_output_is_deterministic(capsys):
    argv = ["gbs", "--mu-re", "0.7", "--mu-im", "0.2", "--nu-re", "0.3", "--nu-im", "-0.4",
            "--eta", "0.37", "--m", "7"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_out_file_uses_lf(tmp_path, capsys):
    target = tmp_path / "payload.json"
    code, _, _ = run_cli(
        capsys, ["binomial", "--eta", "0.5", "--m", "2", "--out", str(target)]
    )
    assert code == 0
    raw = target.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    json.loads(raw.decode("utf-8"))


@pytest.fixture(scope="module")
def verify_json_doc():
    """One full `verify --format json` run, shared by the tests that read it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--format", "json"])
    assert code == 0
    return json.loads(out.getvalue())


def test_verify_json_runs_the_fixed_battery(verify_json_doc):
    doc = verify_json_doc
    assert doc["params"] == {}
    checks = doc["results"]["checks"]
    assert doc["results"]["all_passed"] is True
    assert len(checks) == 18
    assert all(c["passed"] for c in checks)


def test_verify_json_records_amplitude_verdict(verify_json_doc):
    checks = verify_json_doc["results"]["checks"]
    squeezed = [c for c in checks if c["name"] == "squeezed-limit"]
    assert len(squeezed) == 1
    assert squeezed[0]["passed"] is True
    assert "verdict: alpha/2" in squeezed[0]["detail"]


def test_verify_json_reports_wall_time_per_check(verify_json_doc):
    doc = verify_json_doc
    checks = doc["results"]["checks"]
    wall = doc["diagnostics"]["wall_s"]
    assert set(wall) == {c["name"] for c in checks}
    assert len(wall) == len(checks)
    times = [*wall.values(), doc["diagnostics"]["total_s"]]
    assert all(math.isfinite(t) and t >= 0.0 for t in times)
    # total_s spans the whole battery, so no single check can exceed it
    assert doc["diagnostics"]["total_s"] >= max(wall.values())


def test_verify_text_table(capsys, monkeypatch):
    rows = [
        CheckResult(name="first", passed=True, observed=1e-13, threshold=1e-12),
        CheckResult(name="second", passed=True, observed=0.0, threshold=1.0, detail="why"),
    ]
    monkeypatch.setattr(cli, "run_all", lambda: rows)
    code, out, _ = run_cli(capsys, ["verify"])
    assert code == 0
    assert out.splitlines() == [
        f"PASS  {'first':40s} 1.000e-13 <= 1.000e-12",
        f"PASS  {'second':40s} 0.000e+00 <= 1.000e+00",
        "      why",
        "2/2 checks passed",
    ]


@pytest.mark.parametrize(
    "argv",
    [["--seed", "1"], ["--spectrum-draws", "3"], ["--degenerate-draws", "3"], ["--disentangle-draws", "3"]],
)
def test_verify_has_no_draw_or_seed_flags(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err
    assert "Traceback" not in captured.err


def test_subcommand_option_sets():
    # a new knob shows up here as a test change
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        for name, parser in sub.choices.items()
    }
    complex_flags = {"--mu-re", "--mu-im", "--nu-re", "--nu-im"}
    assert options == {
        "binomial": {"--eta", "--m", "--out"},
        "gbs": complex_flags | {"--eta", "--m", "--k", "--out"},
        "limit": complex_flags | {"--mode", "--m", "--k", "--etas", "--alpha", "--m-values",
                                  "--rule", "--offset", "--phi", "--format", "--out"},
        "evolve": {"--eta", "--m", "--k", "--phi", "--omega", "--t", "--out"},
        "verify": {"--format", "--out"},
    }


def test_verify_failure_path(capsys, monkeypatch):
    failing = CheckResult(name="planted", passed=False, observed=1.0, threshold=0.5)
    monkeypatch.setattr(cli, "run_all", lambda: [failing])
    code, out, _ = run_cli(capsys, ["verify"])
    assert code == 3
    assert "FAIL" in out


def same_bits(a, b) -> bool:
    """a == b, with floats compared by their bits and types compared too."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, dict):
        return list(a) == list(b) and all(same_bits(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(same_bits(x, y) for x, y in zip(a, b))
    return a == b


@pytest.mark.parametrize(
    "argv",
    [
        ["binomial", "--eta", "0.37", "--m", "9"],
        ["gbs", "--mu-re", "0.7", "--mu-im", "0.2", "--nu-re", "0.3", "--nu-im", "-0.4",
         "--eta", "0.37", "--m", "7", "--k", "3"],
        ["gbs", "--mu-re", "1", "--nu-re", "-0.25", "--eta", "0.5", "--m", "6", "--k", "0"],
        ["evolve", "--eta", "0.4", "--m", "6", "--k", "2", "--omega", "1.3", "--t", "0.7"],
        ["limit", "--mode", "squeezed", "--nu-re", "0.3", "--alpha", "1", "--m-values", "30,60",
         "--format", "json"],
        ["verify", "--format", "json"],
    ],
    ids=["binomial", "gbs", "gbs-defective", "evolve", "limit", "verify"],
)
def test_a_record_is_one_line_with_the_values_of_the_indented_one(capsys, monkeypatch, argv):
    # the one-line record, from json's C encoder, reads back to the same
    # values, bit for bit, as the same record indented by the pure-Python one
    records = []

    def dumps(obj, **kwargs):
        records.append(obj)
        return json.dumps(obj, **kwargs)

    monkeypatch.setattr(cli, "json", types.SimpleNamespace(dumps=dumps))
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    assert out.count("\n") == 1 and out.endswith("\n")
    (record,) = records
    assert same_bits(json.loads(out), json.loads(json.dumps(record, indent=2)))


def test_cvec_keeps_every_bit_of_the_per_element_pairs():
    rng = np.random.default_rng(5)
    z = rng.standard_normal(40) * 10.0 ** rng.integers(-320, 300, 40) + 1j * rng.standard_normal(40)
    z[:6] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(np.inf, -np.inf), complex(np.nan, 1.0),
             complex(5e-324, -5e-324), complex(1.0, np.nan)]
    for v in (z, z[::3], z.real, list(z[:7]), np.array([], dtype=complex)):
        want = [[complex(x).real, complex(x).imag] for x in np.asarray(v)]
        assert same_bits(cli._cvec(v), want)


@pytest.mark.parametrize(
    "mu, nu, eta, method",
    [(1.0, 0.7 * np.exp(0.03j), 0.4, "lapack"), (0.9 + 0.4j, 0.9 - 0.4j, 0.55, "sturm"),
     (1.0, -0.25, 0.5, "none"), (1.2, 0.0, 0.35, "sturm")],
    ids=["near-normal", "hermitian", "defective", "nu-zero"],
)
def test_gbs_in_a_fresh_process_prints_one_json_line(mu, nu, eta, method):
    # the benchmark's verified-solve points at m = 12, through the module's
    # command line in a new interpreter
    mu, nu = complex(mu), complex(nu)
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["gbs", "--mu-re", repr(mu.real), "--mu-im", repr(mu.imag), "--nu-re", repr(nu.real),
            "--nu-im", repr(nu.imag), "--eta", repr(eta), "--m", "12", "--k", "0", "--out", "-"]
    proc = subprocess.run([sys.executable, "-m", "gbstates.cli", *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    assert json.loads(line)["diagnostics"]["oracle"]["method"] == method


def test_gbs_proves_the_spectrum_next_to_the_real_slice_in_a_fresh_process():
    # arg(mu nu) = 1e-10: the Sturm count proves every pair error there too,
    # and the record names no LAPACK routine
    nu = complex(0.3 * np.exp(1e-10j))
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["gbs", "--mu-re", "1", "--nu-re", repr(nu.real), "--nu-im", repr(nu.imag), "--eta", "0.4",
            "--m", "60", "--out", "-"]
    proc = subprocess.run([sys.executable, "-m", "gbstates.cli", *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    oracle = json.loads(line)["diagnostics"]["oracle"]
    assert oracle["method"] == "sturm"
    assert "lapack_routine" not in oracle
    assert oracle["max_pair_error"] <= oracle["pair_error_bound"]
