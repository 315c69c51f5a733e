"""The public API: what `gbstates.__all__` exports is there, once, and is the pinned list."""

import gbstates


def test_every_exported_name_resolves_and_none_is_listed_twice():
    names = gbstates.__all__
    assert len(set(names)) == len(names), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [n for n in names if not hasattr(gbstates, n)]
    assert not missing, missing


def test_the_exported_names_are_pinned():
    # a name added to or removed from the API shows up as a change here
    assert sorted(gbstates.__all__) == [
        "BinomialParams",
        "CoefficientTriple",
        "DisplacementParams",
        "GBSParams",
        "GBSSolution",
        "KRule",
        "LimitSchedule",
        "NonConvergenceError",
        "PhotonStatistics",
        "SolutionKind",
        "SpectrumReport",
        "basis_state",
        "binomial_amplitudes",
        "binomial_displacement_form",
        "binomial_phase_parameters",
        "coefficient_triple",
        "compare",
        "constraint_roots",
        "delta_to_zeta",
        "disentangled_displacement",
        "displacement",
        "eigenstate",
        "eigenstate_exponential",
        "eigenstate_sum",
        "fidelity",
        "ladder_residual",
        "normalize_state",
        "number_limit_scan",
        "photon_statistics",
        "solve",
        "spectrum",
        "squeezed_eigenstate",
        "squeezed_limit_scan",
        "time_evolve",
    ]
