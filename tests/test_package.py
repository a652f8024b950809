"""The package's public names.

``cceff.__all__`` is built from the modules' own lists; these tests pin
that set of names and check that each is its defining module's object.
"""

import cceff
from cceff import asymptotics, errors, estimators, model, simulate

PUBLIC = {
    errors: [
        "CCEffError", "InfeasiblePrevalence", "BracketFailure",
        "ZeroCell", "ZeroMargin", "Separation", "NonConvergence", "InfeasibleStart",
        "BoundaryEstimate", "SingularInformation", "VacuousMinimizer",
        "AllReplicatesFailed", "InvalidInput",
    ],
    model: [
        "PopulationParams", "DesignParams", "RetroDistribution", "cell_probs",
        "mixture_weights", "prevalence_at", "alpha_from_prevalence", "retro_distribution",
    ],
    estimators: [
        "Method", "CaseControlTable", "FitResult", "TestResult", "fit_marginal",
        "fit_adjusted", "fit_constrained", "fit_marginal_batch", "fit_adjusted_batch",
        "fit_constrained_batch", "wald_test",
    ],
    asymptotics: [
        "AsymptoticConstants", "PowerPoint", "b_factors", "bias_delta", "attenuation_slope",
        "bias_minimizer", "sigma_M_sq", "sigma_A_sq", "sigma0_sq", "sigma_AC_sq",
        "lambda_ratio", "lambda0", "pitman_are_M_vs_A", "pitman_are_M_vs_AC", "pitman_tau",
        "asymptotic_power", "asymptotic_constants", "theory_curve",
    ],
    simulate: [
        "DEFAULT_EPS", "SimConfig", "MethodStats", "MCReport", "LimitPoint", "MisspecRow",
        "expected_table", "sample_table", "sample_tables", "run_mc", "limiting_value",
        "limiting_values", "misspec_sweep",
    ],
}


def test_public_names_are_the_pinned_64_without_duplicates():
    pinned = ["__version__", *(name for names in PUBLIC.values() for name in names)]
    assert len(pinned) == len(set(pinned)) == 64
    assert len(cceff.__all__) == len(set(cceff.__all__))
    assert set(cceff.__all__) == set(pinned)


def test_each_public_name_is_its_defining_module_object():
    for module, names in PUBLIC.items():
        for name in names:
            assert getattr(cceff, name) is getattr(module, name), name
    assert cceff.__version__ == "0.1.0"
