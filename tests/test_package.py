"""The package's public surface: the modules' ``__all__`` lists and nothing else."""

import importlib

import pytest

import exuberance

PUBLIC = {
    "__version__",
    # exceptions
    "ExuberanceError", "DataError", "DegenerateFitError",
    # series
    "Series", "WindowSpec", "frac_to_index", "default_min_window", "load_series", "save_series",
    # ols
    "AdfFit", "fit_adf_window", "adf_stat", "adf_tstat_pairs", "gls_adjust",
    # recursive
    "StatSequence", "SupResult", "sadf", "gsadf", "hb_sup_chow", "sadf_gls",
    "EndOfSampleStats", "end_of_sample_stats", "UnionDecision", "union_of_rejections",
    # robust
    "SignStatistics", "sign_path", "sign_statistics", "TimeTransformedTests", "time_transformed_tests",
    "VarianceProfile", "variance_profile", "kernel_variance", "sbz",
    # bootstrap
    "BootstrapReport", "wild_bootstrap_pvalue", "CompositeCvReport", "composite_monitor_cv",
    "bsadf_window_max", "SubsamplingCv", "subsampling_cv", "BootstrapUnionReport", "bootstrap_union",
    "multiplier_draws",
    # datestamp
    "Episode", "CvSequence", "rule_critical_value", "default_min_duration", "pwy_stamp", "psy_stamp",
    "bic_init", "BubbleModelFit", "fit_bubble_model", "ModelSelection", "select_model_bic",
    "two_step_stamp", "sign_stamp", "training_max_monitor", "episodes_to_json", "episodes_to_csv",
    # inference
    "CAUCHY_PERCENTILES", "MildlyExplosiveCI", "cauchy_critical_value", "cauchy_ci", "t_ci",
    "DriftExponent", "drift_exponent", "recursive_ar_coefficients", "rolling_ar_coefficients",
    "MigrationTest", "migration_test", "ContagionFit", "contagion_delay", "CobubbleTest", "cobubble_test",
    # dgpsim
    "DGP_KINDS", "VOL_KINDS", "INNOVATIONS", "VolPath", "DgpSpec", "simulate", "CvTable",
    "tabulate_critical_values", "SizePowerStudy", "size_power_study",
}

MODULES = ("exceptions", "series", "ols", "recursive", "robust", "bootstrap", "datestamp", "inference", "dgpsim")

#: Helpers kept out of the package namespace, reached by module path.
MODULE_ONLY = {
    "ols": ("bsadf_backward", "sadf_prefix_stats", "tstat_ar_noconst", "COND_LIMIT", "GLS_CBAR"),
    "bootstrap": ("STATISTICS", "MULTIPLIERS", "MIN_REPLICATIONS", "MAX_DEGENERATE_SHARE",
                  "DEFAULT_MONITOR_SPAN", "replicate_rng"),
    "datestamp": ("BIC_PENALTY", "CV_SOURCES"),
    "series": ("DETERMINISTICS", "normalize_det"),
}


def test_all_lists_the_public_names_once():
    assert len(PUBLIC) == 85
    assert len(exuberance.__all__) == len(PUBLIC)
    assert set(exuberance.__all__) == PUBLIC


def test_star_import_gives_exactly_the_public_names():
    namespace = {}
    exec("from exuberance import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == PUBLIC
    assert all(namespace[name] is getattr(exuberance, name) for name in PUBLIC)


@pytest.mark.parametrize("module_name", MODULES)
def test_module_lists_reach_the_package(module_name):
    module = importlib.import_module(f"exuberance.{module_name}")
    for name in module.__all__:
        assert getattr(exuberance, name) is getattr(module, name)


@pytest.mark.parametrize("module_name", sorted(MODULE_ONLY))
def test_helpers_import_by_module_path(module_name):
    module = importlib.import_module(f"exuberance.{module_name}")
    for name in MODULE_ONLY[module_name]:
        assert hasattr(module, name)
        assert name not in module.__all__
        assert name not in exuberance.__all__
