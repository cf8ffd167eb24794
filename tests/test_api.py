"""The public API is frozen: the package re-exports exactly the layers' ``__all__``."""

import importlib

import discinterp

PUBLIC = [
    "BoundReport", "CoeffSeries", "DegenerateNodes", "DiscinterpError", "Divergence",
    "ExtremalResult", "IllConditionedWarning", "MalmquistBasis", "MinNormResult",
    "NotHilbert", "PickProblem", "PoleOnDomain", "SigmaSet", "SpaceSpec", "SweepResult",
    "SweepRow", "TruncationError", "UnsupportedSpace", "bergman_radial", "bernstein_ratio",
    "blaschke_coeffs", "blaschke_eval", "blaschke_factor", "bound_sweep",
    "carleson_constant", "cauchy_pairing", "compose_with_blaschke", "cs_min_norm",
    "derivative", "dirichlet_kernel", "eval_functional_norm", "eval_series",
    "fejer_kernel", "gram_matrix", "hadamard_product", "hardy", "interp_constant",
    "jet_values", "kernel_diagonal", "malmquist_basis", "min_norm_trace", "norm",
    "pick_min_norm", "power_inequality_check", "project", "projection_operator_norm",
    "quotient_norm", "seq_weighted", "series_power", "series_product", "theorem_bounds",
    "witness_lower_bound",
]

LAYERS = ("errors", "series", "spaces", "modelspace", "extremal", "bounds")


def test_public_names_are_frozen():
    assert PUBLIC == sorted(PUBLIC)
    assert sorted(discinterp.__all__) == PUBLIC


def test_each_name_is_declared_once_and_is_its_layer_object():
    owner = {}
    for layer in LAYERS:
        module = importlib.import_module(f"discinterp.{layer}")
        for name in module.__all__:
            assert name not in owner, f"{name} is in both {owner.get(name)} and {layer}"
            owner[name] = layer
            assert getattr(discinterp, name) is getattr(module, name)
    assert sorted(owner) == PUBLIC


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from discinterp import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == PUBLIC
