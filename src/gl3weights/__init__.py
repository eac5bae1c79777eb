"""Exact-arithmetic weight combinatorics for rank-3 mod-p types.

The package factors into small layers: integer digit arithmetic and
Frobenius orbits (`arith`), restricted weight classes (`weights`), tame
inertial types (`tame_types`), rank-one Breuil module invariants
(`breuil`), predicted weight sets (`predicted`), parabolic induction
constituents (`induction`), weight elimination and the lifts' reduction
candidate tables (`elimination`), weight-cycling closures (`cycling`),
slope bounds (`slopes`), and randomized invariant sweeps (`sweeps`).

`import gl3weights` loads none of them: each layer is imported the first
time one of its names, or the submodule itself, is looked up here.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the names it exports at package level
_EXPORTS = {
    "arith": "CASE_I CASE_II DIVISIBLE Decomposition ExpClass FrobOrbit decompose_exponent"
             " exp_class orbit orbit_of orbit_rep",
    "weights": "WeightClass alcove canonicalize dim_weight dual is_delta_generic is_generic"
               " shadow weight weyl_dim",
    "tame_types": "TameType dual_twist iso tau tau_exponent type_from_exponent",
    "breuil": "BreuilModule fractional_shift inertial_character is_maximal is_minimal"
              " maximal_model random_module validate",
    "predicted": "PredictedSet enumerate_predicted is_predicted nine_weight_families"
                 " nine_weight_table theta",
    "induction": "AntidominantCochar implied_weights",
    "elimination": "CONSISTENT ELIMINATED EliminationReport LiftType UnsupportedWeight"
                   " cuspidal cuspidal_dual eliminate intersection_sets principal_series",
    "cycling": "ConsistencyError CyclingGraph cycle emit_dot",
    "slopes": "HodgeData hecke_normalization hodge_data newton_hodge_gap"
              " ordinarity_threshold slope_criticality",
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = frozenset(_EXPORTS) | {"sweeps", "cli"}

__all__ = list(_HOME)


def __getattr__(name: str):
    """Import a layer, or the home layer of an exported name, on first lookup.

    `globals()[name] = value` is the lazy loader's cache, so later lookups
    skip this hook; it stores into no named module-level object."""
    if name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
