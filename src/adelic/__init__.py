"""Analysis on the finite adeles and the full adele ring.

Exact prime-power combinatorics (phi, successor/predecessor), truncated
adele points with Haar-measure sampling, exact radial Fourier transforms,
certified heat kernels, jump-process simulation and parabolic solvers.

Names resolve lazily (PEP 562): `import adelic` loads only the errors,
and the first `adelic.X` or `from adelic import X` imports the layer
module that defines X. Whenever a layer module is imported, by any route,
all of its exported names are bound on the package.
"""
import importlib
import sys
import types

from .errors import AdelicError, IndeterminateCancellation, ToleranceError

__version__ = "0.1.0"

# layer module -> the names the package exports from it
_EXPORTS = {
    "primepow": (
        "PrimePower", "bracket_log", "double_bracket", "is_prime",
        "is_prime_power", "log_phi", "next_pp", "phi", "pp_range", "prev_pp",
    ),
    "adele": (
        "AdelePoint", "Region", "add", "ball", "ball_exponents", "distance",
        "format_point", "haar_volume", "negate", "norm", "parse_point",
        "sample_uniform", "sphere", "sub",
    ),
    "radial": ("RadialStep", "ft_ball_eval", "integrate_radial"),
    "heatkernel": (
        "KernelParams", "SphereMasses", "ball_mass", "ln_z_finite",
        "moment_integral", "normalization", "sphere_masses",
        "tail_mass_bound", "upper_tail_mass", "z_adelic", "z_finite",
        "z_real",
    ),
    "markov": (
        "PathSample", "RadiusDistribution", "Truncation",
        "radius_distribution", "radius_law_chisquare", "sample_path",
        "transition_prob_ball",
    ),
    "cauchy": (
        "EvaluableRadial", "ForcingGrid", "InnerPiece", "RealGridFunction",
        "SymbolSpec", "apply_adelic_operator", "apply_operator",
        "real_fractional_operator", "solve_adelic", "solve_homogeneous",
        "solve_nonhomogeneous",
    ),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = [
    "AdelicError", "IndeterminateCancellation", "ToleranceError",
    *_HOME, "__version__",
]


def __getattr__(name):
    layer = name if name in _EXPORTS else _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    importlib.import_module(f"{__name__}.{layer}")
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """The package module. The import system binds a finished submodule
    as a package attribute; binding a layer also binds its exports, so
    `vars(adelic)` holds every loaded layer's names (the per-layer
    tracer wraps the bindings it finds there)."""

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        for export in _EXPORTS.get(name, ()):
            super().__setattr__(export, getattr(value, export))


sys.modules[__name__].__class__ = _Package
