"""Finite CAT(0) cube complexes as median graphs: hyperplanes, gates,
orthogonal complements and the hyperclosure, with brute-force oracles.

Importing the package runs none of its submodules.  Each submodule is
registered in `sys.modules` as a module whose code runs on its first
attribute read (an import of it reads one), and the public names below
resolve on first use.  Loads run one at a time under one package lock, so
a thread that reads a module another thread is loading waits for the
whole module.  Registered modules are never set as package attributes, so
`cubemedian.hyperclosure` stays the function of that name.  The private
modules `_nonmedian` and `_helptext` are not registered: the code that
needs them imports them where it runs.
"""

import importlib.util
import sys
import threading
import types

from ._version import __version__

# submodule -> the public names the package takes from it
_EXPORTS = {
    "analysis": ("AnalysisReport", "analyze", "report_from_json", "report_to_json"),
    "core": (
        "ConvexSubcomplex", "HyperplaneClass", "InvariantFailure", "MedianComplex",
        "ValidationReport", "dimension", "hull", "theta_classes", "validate",
        "whole_complex",
    ),
    "errors": ("InvariantViolation", "ResourceLimitError", "StructuralError",
               "ValidationError"),
    "gates": (
        "ProductRegion", "carrier", "comb_side", "crosses", "crossing_signature", "gate",
        "interval", "is_convex", "is_parallel", "median", "parallel_bridge",
        "parallel_copies", "parallel_into", "product_region", "project", "separators",
        "set_distance", "subcomplex",
    ),
    "generators": (
        "GeneratorSpec", "box", "generate", "glued_staircase_ray", "grid", "parse_spec",
        "product", "random_median", "spec_to_string", "staircase", "tree", "wedge",
    ),
    "hyperclosure": (
        "Derivation", "Hyperclosure", "MultiplicityProfile", "grades_report",
        "hyperclosure", "longest_chain", "multiplicity",
    ),
    "io": ("complex_from_json", "complex_to_json", "load_complex", "save_complex", "to_dot"),
    "orthocomplement": ("all_convex_subcomplexes", "clean_container", "oracle_hyperclosure",
                        "orth", "witness_compact"),
    "rng": (),
    "verify": ("Violation", "verify_complex"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["__version__", *_SOURCE]

_lock = threading.RLock()
_pending: dict = {}  # module name -> spec, for the registered modules not yet run


class _LazyModule(types.ModuleType):
    """A registered submodule.  Its first attribute read or write runs its
    code, then its class becomes `ModuleType`; reads made by the thread
    running it meanwhile pass straight through."""

    def __getattribute__(self, attr):
        _load(self)
        return types.ModuleType.__getattribute__(self, attr)

    def __setattr__(self, attr, value):
        _load(self)
        types.ModuleType.__setattr__(self, attr, value)

    def __delattr__(self, attr):
        _load(self)
        types.ModuleType.__delattr__(self, attr)


def _load(module) -> None:
    with _lock:
        spec = _pending.pop(types.ModuleType.__getattribute__(module, "__name__"), None)
        if spec is None:
            return
        try:
            spec.loader.exec_module(module)
        except BaseException:
            _pending[spec.name] = spec
            raise
        module.__class__ = types.ModuleType


for _name in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _module = importlib.util.module_from_spec(_spec)
    _module.__class__ = _LazyModule
    _pending[_spec.name] = _spec
    sys.modules[_spec.name] = _module
del _name, _spec, _module


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is not None:
        value = getattr(sys.modules[f"{__name__}.{module}"], name)
    elif name in _EXPORTS:
        value = sys.modules[f"{__name__}.{name}"]
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
