"""clutterkit: exact algebra of clutters (Sperner families).

Blocker computation, the deletion/contraction minor algebra, join/meet
lattice operations, semi-matching and matching-minor machinery with a
constructive extraction procedure, a blocker-size bound for bounded-rank
matching-minor-free clutters, and Set Cover / SAT solvers that read their
answers from the blocker.

`import clutterkit` runs `core`, `errors` and `blocker`, which every
subcommand runs.  It registers the other submodules in `sys.modules` and
on the package without running them: a registered module runs its code at
the first read of any of its attributes, so a one-shot command compiles
only the modules it uses.
"""
import sys
import threading
from importlib import import_module
from importlib.util import find_spec, module_from_spec
from types import ModuleType

# each public name, under the submodule that defines it
_EXPORTS = {
    "core": ("Clutter", "Edge", "ONE", "ZERO"),
    "errors": ("InfeasibleInstanceError", "NotInClassError", "ParseError",
               "ResourceLimitError"),
    "blocker": ("blocker", "is_transversal", "maximal_independent_sets"),
    "matching": ("ConflictGraph", "MinorWitness", "SemiMatching", "build_conflict_graph",
                 "enumerate_semi_matchings", "expansion", "extend_semi_matching",
                 "extract_minor_matching", "find_kk2_minor", "greedy_independent_set",
                 "is_expanded_minor_matching", "is_k_matching", "is_semi_matching",
                 "matching_to_minor"),
    "bounds": ("BoundParams", "BoundReport", "blocker_size_bound", "class_membership",
               "verify_bound"),
    "reductions": ("Assignment", "CnfFormula", "MonotoneOracle", "SetCoverInstance",
                   "cnf_to_clutter", "satisfies", "setcover_to_clutter", "solve_sat",
                   "solve_setcover"),
    "generate": ("kk2", "random_clutter", "staircase"),
    "formats": ("format_semi_matching", "parse_clutter", "parse_dimacs",
                "parse_semi_matching", "parse_setcover", "serialize_clutter"),
    "laws": ("LawResult", "run_law_suite"),
}
_AT_IMPORT = ("core", "errors", "blocker")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

# held while a registered module's code runs, so that one thread runs it
# and the others wait for it to finish
_LOCK = threading.RLock()
_RUNNING = set()


class _LazyModule(ModuleType):
    """A registered submodule whose code has not run yet.

    The first read of any attribute runs the code, holding `_LOCK`, and
    only then makes the module a plain module: a thread that reads it in
    the meantime waits for the lock rather than seeing a module half made.
    A read by the running code itself, or by the loader, sees the module
    as it stands.
    """

    def __getattribute__(self, attr):
        with _LOCK:
            if type(self) is _LazyModule and self not in _RUNNING:
                _RUNNING.add(self)
                try:
                    ModuleType.__getattribute__(self, "__spec__").loader.exec_module(self)
                    self.__class__ = ModuleType
                finally:
                    _RUNNING.discard(self)
        return ModuleType.__getattribute__(self, attr)


def __getattr__(name):
    """A public name, read from its submodule and bound on the package (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted(globals().keys() | _HOME.keys())


def _register(module):
    """Put the submodule in `sys.modules` and on the package without running it."""
    spec = find_spec(f"{__name__}.{module}")
    lazy = sys.modules[spec.name] = module_from_spec(spec)
    lazy.__class__ = _LazyModule
    globals()[module] = lazy


for _module in _EXPORTS:
    if _module in _AT_IMPORT:
        import_module(f".{_module}", __name__)
    else:
        _register(_module)
# binds `blocker` to the function, in place of the submodule
for _name in __all__:
    if _HOME[_name] in _AT_IMPORT:
        __getattr__(_name)
del _module, _name
