"""Ceiling on the number of independently settable values of the package,
and the inventory of its process-wide caches.

The count is every non-help CLI flag of every subcommand, plus every
parameter with a default of each public function, each public method and
each ``__init__`` of a public class defined in the package modules.  Each
such value is one more configuration for the tests and the benchmark to
cover, so a value that no caller sets belongs in a constant.

Raise CEILING only in a change that adds an option and justifies it by two
callers that need different values; lower it when a change removes one.

A module-level ``functools.cache`` or ``lru_cache`` function keeps what it
returns for the life of the process, shared by every caller; CACHES lists
each one, so that adding or removing one is a visible change here.
"""

import argparse
import importlib
import inspect
import pkgutil

import conformal_hodge
from conformal_hodge import cli

CEILING = 84
CACHES = {
    "cli.build_parser",
    "dynamics._above_degree",
    "mapping._boundary_samples",
    "mapping._certified",
    "series.pair_constants",
}


def cli_flags():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [f"{name} {action.option_strings[0]}"
            for name, parser in sub.choices.items()
            for action in parser._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction)]


def _defaulted(qualname, fn):
    params = inspect.signature(fn).parameters.values()
    return [f"{qualname}({p.name})" for p in params if p.default is not inspect.Parameter.empty]


def package_modules():
    for info in pkgutil.iter_modules(conformal_hodge.__path__):
        yield info.name, importlib.import_module(f"conformal_hodge.{info.name}")


def module_caches():
    """The module-level functions that functools.cache or lru_cache wraps, as module.name."""
    return {f"{short}.{name}" for short, module in package_modules()
            for name, obj in vars(module).items()
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__}


def defaulted_parameters():
    found = []
    for short, module in package_modules():
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(inspect.unwrap(obj)):  # a cached function counts too
                found += _defaulted(f"{short}.{name}", obj)
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        found += _defaulted(f"{short}.{name}.{attr}", member)
    return found


def test_settable_values_within_ceiling():
    values = cli_flags() + defaulted_parameters()
    assert len(values) <= CEILING, "\n".join(values)


def test_count_covers_flags_and_parameters():
    # guards the counting rule itself against silently finding nothing
    assert "stationary --max-iter" in cli_flags()
    assert "dynamics.stationary_solve(max_iter)" in defaulted_parameters()
    assert "mapping.ConformalMap.__init__(validate)" in defaulted_parameters()
    assert "series.pair_constants(start)" in defaulted_parameters()


def test_process_wide_caches_are_the_listed_ones():
    assert module_caches() == CACHES
