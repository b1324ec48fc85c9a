"""Ceiling on the number of independently settable values of the package.

The count is every non-help CLI flag of every subcommand, plus every
parameter with a default of each public function, each public method and
each ``__init__`` of a public class defined in the package modules.  Each
such value is one more configuration for the tests and the benchmark to
cover, so a value that no caller sets belongs in a constant.

Raise CEILING only in a change that adds an option and justifies it by two
callers that need different values; lower it when a change removes one.
"""

import argparse
import importlib
import inspect
import pkgutil

import conformal_hodge
from conformal_hodge import cli

CEILING = 89


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


def defaulted_parameters():
    found = []
    for info in pkgutil.iter_modules(conformal_hodge.__path__):
        module = importlib.import_module(f"conformal_hodge.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(inspect.unwrap(obj)):  # a cached function counts too
                found += _defaulted(f"{info.name}.{name}", obj)
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        found += _defaulted(f"{info.name}.{name}.{attr}", member)
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
