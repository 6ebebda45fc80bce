"""Command-line interface for the experiment runner.

Subcommands map one-to-one onto the experiments; shared flags configure the
model and grids.  A YAML config file may supply any value, with command-line
flags taking precedence; yaml is imported only when ``--config`` is given,
so importing this module and every run without a config file leave it
unloaded.  For example::

    agassi-sim correlation --g 0.5 --v 1 --nt 5 --out corr.csv
    agassi-sim phase-sweep --config sweep.yaml --out sweep.csv
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from collections import namedtuple
from dataclasses import fields
from pathlib import Path

from .checks import boolean, integer, real, text
from .experiments import EXPERIMENTS, ExperimentConfig, run
from .model import ModelParams


def _integer(value, key: str) -> int:
    """An integral number as an int: a config file's ``2.0`` is read as 2."""
    if type(value) is float and value.is_integer():
        value = int(value)
    return integer(value, key)


# Each option is one row: its config-file key, also its flag (``_`` spelled
# ``-``); the ModelParams or ExperimentConfig field it sets, whose default
# holds unless a flag or the file gives it; its check; the experiment whose
# subcommand offers the flag (None: all); and the flag's help.
_Option = namedtuple("_Option", "key field check command help")
_OPTIONS = (  # in flag order
    _Option("epsilon", "epsilon", real, None, "level splitting (energy unit), default 1"),
    _Option("g", "g", real, None, "pairing strength, default 0"),
    _Option("v", "V", real, None, "monopole strength, default 0"),
    _Option("j", "j", _integer, None, "half-degeneracy, default 1"),
    _Option("nt", "n_T", _integer, None,
            "Trotter steps (for fidelity-steps: the largest step count)"),
    _Option("tf", "t_final", real, None,
            "final time in units 1/epsilon (default: (g+V) t spans [0,10])"),
    _Option("samples", "samples", _integer, None, "time-grid size, default 401"),
    _Option("init", "initial_state", text, None,
            "initial spin pattern, e.g. dduu or the arrows, default 'd'*2j + 'u'*2j "
            "(dduu at j=1)"),
    _Option("out", "out", text, None, "output CSV / report path"),
    _Option("trotter", "trotter", boolean, "correlation", "include the digital curve (default)"),
    _Option("e1", "e1", real, "compile_report", "single-qubit gate error, default 1e-4"),
    _Option("e2", "e2", real, "compile_report", "two-qubit gate error, default 1e-3"),
)
# The grid under ``sweep`` in a config file, each key also spelled without ``sweep_``.
_SWEEP_OPTIONS = (
    _Option("sweep_start", "sweep_start", real, "phase_sweep", "first g=V value, default 0"),
    _Option("sweep_stop", "sweep_stop", real, "phase_sweep", "last g=V value, default 1"),
    _Option("sweep_points", "sweep_points", _integer, "phase_sweep", "grid size, default 101"),
)
_SWEEP_ALIAS = {o.key: o.key.removeprefix("sweep_") for o in _SWEEP_OPTIONS}
_CONFIG_KEYS = frozenset({o.key for o in _OPTIONS} | {"sweep"})
_SWEEP_KEYS = frozenset(_SWEEP_ALIAS) | frozenset(_SWEEP_ALIAS.values())
_FLAG_TYPE = {real: float, _integer: int, text: str}


@functools.cache
def _yaml_loader() -> type:
    """The config file's loader, built on first use, so that a run without
    ``--config`` never imports yaml.  A safe loader that reads ``1e-4`` as a
    float, as YAML 1.2 does (YAML 1.1 needs a dot in the mantissa and would
    read it as a string), and refuses a mapping that gives a key twice
    instead of keeping the last value."""
    import yaml

    class Loader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            keys = [self.construct_object(k, deep=deep) for k, _ in node.value
                    if k.tag != "tag:yaml.org,2002:merge"]
            repeated = sorted({str(k) for k in keys if keys.count(k) > 1})
            if repeated:
                raise yaml.constructor.ConstructorError(
                    None, None, f"key(s) {', '.join(repeated)} given twice", node.start_mark)
            return super().construct_mapping(node, deep)

    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?[0-9][0-9_]*(?:\.[0-9_]*)?[eE][-+]?[0-9]+$"),
        list("-+0123456789"),
    )
    return Loader


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process from the experiment and option tables."""
    parser = argparse.ArgumentParser(
        prog="agassi-sim",
        description="Run digital-simulation experiments for the four-site Agassi model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, experiment in EXPERIMENTS.items():
        p = sub.add_parser(experiment.command, help=f"run the {name} experiment")
        p.set_defaults(experiment=name)
        p.add_argument("--config", type=Path, help="YAML file with default values")
        for option in _OPTIONS + _SWEEP_OPTIONS:
            if option.command not in (None, name):
                continue
            if option.key == "trotter":
                group = p.add_mutually_exclusive_group()
                group.add_argument("--trotter", action="store_true", default=None, help=option.help)
                group.add_argument("--exact-only", dest="trotter", action="store_false",
                                   help="skip the digital curve")
            else:
                p.add_argument("--" + option.key.replace("_", "-"),
                               type=_FLAG_TYPE[option.check], help=option.help)
    return parser


def _reject_unknown(mapping: dict, allowed: frozenset, where: str) -> None:
    unknown = sorted(str(k) for k in mapping if k not in allowed)
    if unknown:
        raise ValueError(
            f"unknown key(s) {', '.join(unknown)} in {where}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _load_config(path: Path | None) -> dict:
    if path is None:
        return {}
    import yaml

    with open(path) as fh:
        try:
            data = yaml.load(fh, Loader=_yaml_loader()) or {}
        except yaml.YAMLError as exc:
            raise ValueError(f"config file {path} is not valid YAML: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a mapping")
    _reject_unknown(data, _CONFIG_KEYS, f"config file {path}")
    sweep = data.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict):
            raise ValueError(f"'sweep' in config file {path} must hold a mapping")
        _reject_unknown(sweep, _SWEEP_KEYS, f"'sweep' of config file {path}")
        both = [f"{short} and {key}" for key, short in _SWEEP_ALIAS.items()
                if short in sweep and key in sweep]
        if both:
            raise ValueError(f"'sweep' of config file {path} gives {'; '.join(both)}; "
                             "use one spelling")
    return data


def _file_values(file_cfg: dict):
    """Each option with its config-file value (None when absent) and the name
    the file gives it, such as ``sweep.points``."""
    for option in _OPTIONS:
        yield option, file_cfg.get(option.key), option.key
    sweep = file_cfg.get("sweep") or {}
    for option in _SWEEP_OPTIONS:
        key = option.key if option.key in sweep else _SWEEP_ALIAS[option.key]
        yield option, sweep.get(key), f"sweep.{key}"


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Each option's flag, else its config-file value, else (given neither
    way) the default of its dataclass field."""
    given = {}
    for option, in_file, name in _file_values(_load_config(getattr(args, "config", None))):
        value = getattr(args, option.key, None)
        value = in_file if value is None else value
        if value is not None:
            given[option.field] = option.check(value, name)
    model = {f.name: given.pop(f.name) for f in fields(ModelParams) if f.name in given}
    return ExperimentConfig(args.experiment, ModelParams(**model), **given)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        if cfg.out is None:
            parser.error("--out is required (flag or config file)")
        outputs = run(cfg)
    except (ValueError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    for path in outputs:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
