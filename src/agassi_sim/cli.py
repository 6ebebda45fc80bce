"""Command-line interface for the experiment runner.

Subcommands map one-to-one onto the experiments; shared flags configure the
model and grids.  A YAML config file may supply any value, with command-line
flags taking precedence, e.g.::

    agassi-sim correlation --g 0.5 --v 1 --nt 5 --out corr.csv
    agassi-sim phase-sweep --config sweep.yaml --out sweep.csv
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

import yaml

from .experiments import EXPERIMENTS, ExperimentConfig, run
from .model import ModelParams

# Top-level keys a YAML config file may hold; each defaults the flag of the
# same name, and ``sweep`` holds the phase-sweep grid.
_CONFIG_KEYS = frozenset({
    "epsilon", "g", "v", "j", "nt", "tf", "samples", "init", "out", "trotter",
    "e1", "e2", "sweep",
})
_SWEEP_KEYS = frozenset({
    "start", "stop", "points", "sweep_start", "sweep_stop", "sweep_points",
})


class _Loader(yaml.SafeLoader):
    """Safe loader that reads ``1e-4`` as a float, as YAML 1.2 does (YAML 1.1
    needs a dot in the mantissa and would read it as a string), and refuses
    a mapping that gives a key twice instead of keeping the last value."""

    def construct_mapping(self, node, deep=False):
        keys = [self.construct_object(k, deep=deep) for k, _ in node.value
                if k.tag != "tag:yaml.org,2002:merge"]
        repeated = sorted({str(k) for k in keys if keys.count(k) > 1})
        if repeated:
            raise yaml.constructor.ConstructorError(
                None, None, f"key(s) {', '.join(repeated)} given twice", node.start_mark)
        return super().construct_mapping(node, deep)


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?[0-9][0-9_]*(?:\.[0-9_]*)?[eE][-+]?[0-9]+$"),
    list("-+0123456789"),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process from the experiment table."""
    parser = argparse.ArgumentParser(
        prog="agassi-sim",
        description="Run digital-simulation experiments for the four-site Agassi model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, experiment in EXPERIMENTS.items():
        p = sub.add_parser(experiment.command, help=f"run the {name} experiment")
        p.set_defaults(experiment=name)
        p.add_argument("--config", type=Path, help="YAML file with default values")
        p.add_argument("--epsilon", type=float, help="level splitting (energy unit), default 1")
        p.add_argument("--g", type=float, help="pairing strength, default 0")
        p.add_argument("--v", type=float, help="monopole strength, default 0")
        p.add_argument("--j", type=int, help="half-degeneracy, default 1")
        p.add_argument("--nt", type=int,
                       help="Trotter steps (for fidelity-steps: the largest step count)")
        p.add_argument("--tf", type=float,
                       help="final time in units 1/epsilon (default: (g+V) t spans [0,10])")
        p.add_argument("--samples", type=int, help="time-grid size, default 401")
        p.add_argument("--init", type=str,
                       help="initial spin pattern, e.g. dduu or the arrows, default dduu")
        p.add_argument("--out", type=str, help="output CSV / report path")
        if name == "correlation":
            group = p.add_mutually_exclusive_group()
            group.add_argument("--trotter", dest="trotter", action="store_true",
                               default=None, help="include the digital curve (default)")
            group.add_argument("--exact-only", dest="trotter", action="store_false",
                               help="skip the digital curve")
        if name == "phase_sweep":
            p.add_argument("--sweep-start", type=float, help="first g=V value, default 0")
            p.add_argument("--sweep-stop", type=float, help="last g=V value, default 1")
            p.add_argument("--sweep-points", type=int, help="grid size, default 101")
        if name == "compile_report":
            p.add_argument("--e1", type=float, help="single-qubit gate error, default 1e-4")
            p.add_argument("--e2", type=float, help="two-qubit gate error, default 1e-3")
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
    with open(path) as fh:
        try:
            data = yaml.load(fh, Loader=_Loader) or {}
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
        both = [f"{k} and sweep_{k}" for k in ("start", "stop", "points")
                if k in sweep and f"sweep_{k}" in sweep]
        if both:
            raise ValueError(f"'sweep' of config file {path} gives {'; '.join(both)}; "
                             "use one spelling")
    return data


def _value(args, file_cfg: dict, key: str, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in file_cfg and file_cfg[key] is not None:
        return file_cfg[key]
    return default


def _integer(value, key: str) -> int:
    """An integral number as an int; anything else is refused, naming the key."""
    if type(value) is not int and not (type(value) is float and value.is_integer()):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _real(value, key: str) -> float:
    """A real number as a float; a bool, a string or a collection is refused,
    naming the key."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{key} is out of range, got {value!r}") from None


def _text(value, key: str) -> str:
    """A string; anything else is refused, naming the key."""
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    file_cfg = _load_config(getattr(args, "config", None))
    sweep_cfg = file_cfg.get("sweep") or {}
    trotter = _value(args, file_cfg, "trotter", True)
    if not isinstance(trotter, bool):
        raise ValueError(f"trotter must be true or false, got {trotter!r}")

    def value(key: str, default, check=_real):
        found = _value(args, file_cfg, key, default)
        return None if found is None else check(found, key)

    def sweep(key: str, default, check=_real):
        # flag --sweep-<key>, or the file's sweep.sweep_<key> or sweep.<key>
        name = f"sweep_{key}"
        return check(_value(args, sweep_cfg, name, sweep_cfg.get(key, default)),
                     f"sweep.{name}" if name in sweep_cfg else f"sweep.{key}")

    params = ModelParams(
        epsilon=value("epsilon", 1.0), g=value("g", 0.0), V=value("v", 0.0),
        j=value("j", 1, _integer),
    )
    return ExperimentConfig(
        experiment=args.experiment,
        params=params,
        n_T=value("nt", 5, _integer),
        t_final=value("tf", None),
        samples=value("samples", 401, _integer),
        initial_state=value("init", "dduu", _text),
        sweep_start=sweep("start", 0.0),
        sweep_stop=sweep("stop", 1.0),
        sweep_points=sweep("points", 101, _integer),
        e1=value("e1", 1e-4),
        e2=value("e2", 1e-3),
        trotter=trotter,
        out=value("out", None, _text),
    )


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
