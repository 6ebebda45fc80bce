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
        data = yaml.safe_load(fh) or {}
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a mapping")
    _reject_unknown(data, _CONFIG_KEYS, f"config file {path}")
    sweep = data.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict):
            raise ValueError(f"'sweep' in config file {path} must hold a mapping")
        _reject_unknown(sweep, _SWEEP_KEYS, f"'sweep' of config file {path}")
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


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    file_cfg = _load_config(getattr(args, "config", None))
    sweep_cfg = file_cfg.get("sweep") or {}
    trotter = _value(args, file_cfg, "trotter", True)
    if not isinstance(trotter, bool):
        raise ValueError(f"trotter must be true or false, got {trotter!r}")
    params = ModelParams(
        epsilon=float(_value(args, file_cfg, "epsilon", 1.0)),
        g=float(_value(args, file_cfg, "g", 0.0)),
        V=float(_value(args, file_cfg, "v", 0.0)),
        j=_integer(_value(args, file_cfg, "j", 1), "j"),
    )
    tf = _value(args, file_cfg, "tf", None)
    return ExperimentConfig(
        experiment=args.experiment,
        params=params,
        n_T=_integer(_value(args, file_cfg, "nt", 5), "nt"),
        t_final=None if tf is None else float(tf),
        samples=_integer(_value(args, file_cfg, "samples", 401), "samples"),
        initial_state=str(_value(args, file_cfg, "init", "dduu")),
        sweep_start=float(_value(args, sweep_cfg, "sweep_start",
                                 sweep_cfg.get("start", 0.0))),
        sweep_stop=float(_value(args, sweep_cfg, "sweep_stop",
                                sweep_cfg.get("stop", 1.0))),
        sweep_points=_integer(
            _value(args, sweep_cfg, "sweep_points", sweep_cfg.get("points", 101)),
            "sweep.sweep_points" if "sweep_points" in sweep_cfg else "sweep.points"),
        e1=float(_value(args, file_cfg, "e1", 1e-4)),
        e2=float(_value(args, file_cfg, "e2", 1e-3)),
        trotter=trotter,
        out=_value(args, file_cfg, "out", None),
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
