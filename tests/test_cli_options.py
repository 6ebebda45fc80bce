"""The CLI option tables: every config field has one row, each subcommand
offers exactly the flags of its rows, and the same values given as flags, as
a YAML config file, or as a file overridden by flags build the same
ExperimentConfig, with every option given neither way at its dataclass
default."""

import argparse
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from agassi_sim import cli
from agassi_sim.experiments import EXPERIMENTS, ExperimentConfig
from agassi_sim.model import ModelParams

ROWS = cli._OPTIONS + cli._SWEEP_OPTIONS
MODEL_FIELDS = [f.name for f in fields(ModelParams)]
RUN_FIELDS = [f.name for f in fields(ExperimentConfig) if f.name not in ("experiment", "params")]

_finite = dict(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, **_finite)

# Values from each option's valid range.  The sweep bounds keep clear of the
# other bound's default (start 0, stop 1), so any subset of them is valid.
VALUES = {
    "epsilon": _positive,
    "g": st.floats(**_finite),
    "v": st.floats(**_finite),
    "j": st.integers(1, 3),
    "nt": st.integers(1, 10**6),
    "tf": _positive,
    "samples": st.integers(2, 4096),  # 4096 * 2^12 is the size limit at j = 3
    "init": st.text("ud", min_size=1, max_size=12),
    "out": st.from_regex(r"[a-z]{1,8}\.csv", fullmatch=True),
    "trotter": st.booleans(),
    "e1": st.floats(0.0, 1.0),
    "e2": st.floats(0.0, 1.0),
    "sweep_start": st.floats(max_value=0.0, exclude_max=True, **_finite),
    "sweep_stop": st.floats(min_value=1.0, **_finite),
    "sweep_points": st.integers(2, 10**6),
}


def _offers(name: str, row) -> bool:
    return row.command in (None, name)


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = cli._build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _argv(name: str, values: dict) -> list[str]:
    argv = [EXPERIMENTS[name].command]
    for key, value in values.items():
        if key == "trotter":
            argv.append("--trotter" if value else "--exact-only")
        else:
            text = repr(value) if isinstance(value, float) else str(value)
            argv.append(f"--{key.replace('_', '-')}={text}")
    return argv


def _write_config(path: Path, values: dict, short_sweep_keys: bool) -> Path:
    data = {k: v for k, v in values.items() if k not in cli._SWEEP_ALIAS}
    sweep = {cli._SWEEP_ALIAS[k] if short_sweep_keys else k: v
             for k, v in values.items() if k in cli._SWEEP_ALIAS}
    if sweep:
        data["sweep"] = sweep
    path.write_text(yaml.safe_dump(data))
    return path


def _config(argv: list[str]) -> ExperimentConfig:
    return cli.config_from_args(cli._build_parser().parse_args(argv))


@st.composite
def _runs(draw):
    """A subcommand, the values given by flags (only flags it offers), the
    values given by the config file, and the spelling of its sweep keys."""
    name = draw(st.sampled_from(list(EXPERIMENTS)))

    def values(rows):
        chosen = draw(st.lists(st.sampled_from([row.key for row in rows]), unique=True))
        drawn = {key: draw(VALUES[key]) for key in chosen}
        if name == "phase_sweep" and "j" in drawn:
            drawn["j"] = 1  # the sweep runs the j = 1 model
        return drawn

    flags, in_file = values([row for row in ROWS if _offers(name, row)]), values(ROWS)
    # a pattern needs 4 letters per j of the run it is given to: flags that give
    # one also give the file's j, and each pattern is repeated or cut to fit
    if "init" in flags:
        flags.setdefault("j", in_file.get("j", 1))
    j = {**in_file, **flags}.get("j", 1)
    for drawn in (flags, in_file):
        if "init" in drawn:
            drawn["init"] = (drawn["init"] * 12)[:4 * j]
    return name, flags, in_file, draw(st.booleans())


class TestOptionTable:
    def test_every_field_has_exactly_one_row(self):
        assert sorted(row.field for row in ROWS) == sorted(MODEL_FIELDS + RUN_FIELDS)

    def test_every_row_has_a_value_strategy(self):
        assert sorted(VALUES) == sorted(row.key for row in ROWS)

    def test_whitelists_come_from_the_rows(self):
        assert cli._CONFIG_KEYS == {row.key for row in cli._OPTIONS} | {"sweep"}
        assert cli._SWEEP_KEYS == {k for row in cli._SWEEP_OPTIONS
                                   for k in (row.key, row.key.removeprefix("sweep_"))}

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_each_subcommand_offers_exactly_its_rows(self, name):
        subcommand = _subcommands()[EXPERIMENTS[name].command]
        offered = {flag for action in subcommand._actions for flag in action.option_strings}
        expected = {"--" + row.key.replace("_", "-") for row in ROWS if _offers(name, row)}
        if "--trotter" in expected:
            expected.add("--exact-only")
        assert offered - {"-h", "--help", "--config"} == expected


def _assert_given_or_default(config: ExperimentConfig, name: str, values: dict) -> None:
    """Each field holds the value given for its option, or else its default."""
    given = {row.field: values[row.key] for row in ROWS if row.key in values}
    model_defaults = ModelParams()
    run_defaults = ExperimentConfig(name, params=ModelParams(j=config.params.j))
    for field in MODEL_FIELDS:
        assert getattr(config.params, field) == given.get(field, getattr(model_defaults, field))
    for field in RUN_FIELDS:
        assert getattr(config, field) == given.get(field, getattr(run_defaults, field))


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(_runs())
    def test_flags_file_and_override_agree(self, run):
        name, flags, in_file, short_sweep_keys = run
        with tempfile.TemporaryDirectory() as tmp:
            def from_file(stem, values, flag_values={}):
                path = _write_config(Path(tmp) / f"{stem}.yaml", values, short_sweep_keys)
                return _config(_argv(name, flag_values) + ["--config", str(path)])

            only_flags = _config(_argv(name, flags))
            only_file = from_file("flags", flags)
            overridden = from_file("base", in_file, flags)
            merged = from_file("merged", {**in_file, **flags})
        assert only_flags == only_file
        assert overridden == merged
        _assert_given_or_default(only_flags, name, flags)
        _assert_given_or_default(overridden, name, {**in_file, **flags})
