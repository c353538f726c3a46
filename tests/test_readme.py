"""The README names every rule a user meets: each CLI flag, each config key
(old ones still accepted included), each decoder kind with its keys, and each
metric, in code form (a backticked span or a code block)."""
import re
from pathlib import Path

import pytest

from divtraj.cli import build_parser
from divtraj.decoders import _KINDS
from divtraj.dpp import KernelConfig
from divtraj.energy import EnergyConfig
from divtraj.synth import CrossroadConfig
from divtraj.trajectory import METRIC_NAMES
from divtraj.training import TrainConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def _code_words() -> set:
    """Every word (letters, digits, `_` and `-`) of the README's code blocks
    and inline code spans."""
    text = README.read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.S | re.M)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```", "", text, flags=re.S | re.M))
    return set(re.findall(r"[\w-]+", " ".join(blocks + spans)))


def _flags() -> set:
    subcommands = next(a for a in build_parser()._actions if a.dest == "command").choices.values()
    return {flag for sub in subcommands for a in sub._actions for flag in a.option_strings} - {"-h", "--help"}


NAMES = {
    "flags": _flags(),
    "gen-data config": set(CrossroadConfig.__dataclass_fields__),
    "train config": {*TrainConfig.__dataclass_fields__, "decoder"},
    "kernel config": {*KernelConfig.__dataclass_fields__, "latent_dim"},
    "energy config": set(EnergyConfig.__dataclass_fields__),
    "decoder kinds": set(_KINDS),
    **{f"{kind} decoder keys": set(fields) for kind, (_, fields) in _KINDS.items()},
    "metrics": set(METRIC_NAMES),
}


@pytest.mark.parametrize("what", NAMES)
def test_readme_names_every_user_visible_name(what):
    assert NAMES[what], what  # a parser or a table that reads empty checks nothing
    assert sorted(NAMES[what] - _code_words()) == []
