"""Declarative run configuration: built-in profiles, files, flag overrides.

A config is a nested dict; built-in profiles ship in code (and as YAML in
configs/ for reference), a --config file deep-merges over the profile, and
--set key.path=value flags merge last. The effective config is echoed into
every report so a run can be reproduced from its outputs alone.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from pathlib import Path
from typing import Mapping

import yaml

from .channel_sim import ChannelConfig, QscoreModel
from .clustering_llr import derive_crossover
from .fountain import SolitonParams
from .pipeline import PipelineParams


class ConfigError(ValueError):
    pass


@contextmanager
def user_input(source: str):
    """Raise a bad value met in the block as a ConfigError that names its source.

    Wraps code that reads a config section or a user's input file, so that a
    missing key or a rejected value is reported as a config error and every
    other ValueError stays an internal one.
    """
    try:
        yield
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{source}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def _deep_merge(base: dict, extra: Mapping) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, Mapping) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


PROFILES: dict[str, dict] = {}
PROFILES["desk-scale"] = {
    "profile": "desk-scale",
    "code": {
        # c is lowered from the paper-scale 0.025 so that the required
        # symbol count stays below the coded count at k=1000
        "k": 1000,
        "coded_count": 1122,
        "soliton_c": 0.01,
        "soliton_delta": 0.001,
    },
    "channel": {
        "sub_rate": 8.352e-4,
        "ins_rate": 8.72e-6,
        "del_rate": 8.72e-6,
        "abundance_sigma": 0.6,
        "rng_seed": 0,
        "qmodel": {
            "q_correct_mean": 37.0,
            "q_error_mean": 15.0,
            "q_spread": 3.0,
            "p_err_high_q": 0.02,
        },
    },
    "decode": {
        "n_re": 3,
        "llr_mode": "proposed",
        "redecoding": True,
        "crossover_p": None,
        "bp_max_iter": 500,
        "llr_clip": 30.0,
    },
    "experiment": {
        "total_reads": 24000,
        "sampling_points": [6600, 7200, 7800, 8400, 9000, 9600],
        "trials": 20,
        "rng_seed": 0,
    },
    "report": {"omit_timing": False},
}

PROFILES["paper-scale"] = _deep_merge(
    PROFILES["desk-scale"],
    {
        "profile": "paper-scale",
        "code": {"k": 16050, "coded_count": 18000, "soliton_c": 0.025},
        "experiment": {
            "total_reads": 120000,
            "sampling_points": [72000, 76000, 80000, 84000, 88000],
            "trials": 50,
        },
    },
)


def _apply_override(cfg: dict, spec: str) -> None:
    if "=" not in spec:
        raise ConfigError(f"override must look like key.path=value, got {spec!r}")
    path, raw = spec.split("=", 1)
    value = yaml.safe_load(raw)
    node = cfg
    keys = path.split(".")
    for key in keys[:-1]:
        nxt = node.get(key)
        if not isinstance(nxt, dict):
            nxt = {}
            node[key] = nxt
        node = nxt
    node[keys[-1]] = value


def load_config(
    profile: str | None = None,
    path: str | Path | None = None,
    overrides: list[str] | None = None,
) -> dict:
    """Resolve profile -> file -> overrides into one effective config dict.

    The profile is `profile`, else the one a file's `profile:` key names,
    else desk-scale; it must be a built-in profile, and a file's key must
    agree with `profile` when both are given.
    """
    loaded: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                loaded = yaml.safe_load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError("config file must contain a mapping")
        named = loaded.get("profile")
        if profile is not None and named is not None and named != profile:
            raise ConfigError(f"config file names profile {named!r} but the run uses {profile!r}")
        profile = profile if profile is not None else named
    if profile is None:
        profile = "desk-scale"
    if not isinstance(profile, str) or profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}; available: {sorted(PROFILES)}")
    cfg = _deep_merge(PROFILES[profile], loaded)
    for spec in overrides or []:
        _apply_override(cfg, spec)
    return cfg


@user_input("code config")
def soliton_from(cfg: Mapping) -> SolitonParams:
    code = cfg["code"]
    return SolitonParams(
        k=int(code["k"]),
        c=float(code["soliton_c"]),
        delta=float(code["soliton_delta"]),
    )


@user_input("channel config")
def channel_from(cfg: Mapping) -> ChannelConfig:
    ch = cfg["channel"]
    qm = ch["qmodel"]
    return ChannelConfig(
        sub_rate=float(ch["sub_rate"]),
        ins_rate=float(ch["ins_rate"]),
        del_rate=float(ch["del_rate"]),
        abundance_sigma=float(ch["abundance_sigma"]),
        qmodel=QscoreModel(
            q_correct_mean=float(qm["q_correct_mean"]),
            q_error_mean=float(qm["q_error_mean"]),
            q_spread=float(qm["q_spread"]),
            p_err_high_q=float(qm["p_err_high_q"]),
        ),
        rng_seed=int(ch["rng_seed"]),
    )


@user_input("decode config")
def pipeline_params_from(
    cfg: Mapping,
    llr_mode: str | None = None,
    redecoding: bool | None = None,
    decoder: str | None = None,
) -> PipelineParams:
    dec = cfg["decode"]
    crossover = dec["crossover_p"]
    mode = llr_mode if llr_mode is not None else dec["llr_mode"]
    if crossover is None and mode == "chandak":
        # heuristic default: per-bit crossover implied by the channel profile
        crossover = derive_crossover(float(cfg["channel"]["sub_rate"]))
    return PipelineParams(
        soliton=soliton_from(cfg),
        n_re=int(dec["n_re"]),
        llr_mode=mode,
        redecoding_enabled=redecoding if redecoding is not None else bool(dec["redecoding"]),
        crossover_p=crossover,
        bp_max_iter=int(dec["bp_max_iter"]),
        llr_clip=float(dec["llr_clip"]),
        # the profiles name no decoder: soft unless a file or --set names one
        decoder=decoder if decoder is not None else dec.get("decoder", "soft"),
    )
