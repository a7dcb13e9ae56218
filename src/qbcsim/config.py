"""Line-oriented key=value configuration files for simulation runs.

The format is deliberately flat: section headers in brackets, one key=value
pair per line, '#' comments.  An [experiment] section may repeat, once per
experiment block, and at least one is required; [output] is optional.  Unknown
sections or keys, bad values (a sweep must be finite with s_min >= 0; N_S and
N_Z finite and > 0; M >= 1; sfg_tau finite and > 0 with sfg_tau N_Z <= 0.1 and
sfg_tau (1 + N_Z) < 1; sfg_capture_eps in (0, 1); a boolean
include_thermal_residual), SFG tunables outside an SFG experiment, unsupported
receiver/alphabet pairs (PA with QPSK), experiment names that are not safe
file stems or repeat an earlier name, and bytes that are not UTF-8 are rejected
with file:line diagnostics.

Example::

    [experiment]
    name = sfg-bpsk
    receiver = sfg
    alphabet = bpsk
    N_S = 0.01
    N_Z = 100
    M = 10000
    sweep = 1:3:5
    trials = 100000
    seed = 42

    [output]
    directory = out
    format = csv
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .link import AlphabetKind
from .montecarlo import ExperimentConfig
from .receivers import ReceiverKind, ReceiverSpec

DEFAULT_SEED = 20210405  # fixed default; never wall-clock


class ConfigError(ValueError):
    """Schema violation carrying file and line information."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


def parse_sweep(text: str) -> tuple[float, ...]:
    """Parse 's_min:s_max:n' into n evenly spaced sweep points, 0 <= s_min."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"sweep must be 's_min:s_max:n', got {text!r}")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"sweep endpoints must be finite, got {text!r}")
    if lo < 0:
        raise ValueError(f"sweep needs s_min >= 0, got {lo:g}")
    if n < 1:
        raise ValueError("sweep needs at least one point")
    if n == 1:
        return (lo,)
    if hi <= lo:
        raise ValueError("sweep needs s_max > s_min")
    step = (hi - lo) / (n - 1)
    return tuple(lo + k * step for k in range(n))


@dataclass
class RunConfig:
    """Parsed configuration: named experiments plus output settings."""

    experiments: list[tuple[str, ExperimentConfig]] = field(default_factory=list)
    output_directory: Path = Path(".")
    output_format: str = "csv"


#: receiver tunables that only the sfg receiver reads
_SFG_KEYS = ("sfg_tau", "sfg_capture_eps", "include_thermal_residual")
_EXPERIMENT_KEYS = {
    "name",
    "receiver",
    "alphabet",
    "N_S",
    "N_Z",
    "M",
    "sweep",
    "trials",
    "seed",
    *_SFG_KEYS,
}
_OUTPUT_KEYS = {"directory", "format"}
#: experiment names become output file stems; summary.json is the run summary
_SAFE_NAME = re.compile(r"(?!summary$)[A-Za-z0-9][A-Za-z0-9._-]*")

_RECEIVERS = {k.value: k for k in ReceiverKind}
_ALPHABETS = {
    "pam": AlphabetKind.PAM,
    "ook": AlphabetKind.PAM,
    "bpsk": AlphabetKind.BPSK,
    "qpsk": AlphabetKind.QPSK,
}


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _build_experiment(path: str, line: int, raw: dict) -> tuple[str, ExperimentConfig]:
    for key in ("receiver", "alphabet", "N_S", "N_Z", "M", "sweep", "trials"):
        if key not in raw:
            raise ConfigError(path, line, f"experiment is missing required key '{key}'")
    try:
        receiver_kind = _RECEIVERS[raw["receiver"].strip().lower()]
    except KeyError:
        raise ConfigError(
            path, raw["_lines"]["receiver"], f"unknown receiver {raw['receiver']!r}"
        ) from None
    try:
        alphabet = _ALPHABETS[raw["alphabet"].strip().lower()]
    except KeyError:
        raise ConfigError(
            path, raw["_lines"]["alphabet"], f"unknown alphabet {raw['alphabet']!r}"
        ) from None
    for key in sorted(set(_SFG_KEYS) & raw.keys(), key=raw["_lines"].get):
        if receiver_kind is not ReceiverKind.SFG:
            raise ConfigError(path, raw["_lines"][key], f"'{key}' applies only to the sfg receiver")
    try:
        spec = ReceiverSpec(
            kind=receiver_kind,
            sfg_tau=float(raw["sfg_tau"]) if "sfg_tau" in raw else None,
            sfg_capture_eps=float(raw.get("sfg_capture_eps", 1e-3)),
            include_thermal_residual=_parse_bool(raw.get("include_thermal_residual", "false")),
        )
        cfg = ExperimentConfig(
            alphabet_kind=alphabet,
            receiver=spec,
            N_S=float(raw["N_S"]),
            N_Z=float(raw["N_Z"]),
            M=int(raw["M"]),
            sweep=parse_sweep(raw["sweep"]),
            trials_per_point=int(raw["trials"]),
            master_seed=int(raw.get("seed", DEFAULT_SEED)),
        )
    except (ValueError, ArithmeticError) as exc:  # a huge integer M overflows a float
        raise ConfigError(path, line, str(exc)) from None
    name = raw.get("name", f"experiment{line}")
    if not _SAFE_NAME.fullmatch(name):
        raise ConfigError(path, raw["_lines"]["name"], f"experiment name {name!r} is not a "
                          "file stem of letters, digits, '.', '_', '-' other than 'summary'")
    return name, cfg


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a run configuration file."""
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bad byte's line, counted as splitlines counts them below
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ConfigError(str(path), line, f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    cfg = RunConfig()
    section = None
    section_line = 0
    raw: dict = {}

    def close_section():
        nonlocal raw
        if section == "experiment":
            name, exp = _build_experiment(str(path), section_line, raw)
            if any(name == other for other, _ in cfg.experiments):
                raise ConfigError(str(path), section_line, f"duplicate experiment name {name!r}")
            cfg.experiments.append((name, exp))
        elif section == "output":
            cfg.output_directory = Path(raw.get("directory", "."))
            fmt = raw.get("format", "csv").strip().lower()
            if fmt not in ("csv", "json"):
                raise ConfigError(
                    str(path), raw["_lines"].get("format", section_line),
                    f"output format must be csv or json, got {fmt!r}",
                )
            cfg.output_format = fmt
        raw = {}

    allowed = {"experiment": _EXPERIMENT_KEYS, "output": _OUTPUT_KEYS}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            if section is not None:
                close_section()
            section = line[1:-1].strip().lower()
            section_line = lineno
            if section not in allowed:
                raise ConfigError(str(path), lineno, f"unknown section [{section}]")
            raw = {"_lines": {}}
            continue
        if section is None:
            raise ConfigError(str(path), lineno, "key outside any section")
        if "=" not in line:
            raise ConfigError(str(path), lineno, f"expected key = value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in allowed[section]:
            raise ConfigError(str(path), lineno, f"unknown key '{key}' in section [{section}]")
        if key in raw:
            raise ConfigError(str(path), lineno, f"duplicate key '{key}'")
        raw[key] = value
        raw["_lines"][key] = lineno
    if section is not None:
        close_section()
    if not cfg.experiments:
        raise ConfigError(str(path), 1, "configuration defines no experiment")
    return cfg
