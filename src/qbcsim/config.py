"""Line-oriented key=value configuration files for simulation runs.

The format is deliberately flat: section headers in brackets, one key=value
pair per line, '#' comments; a leading UTF-8 byte-order mark is ignored.  An
[experiment] section may repeat, once per experiment block, and at least one
is required; [output] is optional and appears at most once.  The whole file is
read into sections before any experiment is built, so a malformed line is
reported before a bad value in an earlier section.  Unknown sections or keys,
bad values (a sweep must be finite with s_min >= 0; N_S and N_Z finite and
> 0, with finite channel moments at every sweep point; M >= 1; sfg_tau finite
and > 0 with sfg_tau N_Z <= 0.1 and sfg_tau (1 + N_Z) < 1; sfg_capture_eps in
(0, 1); a boolean include_thermal_residual), SFG tunables outside an SFG
experiment, include_thermal_residual in an SFG-QPSK experiment (its sequential
click test reads only sfg_count_rate), unsupported receiver/alphabet pairs (PA
with QPSK), experiment names that are not safe file stems or repeat an earlier
name, an output directory containing a NUL byte, and bytes that are not UTF-8
are rejected with file:line diagnostics.  An SFG tunable is refused outside an
SFG experiment even when it is written at its default value: that presence
rule is stricter than `ReceiverSpec`'s, which refuses only a non-default
value, and it names the key's own line rather than the experiment's.

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
from pathlib import Path
from typing import NamedTuple

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


class RunConfig(NamedTuple):
    """Parsed configuration: named experiments plus output settings."""

    experiments: tuple[tuple[str, ExperimentConfig], ...]
    output_directory: Path
    output_format: str


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


#: sfg-only receiver tunables and their parsers; an absent key keeps its ReceiverSpec default
_SFG_KEYS = {"sfg_tau": float, "sfg_capture_eps": float, "include_thermal_residual": _parse_bool}
#: each section's allowed keys
_SECTION_KEYS = {
    "experiment": {
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
    },
    "output": {"directory", "format"},
}
#: output formats, for [output] format and the --format options
FORMATS = ("csv", "json")
#: experiment names become output file stems; summary.json is the run summary
_SAFE_NAME = re.compile(r"(?!summary$)[A-Za-z0-9][A-Za-z0-9._-]*")

_RECEIVERS = {k.value: k for k in ReceiverKind}
_ALPHABETS = {
    "pam": AlphabetKind.PAM,
    "ook": AlphabetKind.PAM,
    "bpsk": AlphabetKind.BPSK,
    "qpsk": AlphabetKind.QPSK,
}


def _build_experiment(path: str, line: int, values: dict, lines: dict,
                      seed: int | None) -> tuple[str, ExperimentConfig]:
    for key in ("receiver", "alphabet", "N_S", "N_Z", "M", "sweep", "trials"):
        if key not in values:
            raise ConfigError(path, line, f"experiment is missing required key '{key}'")
    try:
        receiver_kind = _RECEIVERS[values["receiver"].strip().lower()]
    except KeyError:
        raise ConfigError(
            path, lines["receiver"], f"unknown receiver {values['receiver']!r}"
        ) from None
    try:
        alphabet = _ALPHABETS[values["alphabet"].strip().lower()]
    except KeyError:
        raise ConfigError(
            path, lines["alphabet"], f"unknown alphabet {values['alphabet']!r}"
        ) from None
    for key in sorted(_SFG_KEYS.keys() & values.keys(), key=lines.get):
        if receiver_kind is not ReceiverKind.SFG:
            raise ConfigError(path, lines[key], f"'{key}' applies only to the sfg receiver")
        if key == "include_thermal_residual" and alphabet is AlphabetKind.QPSK:
            raise ConfigError(path, lines[key], f"'{key}' applies only to sfg with pam or bpsk")
    try:
        tunables = {key: parse(values[key]) for key, parse in _SFG_KEYS.items() if key in values}
        spec = ReceiverSpec(receiver_kind, **tunables)
        file_seed = int(values.get("seed", DEFAULT_SEED))  # checked even when `seed` replaces it
        cfg = ExperimentConfig(
            alphabet_kind=alphabet,
            receiver=spec,
            N_S=float(values["N_S"]),
            N_Z=float(values["N_Z"]),
            M=int(values["M"]),
            sweep=parse_sweep(values["sweep"]),
            trials_per_point=int(values["trials"]),
            master_seed=file_seed if seed is None else seed,
        )
    except (ValueError, ArithmeticError) as exc:  # a huge integer M overflows a float
        raise ConfigError(path, line, str(exc)) from None
    name = values.get("name", f"experiment{line}")
    if not _SAFE_NAME.fullmatch(name):
        raise ConfigError(path, lines["name"], f"experiment name {name!r} is not a "
                          "file stem of letters, digits, '.', '_', '-' other than 'summary'")
    return name, cfg


def load_config(path: str | Path, seed: int | None = None) -> RunConfig:
    """Parse and validate a run configuration file; a `seed` replaces every experiment's seed."""
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        # the bad byte's line, counted as splitlines counts them below
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ConfigError(str(path), line, f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    sections = []  # (name, header line, values, key lines), in file order
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTION_KEYS:
                raise ConfigError(str(path), lineno, f"unknown section [{name}]")
            if name == "output" and any(other == "output" for other, *_ in sections):
                raise ConfigError(str(path), lineno, "duplicate section [output]")
            sections.append((name, lineno, {}, {}))
            continue
        if not sections:
            raise ConfigError(str(path), lineno, "key outside any section")
        if "=" not in line:
            raise ConfigError(str(path), lineno, f"expected key = value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        name, _, values, lines = sections[-1]
        if key not in _SECTION_KEYS[name]:
            raise ConfigError(str(path), lineno, f"unknown key '{key}' in section [{name}]")
        if key in values:
            raise ConfigError(str(path), lineno, f"duplicate key '{key}'")
        values[key] = value
        lines[key] = lineno

    experiments = []
    output_directory, output_format = Path("."), "csv"
    for name, header, values, lines in sections:
        if name == "output":
            output_directory = Path(values.get("directory", "."))
            if "\0" in str(output_directory):  # no file system takes it, and mkdir would raise
                raise ConfigError(str(path), lines["directory"], "output directory contains a NUL byte")
            output_format = values.get("format", "csv").strip().lower()
            if output_format not in FORMATS:
                raise ConfigError(str(path), lines["format"], f"output format must be "
                                  f"{' or '.join(FORMATS)}, got {output_format!r}")
            continue
        exp_name, exp = _build_experiment(str(path), header, values, lines, seed)
        if any(exp_name == other for other, _ in experiments):
            raise ConfigError(str(path), header, f"duplicate experiment name {exp_name!r}")
        experiments.append((exp_name, exp))
    if not experiments:
        raise ConfigError(str(path), 1, "configuration defines no experiment")
    return RunConfig(tuple(experiments), output_directory, output_format)
