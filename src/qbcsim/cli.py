"""Command-line front end: bound tables, simulations, link budget, security report.

Exit codes: 0 success; 2 usage or configuration error, including bad config
input such as an unsupported receiver/alphabet pair in a config file (reported
as file:line); 3 I/O failure, a closed stdout included; 4 unsupported
combination asked for on the command line (``bounds --columns pa_qpsk``).
`main` turns a ValueError or ArithmeticError raised by any subcommand into
exit 2 and one stderr line, led by that subcommand's prefix ("bad sweep",
"config error", "invalid link budget", "invalid security arguments").
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from pathlib import Path

import numpy as np

from .analytics import classical_ep_lower_bound, eve_exponent_ratio, power_divider_penalty
from .config import DEFAULT_SEED, FORMATS, load_config, parse_sweep
from .link import (
    AlphabetKind,
    LinkBudget,
    channel_phase,
    min_squared_distance,
    mode_pairs,
    nominal_alphabet,
    rtt_from_link_budget,
    thermal_occupancy,
)
from .montecarlo import (
    BerCurvePoint, analytic_bound_value, eve_random_phase_ber, fit_error_exponent, run_experiments,
)
from .receivers import ReceiverKind

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_UNSUPPORTED = 4

#: fixed column order of the bounds table
BOUND_COLUMNS = (
    "het_pam",
    "het_bpsk",
    "het_qpsk",
    "pa_pam",
    "pa_bpsk",
    "sfg_pam",
    "sfg_bpsk",
    "sfg_qpsk",
)


def _fmt(x: float) -> str:
    """Lossless double formatting: 17 significant digits."""
    return f"{x:.17g}"


def bound_table_row(s: float) -> dict[str, float]:
    """Analytic bound values at one sweep point of s = eta N_S M / N_Z.

    Each column is `montecarlo.analytic_bound_value` for its receiver and
    alphabet at eta = 1 and (N_S, M, N_Z) = (s, 1, 1), so that
    d^2 N_S M / N_Z = d^2(eta = 1) s.
    """
    row = {}
    for col in BOUND_COLUMNS:
        receiver, alphabet = col.split("_")
        kind = ReceiverKind.HETERODYNE if receiver == "het" else ReceiverKind(receiver)
        row[col] = analytic_bound_value(kind, nominal_alphabet(AlphabetKind(alphabet), 1.0), s, 1, 1.0)
    return row


def _csv(header, rows) -> str:
    """A header line, then one line per row: integers as str, floats by `_fmt`."""
    lines = [",".join(header)]
    lines += [",".join(str(v) if isinstance(v, int) else _fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _write_text(out: str | Path, text: str) -> None:
    """Write text, encoded once as UTF-8, to `out`.  A regular file is written
    over and then cut to length: O_TRUNC would free its blocks, and ext4 then
    flushes them on close.  A device or FIFO cannot be cut, and takes the
    bytes as they are."""
    data = memoryview(text.encode())
    size = len(data)
    fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, size)
    finally:
        os.close(fd)


#: the types `_json` lays out; any other value is a scalar
_CONTAINERS = {dict, list}


@functools.cache
def _encoder(depth: int):
    """C-encoder `encode` that puts each item of a container nested `depth`
    deep on its own line, indented as json.dumps(indent=2) indents it."""
    return json.JSONEncoder(separators=(",\n" + "  " * (depth + 1), ": ")).encode


def _json(value, depth: int = 0) -> str:
    """json.dumps(value, indent=2) for scalars, lists and string-keyed dicts
    nested `depth` deep.  json.dumps encodes in Python whenever it indents;
    here the scalars of each list or dict are one C-encoder call, whose text
    is laid out again."""
    encode = _encoder(depth)
    if type(value) not in _CONTAINERS or not value:
        return encode(value)
    inner = "\n" + "  " * (depth + 1)
    is_dict = type(value) is dict
    if _CONTAINERS.isdisjoint(map(type, value.values() if is_dict else value)):
        body = encode(value)[1:-1]
    elif is_dict:
        # an encoded scalar holds no newline, so the separators split the items
        flat = encode({k: v for k, v in value.items() if type(v) not in _CONTAINERS})
        scalars = iter(flat[1:-1].split("," + inner))
        body = ("," + inner).join([f"{_encoder(0)(k)}: {_json(v, depth + 1)}"
                                   if type(v) in _CONTAINERS else next(scalars)
                                   for k, v in value.items()])
    else:
        body = ("," + inner).join([_json(v, depth + 1) for v in value])
    return ("{" if is_dict else "[") + inner + body + inner[:-2] + ("}" if is_dict else "]")


def cmd_bounds(args) -> int:
    columns = args.columns.split(",") if args.columns else list(BOUND_COLUMNS)
    for k, col in enumerate(columns):
        if col == "pa_qpsk":
            print(
                "pa_qpsk is unsupported: the PA statistic projects onto a single "
                "axis, so it offers no gain for QPSK.",
                file=sys.stderr,
            )
            return EXIT_UNSUPPORTED
        if col not in BOUND_COLUMNS:
            print(f"unknown bounds column {col!r}", file=sys.stderr)
            return EXIT_USAGE
        if col in columns[:k]:
            print(f"repeated bounds column {col!r}", file=sys.stderr)
            return EXIT_USAGE
    header = ["s", *columns]
    table = [[s, *map(bound_table_row(s).get, columns)] for s in parse_sweep(args.sweep)]
    text = (_json([dict(zip(header, row)) for row in table]) + "\n" if args.format == "json"
            else _csv(header, table))
    if args.out == "-":
        sys.stdout.write(text)  # a closed stdout is reported by `main`
        return EXIT_OK
    try:
        _write_text(args.out, text)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


#: BerCurvePoint's fields: the csv columns and the json keys, in order
_POINT_FIELDS = BerCurvePoint._fields


@functools.cache
def _classical_slope(kind: AlphabetKind) -> float:
    """The heterodyne exponent in units of s that fitted exponents are
    compared against: the classical coefficient of d^2 N_S M / N_Z scaled by
    the scheme's d^2/eta ratio (OOK 1, BPSK 4, QPSK 2).  The coefficient does
    not depend on N_S, M or N_Z, so (1, 1, 1) stands for every entry."""
    unit = nominal_alphabet(kind, 1.0)
    return classical_ep_lower_bound(unit, 1.0, 1, 1.0).exponent * min_squared_distance(unit)


def cmd_simulate(args) -> int:
    """Run every experiment of the config (`load_config` gives each the `--seed`
    when given) in one `run_experiments` call, then write each experiment's file
    and the summary in config order: no file is written until all have run.
    Each entry is encoded once, and the summary is built from those texts."""
    try:
        cfg = load_config(args.config, seed=args.seed)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO

    out_dir = Path(args.out) if args.out else cfg.output_directory
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_IO

    texts = []
    curves = run_experiments([exp for _, exp in cfg.experiments])
    for (name, exp), curve in zip(cfg.experiments, curves):
        entry = {
            "experiment": name,
            "receiver": exp.receiver.kind.value,
            "alphabet": exp.alphabet_kind.value,
            "seed": exp.master_seed,
            "points": [pt._asdict() for pt in curve.points],
        }
        nonzero = [pt for pt in curve.points if pt.empirical_ber > 0]
        if len(nonzero) >= 3:
            slope = fit_error_exponent(curve, s_min=curve.points[0].s)
            classical_slope = _classical_slope(exp.alphabet_kind)
            entry["fitted_exponent"] = slope
            entry["exponent_ratio_vs_classical"] = slope / classical_slope
            entry["gain_db_vs_classical"] = 10.0 * math.log10(max(slope, 1e-300) / classical_slope)
        texts.append(_json(entry))

        fmt = cfg.output_format if args.format is None else args.format
        path = out_dir / f"{name}.{fmt}"
        try:
            _write_text(path, texts[-1] + "\n" if fmt == "json" else _csv(_POINT_FIELDS, curve.points))
        except OSError as exc:
            print(f"cannot write {path}: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"{name}: wrote {path}")
        if "fitted_exponent" in entry:
            print(
                f"{name}: fitted exponent {entry['fitted_exponent']:.4g} "
                f"(x{entry['exponent_ratio_vs_classical']:.3g} vs classical, "
                f"{entry['gain_db_vs_classical']:.3g} dB)"
            )

    summary_path = out_dir / "summary.json"
    # json.dumps(entries, indent=2): each entry's text one level deeper
    summary = "[\n" + ",\n".join("  " + t.replace("\n", "\n  ") for t in texts) + "\n]\n"
    try:
        _write_text(summary_path, summary)
    except OSError as exc:
        print(f"cannot write {summary_path}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"summary: wrote {summary_path}")
    return EXIT_OK


def cmd_link_budget(args) -> int:
    lb = LinkBudget(G_t=args.gt, G_r=args.gr, omega=2.0 * math.pi * args.f_hz, R_t=args.rt, R_r=args.rr,
                    sigma_Q=args.sigma_q, T=args.temperature, W=args.bandwidth, T_s=args.symbol_time,
                    varphi_tag=args.tag_phase)
    eta = rtt_from_link_budget(lb)
    n_z = thermal_occupancy(lb.omega, lb.T)
    m = mode_pairs(lb.W, lb.T_s)
    r_total = lb.R_t + lb.R_r
    phase_default = channel_phase(r_total, lb.varphi_tag, lb.omega)
    phase_strict = channel_phase(r_total, lb.varphi_tag, lb.omega, strict=True)
    print(f"eta = {_fmt(eta)}" + ("  (warning: exceeds 1, not physical)" if eta > 1 else ""))
    print(f"N_Z = {_fmt(n_z)}")
    print(f"M = {m}")
    print(f"phase (omega R / c convention) = {_fmt(phase_default)} rad")
    print(f"phase (2 pi R / c convention, verbatim) = {_fmt(phase_strict)} rad")
    return EXIT_OK


def cmd_security(args) -> int:
    ratio = eve_exponent_ratio()
    print(f"legitimate/eavesdropper exponent ratio = {_fmt(ratio)}")
    print(f"  ({10.0 * math.log10(ratio):.3g} dB; idler retention is the advantage)")
    print("power-divider penalty (multiplier on the error exponent):")
    for fraction in (1.0, 0.75, 0.5, 0.25):
        penalty = power_divider_penalty(fraction)
        note = "  <- negates the PA-receiver gain" if fraction == 0.5 else ""
        print(f"  fraction kept {fraction:4.2f}: penalty {_fmt(penalty)}{note}")
    if args.simulate:
        rng = np.random.default_rng(args.seed)
        ber = eve_random_phase_ber(args.eta, args.ns, args.m, args.nz, args.trials, rng)
        se = math.sqrt(max(ber * (1 - ber), 1e-12) / args.trials)
        print(
            f"random-phase defense: eavesdropper BER = {ber:.5f} "
            f"(+/- {se:.5f} SE over {args.trials} trials; 0.5 is chance)"
        )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qbcsim argument parser, built once per process: parse_args reads
    it and leaves it unchanged, so every `main` call can share it."""
    parser = argparse.ArgumentParser(
        prog="qbcsim",
        description=(
            "Quantum-illumination backscatter link simulator: bound tables, "
            "Monte Carlo BER runs, link-budget and security calculators."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="write the analytic bound table over a sweep")
    p.add_argument("--sweep", default="0.1:20:100", help="s_min:s_max:n (default 0.1:20:100)")
    p.add_argument("--out", default="-", help="output path (default stdout)")
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.add_argument(
        "--columns",
        default=None,
        help="comma-separated subset of: " + ",".join(BOUND_COLUMNS),
    )
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="accepted for interface uniformity; the table is deterministic")
    p.set_defaults(func=cmd_bounds, refused="bad sweep")

    p = sub.add_parser("simulate", help="run the experiments of a config file")
    p.add_argument("config", help="path to a key=value run configuration")
    p.add_argument("--out", default=None, help="output directory (overrides config)")
    p.add_argument("--format", choices=FORMATS, default=None)
    p.add_argument("--seed", type=int, default=None, help="override every experiment seed")
    p.set_defaults(func=cmd_simulate, refused="config error")

    p = sub.add_parser("link-budget", help="effective channel parameters from physics")
    p.add_argument("--gt", type=float, required=True, help="transmit antenna gain")
    p.add_argument("--gr", type=float, required=True, help="receive antenna gain")
    p.add_argument("--f-hz", type=float, required=True, dest="f_hz", help="carrier frequency [Hz]")
    p.add_argument("--rt", type=float, required=True, help="transmitter-tag distance [m]")
    p.add_argument("--rr", type=float, required=True, help="tag-receiver distance [m]")
    p.add_argument("--sigma-q", type=float, required=True, dest="sigma_q", help="radar cross section [m^2]")
    p.add_argument("--t", type=float, required=True, dest="temperature", help="environment temperature [K]")
    p.add_argument("--w", type=float, required=True, dest="bandwidth", help="phase-matching bandwidth [Hz]")
    p.add_argument("--ts", type=float, required=True, dest="symbol_time", help="symbol duration [s]")
    p.add_argument("--tag-phase", type=float, default=0.0, dest="tag_phase", help="tag phase [rad]")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="accepted for interface uniformity; the calculator is deterministic")
    p.set_defaults(func=cmd_link_budget, refused="invalid link budget")

    p = sub.add_parser("security", help="eavesdropping analytics")
    p.add_argument("--simulate", action="store_true", help="run the random-phase defense Monte Carlo")
    p.add_argument("--eta", type=float, default=0.01)
    p.add_argument("--ns", type=float, default=0.01)
    p.add_argument("--nz", type=float, default=100.0)
    p.add_argument("--m", type=int, default=10_000)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_security, refused="invalid security arguments")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()
    except (ValueError, ArithmeticError) as exc:  # finite inputs can still overflow
        print(f"{args.refused}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        if sys.stdout is sys.__stdout__:  # Python flushes it again at exit, which would fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("cannot write output: stdout is closed", file=sys.stderr)
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
