"""Config parsing and CLI subcommands, including exit-code taxonomy."""

import collections
import errno
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import qbcsim.cli as cli
import qbcsim.montecarlo as montecarlo
from qbcsim.cli import _POINT_FIELDS, _json, build_parser, main
from qbcsim.config import ConfigError, load_config, parse_sweep
from qbcsim.link import AlphabetKind
from qbcsim.receivers import ReceiverKind


GOOD_CONFIG = """
# demo run
[experiment]
name = sfg-bpsk
receiver = sfg
alphabet = bpsk
N_S = 0.01
N_Z = 100
M = 1000000
sweep = 0.25:0.75:3
trials = 2000
seed = 7

[output]
directory = {outdir}
format = csv
"""

#: line of the [experiment] header in GOOD_CONFIG
EXPERIMENT_LINE = GOOD_CONFIG.splitlines().index("[experiment]") + 1

#: GOOD_CONFIG with the PA receiver on QPSK, a pair PA does not support
PA_QPSK_CONFIG = GOOD_CONFIG.replace("receiver = sfg", "receiver = pa").replace(
    "alphabet = bpsk", "alphabet = qpsk"
)


def _write_config(tmp_path, text=None, **fmt):
    cfg = tmp_path / "run.cfg"
    body = GOOD_CONFIG if text is None else text
    outdir = fmt.pop("outdir", tmp_path / "out")
    cfg.write_text(body.format(outdir=outdir, **fmt))
    return cfg


def test_parse_sweep():
    assert parse_sweep("1:3:3") == (1.0, 2.0, 3.0)
    assert parse_sweep("0.5:0.5:1") == (0.5,)
    with pytest.raises(ValueError):
        parse_sweep("3:1:5")
    with pytest.raises(ValueError):
        parse_sweep("1:2")
    for bad in ("-1:1:3", "-0.5:-0.5:1", "nan:1:3", "0:nan:3", "0:inf:3", "-inf:1:3", "inf:inf:1"):
        with pytest.raises(ValueError):
            parse_sweep(bad)


def test_load_config_roundtrip(tmp_path):
    cfg = load_config(_write_config(tmp_path))
    assert len(cfg.experiments) == 1
    name, exp = cfg.experiments[0]
    assert name == "sfg-bpsk"
    assert exp.master_seed == 7
    assert exp.sweep == (0.25, 0.5, 0.75)
    assert cfg.output_format == "csv"


def test_load_config_unknown_key_has_location(tmp_path):
    bad = GOOD_CONFIG.replace("seed = 7", "sed = 7")
    path = _write_config(tmp_path, text=bad)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "sed" in str(err.value)
    # the diagnostic carries file:line
    assert str(path) in str(err.value)
    assert f":{err.value.line}:" in str(err.value)


def test_load_config_unknown_section(tmp_path):
    path = _write_config(tmp_path, text="[inventory]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)


#: GOOD_CONFIG followed by a complete [link_budget] section, which the format
#: does not have: nothing would read it
LINK_BUDGET_CONFIG = GOOD_CONFIG + (
    "\n[link_budget]\nG_t = 100\nG_r = 100\nf_Hz = 1e9\nR_t = 10\nR_r = 10\n"
    "sigma_Q = 0.01\nT = 290\nW = 1e6\nT_s = 1e-3\n"
)
LINK_BUDGET_LINE = LINK_BUDGET_CONFIG.splitlines().index("[link_budget]") + 1

#: line of the name key in GOOD_CONFIG
NAME_LINE = GOOD_CONFIG.splitlines().index("name = sfg-bpsk") + 1

#: lines of the receiver and alphabet keys in GOOD_CONFIG
RECEIVER_LINE = GOOD_CONFIG.splitlines().index("receiver = sfg") + 1
ALPHABET_LINE = GOOD_CONFIG.splitlines().index("alphabet = bpsk") + 1

#: line of the [output] directory key in GOOD_CONFIG
DIRECTORY_LINE = GOOD_CONFIG.splitlines().index("directory = {outdir}") + 1

#: GOOD_CONFIG with a second [experiment] block under the same name
DUPLICATE_NAME_CONFIG = GOOD_CONFIG + GOOD_CONFIG[
    GOOD_CONFIG.index("[experiment]"):GOOD_CONFIG.index("[output]")
]
DUPLICATE_NAME_LINE = DUPLICATE_NAME_CONFIG.splitlines().index("[experiment]", EXPERIMENT_LINE) + 1


def _plus(line: str) -> str:
    """GOOD_CONFIG with one more [experiment] line, right after the seed."""
    return GOOD_CONFIG.replace("seed = 7\n", f"seed = 7\n{line}\n")


def _rx(receiver: str, lines: str) -> str:
    """_plus(lines) with another receiver in place of sfg."""
    return _plus(lines).replace("receiver = sfg", f"receiver = {receiver}")


#: line of a key that _plus adds
PLUS_LINE = GOOD_CONFIG.splitlines().index("seed = 7") + 2

#: heterodyne BPSK whose one sweep point back-solves to eta = 1 + 1e-13
ETA_ABOVE_ONE_CONFIG = (
    GOOD_CONFIG.replace("receiver = sfg", "receiver = heterodyne")
    .replace("M = 1000000", "M = 10000")
    .replace("sweep = 0.25:0.75:3", "sweep = 1.0000000000001:1.0000000000001:1")
)

#: PA-BPSK whose correlation at the largest sweep point, eta N_S (N_S + 1),
#: overflows: the PA grid would hold inf - inf
PA_OVERFLOW_CONFIG = (
    GOOD_CONFIG.replace("receiver = sfg", "receiver = pa")
    .replace("N_S = 0.01", "N_S = 1e308")
    .replace("M = 1000000", "M = 1")
)


def test_load_config_rejects_link_budget_section(tmp_path):
    cfgpath = _write_config(tmp_path, text=LINK_BUDGET_CONFIG)
    with pytest.raises(ConfigError) as err:
        load_config(cfgpath)
    assert err.value.line == LINK_BUDGET_LINE
    assert "unknown section [link_budget]" in str(err.value)


def test_load_config_ignores_a_leading_bom(tmp_path):
    """A UTF-8 byte-order mark, as Windows Notepad writes one, is not part of
    the text: the file loads as without it, and a bad byte after it is still
    named by its line and its offset in the file."""
    plain = _write_config(tmp_path)
    bom = tmp_path / "bom.cfg"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_config(bom) == load_config(plain)
    bad = b"\xef\xbb\xbf" + plain.read_bytes().replace(b"name = sfg-bpsk", b"name = sfg-\xe9bpsk")
    bom.write_bytes(bad)
    with pytest.raises(ConfigError) as err:
        load_config(bom)
    assert err.value.line == NAME_LINE
    assert f"at byte {bad.index(0xE9)}" in str(err.value)


#: GOOD_CONFIG writing json, then a second [output] naming another directory
SECOND_OUTPUT_CONFIG = GOOD_CONFIG.replace("format = csv", "format = json") + (
    "\n[output]\ndirectory = {second}\n"
)
SECOND_OUTPUT_LINE = SECOND_OUTPUT_CONFIG.splitlines().index("[output]", len(GOOD_CONFIG.splitlines())) + 1


def test_simulate_refuses_a_second_output_section(tmp_path, capsys):
    """A config has at most one [output]: a second one is a config error at
    its header, not a silent replacement of the first, and nothing is written."""
    cfgpath = _write_config(tmp_path, text=SECOND_OUTPUT_CONFIG, second=tmp_path / "second")
    assert main(["simulate", str(cfgpath)]) == 2
    assert f"config error: {cfgpath}:{SECOND_OUTPUT_LINE}:" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["run.cfg"]


def test_load_config_missing_key(tmp_path):
    bad = GOOD_CONFIG.replace("M = 1000000\n", "")
    with pytest.raises(ConfigError) as err:
        load_config(_write_config(tmp_path, text=bad))
    assert "'M'" in str(err.value)


def test_load_config_accepts_every_receiver_and_alphabet_name(tmp_path):
    """Every receiver and alphabet name a config may give loads, in upper case
    and with spaces around it too, and ook names the PAM alphabet; PA-QPSK is
    the one pair left out, as PA does not support it."""
    pairs = [(receiver, alphabet) for receiver in ("heterodyne", "pa", "sfg")
             for alphabet in ("pam", "ook", "bpsk", "qpsk") if (receiver, alphabet) != ("pa", "qpsk")]
    block = GOOD_CONFIG[GOOD_CONFIG.index("[experiment]"):GOOD_CONFIG.index("[output]")]
    text = "".join(
        block.replace("name = sfg-bpsk", f"name = {receiver}-{alphabet}-{k}")
        .replace("receiver = sfg", f"receiver = {spell(receiver)}")
        .replace("alphabet = bpsk", f"alphabet = {spell(alphabet)}")
        for k, spell in enumerate((str, lambda name: f"  {name.upper()} "))
        for receiver, alphabet in pairs
    )
    experiments = load_config(_write_config(tmp_path, text=text)).experiments
    assert len(experiments) == 2 * len(pairs) == 22
    for name, exp in experiments:
        receiver, alphabet, _ = name.split("-")
        assert exp.receiver.kind is ReceiverKind(receiver)
        assert exp.alphabet_kind is (AlphabetKind.PAM if alphabet == "ook" else AlphabetKind(alphabet))


def test_load_config_unsupported_pair(tmp_path):
    cfgpath = _write_config(tmp_path, text=PA_QPSK_CONFIG)
    with pytest.raises(ConfigError) as err:
        load_config(cfgpath)
    assert err.value.path == str(cfgpath)
    assert err.value.line == EXPERIMENT_LINE


def test_bounds_table_values(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    code = main(["bounds", "--sweep", "0.5:1.5:3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == [
        "s", "het_pam", "het_bpsk", "het_qpsk",
        "pa_pam", "pa_bpsk", "sfg_pam", "sfg_bpsk", "sfg_qpsk",
    ]
    assert len(lines) == 4
    row1 = dict(zip(header, map(float, lines[2].split(","))))
    assert row1["s"] == 1.0
    assert row1["sfg_bpsk"] == pytest.approx(math.exp(-4.0), abs=1e-12)
    assert row1["het_bpsk"] == pytest.approx(0.25 * math.erfc(1.0), rel=1e-12)
    assert row1["pa_bpsk"] == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_bounds_csv_is_lossless(tmp_path):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--sweep", "0.1:20:25", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    from qbcsim.cli import bound_table_row

    for line in lines[1:]:
        row = dict(zip(header, map(float, line.split(","))))
        expect = bound_table_row(row["s"])
        for key, val in expect.items():
            assert row[key] == val  # exact round-trip through 17 digits


def test_bounds_rewrite_leaves_no_stale_bytes(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--sweep", "0.1:20:25", "--out", str(out)]) == 0
    assert main(["bounds", "--sweep", "0.5:1.5:3", "--columns", "sfg_bpsk", "--out", str(out)]) == 0
    assert main(["bounds", "--sweep", "0.5:1.5:3", "--columns", "sfg_bpsk"]) == 0
    assert out.read_text() == capsys.readouterr().out


def test_simulate_rewrite_leaves_no_stale_bytes(tmp_path):
    cfgpath = _write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "sfg-bpsk.csv").write_text("x" * 100_000)
    (out / "summary.json").write_text("y" * 100_000)
    assert main(["simulate", str(cfgpath), "--out", str(tmp_path / "fresh")]) == 0
    assert main(["simulate", str(cfgpath), "--out", str(out)]) == 0
    for name in ("sfg-bpsk.csv", "summary.json"):
        assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def test_bounds_to_a_device_exits_0():
    """A device cannot be cut to length: the table goes to it as it is."""
    assert main(["bounds", "--out", os.devnull]) == 0


def test_bounds_to_a_fifo_delivers_the_table(tmp_path, capsys):
    fifo = tmp_path / "table.fifo"
    os.mkfifo(fifo)
    received = []

    def read():
        with open(fifo, "rb") as f:
            received.append(f.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    assert main(["bounds", "--sweep", "0.5:1.5:3", "--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert main(["bounds", "--sweep", "0.5:1.5:3"]) == 0
    assert received == [capsys.readouterr().out.encode()]


def test_bounds_pa_qpsk_refused(capsys):
    code = main(["bounds", "--columns", "pa_qpsk"])
    assert code == 4
    assert "no gain" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bounds_repeated_column_usage_error(tmp_path, capsys, fmt):
    """A repeated column would print twice in csv and once in json, whose
    row keys merge: both formats refuse it before writing anything."""
    out = tmp_path / f"bounds.{fmt}"
    code = main(["bounds", "--columns", "het_pam,sfg_bpsk,het_pam", "--format", fmt, "--out", str(out)])
    assert code == 2
    assert "repeated bounds column 'het_pam'" in capsys.readouterr().err
    assert not out.exists()


def test_bounds_unknown_column_usage_error(capsys):
    assert main(["bounds", "--columns", "het_bpsk,bogus"]) == 2
    assert "unknown bounds column 'bogus'" in capsys.readouterr().err
    # an empty selection names one empty column, not the whole table
    assert main(["bounds", "--columns="]) == 2
    assert capsys.readouterr() == ("", "unknown bounds column ''\n")


def test_bounds_bad_sweep_usage_error(capsys):
    for sweep in ("bogus", "-1:1:3", "nan:1:3"):
        assert main(["bounds", f"--sweep={sweep}"]) == 2
        assert "bad sweep" in capsys.readouterr().err


def test_bounds_io_error(tmp_path):
    assert main(["bounds", "--out", str(tmp_path / "nodir" / "x.csv")]) == 3


LINK_BUDGET_ARGV = ["link-budget", "--gt", "100", "--gr", "100", "--f-hz", "1e9", "--rt", "10",
                    "--rr", "10", "--sigma-q", "0.01", "--t", "290", "--w", "1e6", "--ts", "1e-3"]


#: each subcommand's argv, the first callee it hands its input to, and the
#: prefix of the stderr line with which `main` refuses that input
_REFUSALS = {
    "bounds": (["bounds"], "parse_sweep", "bad sweep"),
    "simulate": (["simulate", "run.cfg"], "load_config", "config error"),
    "link-budget": (LINK_BUDGET_ARGV, "LinkBudget", "invalid link budget"),
    "security": (["security"], "eve_exponent_ratio", "invalid security arguments"),
}


@pytest.mark.parametrize("error", [ValueError, OverflowError])
@pytest.mark.parametrize("command", list(_REFUSALS))
def test_refused_input_exits_2_with_the_command_prefix(monkeypatch, capsys, command, error):
    """A ValueError or ArithmeticError from any subcommand exits 2 with one
    stderr line, led by that subcommand's prefix, and prints nothing; so does
    one whose stdout is a closed file, as input is refused before any write."""
    argv, callee, prefix = _REFUSALS[command]

    def refuse(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(cli, callee, refuse)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"{prefix}: boom\n")
    monkeypatch.setattr(sys, "stdout", _closed_file())
    assert main(argv) == 2
    assert capsys.readouterr().err == f"{prefix}: boom\n"


class _ClosedStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def _closed_file():
    """A closed file object, whose writes raise ValueError, not BrokenPipeError."""
    out = io.StringIO()
    out.close()
    return out


@pytest.mark.parametrize("command", ["bounds", "simulate", "link-budget", "security"])
def test_closed_stdout_is_an_io_failure(tmp_path, capsys, monkeypatch, command):
    """Every subcommand whose stdout is closed, a broken pipe or a closed file
    object, exits 3 with one stderr line, not a traceback, and not as
    refused input."""
    argv = {"bounds": ["bounds"], "simulate": ["simulate", str(_write_config(tmp_path))],
            "link-budget": LINK_BUDGET_ARGV, "security": ["security"]}[command]
    for stdout in (_ClosedStdout(), _closed_file()):
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 3
        assert capsys.readouterr().err == "cannot write output: stdout is closed\n"


def test_closed_stdout_pipe_exits_3_with_one_line():
    """`qbcsim link-budget ... | true` in a buffered process: no second
    error when Python flushes stdout at exit."""
    src = Path(montecarlo.__file__).parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    proc = subprocess.Popen([sys.executable, "-m", "qbcsim.cli", *LINK_BUDGET_ARGV], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the only reader: every write to the pipe fails
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 3
    assert err == b"cannot write output: stdout is closed\n"


def test_simulate_end_to_end(tmp_path, capsys):
    cfgpath = _write_config(tmp_path)
    code = main(["simulate", str(cfgpath)])
    assert code == 0
    outdir = tmp_path / "out"
    curve = (outdir / "sfg-bpsk.csv").read_text()
    assert curve.splitlines()[0].startswith("s,empirical_ber")
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary[0]["experiment"] == "sfg-bpsk"
    assert "fitted_exponent" in summary[0]
    # SFG-BPSK empirical exponent sits near 4x the classical coefficient
    assert summary[0]["exponent_ratio_vs_classical"] == pytest.approx(4.0, abs=1.2)


def test_simulate_rerun_is_byte_identical(tmp_path):
    """Two runs of one config on one seed write the same bytes to every file,
    in both formats."""
    cfgpath = _write_config(tmp_path)
    for out in ("a", "b"):
        for fmt in ("csv", "json"):
            assert main(["simulate", str(cfgpath), "--out", str(tmp_path / out), "--format", fmt]) == 0
    names = sorted(path.name for path in (tmp_path / "a").iterdir())
    assert names == ["sfg-bpsk.csv", "sfg-bpsk.json", "summary.json"]
    assert sorted(path.name for path in (tmp_path / "b").iterdir()) == names
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


#: [experiment] blocks without a seed key, so each runs on the default seed;
#: three share the binary alphabet size, one is QPSK
_DEFAULT_SEED_EXPERIMENTS = tuple(
    f"[experiment]\nname = {name}\nreceiver = {rx}\nalphabet = {alphabet}\n"
    f"N_S = 0.01\nN_Z = 100\nM = {M}\nsweep = {sweep}\ntrials = 1000\n"
    for name, rx, alphabet, M, sweep in (
        ("het-bpsk", "heterodyne", "bpsk", 1_000_000, "0.5:1.5:3"),
        ("sfg-qpsk", "sfg", "qpsk", 1_000_000, "0.5:2.5:3"),
        ("pa-bpsk", "pa", "bpsk", 10_000_000, "0.5:1.5:3"),
        ("sfg-pam", "sfg", "pam", 10_000_000, "1:3:3"),
    )
)


#: het-, PA- and SFG-BPSK on one seed: the three receivers of the paper's
#: comparison, sharing one trial stream (run with --seed 29)
PINNED_CONFIG = """\
[experiment]
name = het-bpsk
receiver = heterodyne
alphabet = bpsk
N_S = 0.01
N_Z = 100
M = 1000000
sweep = 0.5:1.5:3
trials = 1000
seed = 3

[experiment]
name = pa-bpsk
receiver = pa
alphabet = bpsk
N_S = 0.01
N_Z = 100
M = 10000000
sweep = 0.5:1.5:3
trials = 1000
seed = 3

[experiment]
name = sfg-bpsk
receiver = sfg
alphabet = bpsk
N_S = 0.01
N_Z = 100
M = 10000000
sweep = 0.25:0.75:3
trials = 1000
seed = 3
"""

#: the exact summary.json and pa-bpsk.csv that `simulate` writes for
#: PINNED_CONFIG.  A speed-up must leave them byte for byte; a change to the
#: output schema or the trial stream updates them and says which fields moved.
PINNED_SUMMARY = """\
[
  {
    "experiment": "het-bpsk",
    "receiver": "heterodyne",
    "alphabet": "bpsk",
    "seed": 29,
    "points": [
      {
        "s": 0.5,
        "empirical_ber": 0.177,
        "wilson_ci_low": 0.1545933794855418,
        "wilson_ci_high": 0.20187870649612683,
        "analytic_bound": 0.07932762696572851,
        "trials": 1000,
        "errors": 177
      },
      {
        "s": 1.0,
        "empirical_ber": 0.09,
        "wilson_ci_low": 0.07379614931508309,
        "wilson_ci_high": 0.1093417926430721,
        "analytic_bound": 0.03932480176257128,
        "trials": 1000,
        "errors": 90
      },
      {
        "s": 1.5,
        "empirical_ber": 0.042,
        "wilson_ci_low": 0.031220885546165447,
        "wilson_ci_high": 0.056284425226603055,
        "analytic_bound": 0.02081612916588761,
        "trials": 1000,
        "errors": 42
      }
    ],
    "fitted_exponent": 1.4384801142904609,
    "exponent_ratio_vs_classical": 1.4384801142904609,
    "gain_db_vs_classical": 1.5790386253248625
  },
  {
    "experiment": "pa-bpsk",
    "receiver": "pa",
    "alphabet": "bpsk",
    "seed": 29,
    "points": [
      {
        "s": 0.5,
        "empirical_ber": 0.084,
        "wilson_ci_low": 0.0683588136777643,
        "wilson_ci_high": 0.10282504938221758,
        "analytic_bound": 0.3678794411714422,
        "trials": 1000,
        "errors": 84
      },
      {
        "s": 1.0,
        "empirical_ber": 0.026,
        "wilson_ci_low": 0.017803938201616326,
        "wilson_ci_high": 0.03782382884268993,
        "analytic_bound": 0.13533528323661279,
        "trials": 1000,
        "errors": 26
      },
      {
        "s": 1.5,
        "empirical_ber": 0.003,
        "wilson_ci_low": 0.0010207838811386186,
        "wilson_ci_high": 0.008783014053503173,
        "analytic_bound": 0.049787068367863944,
        "trials": 1000,
        "errors": 3
      }
    ],
    "fitted_exponent": 3.3322045101752042,
    "exponent_ratio_vs_classical": 3.3322045101752042,
    "gain_db_vs_classical": 5.227316478713012
  },
  {
    "experiment": "sfg-bpsk",
    "receiver": "sfg",
    "alphabet": "bpsk",
    "seed": 29,
    "points": [
      {
        "s": 0.25,
        "empirical_ber": 0.184,
        "wilson_ci_low": 0.16120869057645773,
        "wilson_ci_high": 0.20920982078641312,
        "analytic_bound": 0.36787944117144245,
        "trials": 1000,
        "errors": 184
      },
      {
        "s": 0.5,
        "empirical_ber": 0.074,
        "wilson_ci_low": 0.05935499258410698,
        "wilson_ci_high": 0.09190540564558597,
        "analytic_bound": 0.13533528323661262,
        "trials": 1000,
        "errors": 74
      },
      {
        "s": 0.75,
        "empirical_ber": 0.024,
        "wilson_ci_low": 0.016180168466636995,
        "wilson_ci_high": 0.03546290561161149,
        "analytic_bound": 0.049787068367863944,
        "trials": 1000,
        "errors": 24
      }
    ],
    "fitted_exponent": 4.07376385452208,
    "exponent_ratio_vs_classical": 4.07376385452208,
    "gain_db_vs_classical": 6.0999585047406155
  }
]
"""

PINNED_PA_CSV = """\
s,empirical_ber,wilson_ci_low,wilson_ci_high,analytic_bound,trials,errors
0.5,0.084000000000000005,0.068358813677764294,0.10282504938221758,0.36787944117144222,1000,84
1,0.025999999999999999,0.017803938201616326,0.037823828842689929,0.13533528323661279,1000,26
1.5,0.0030000000000000001,0.0010207838811386186,0.0087830140535031728,0.049787068367863944,1000,3
"""


def test_simulate_output_bytes_are_pinned(tmp_path):
    """The summary and one csv of a fixed-seed run, compared as text."""
    cfg = tmp_path / "pinned.cfg"
    cfg.write_text(PINNED_CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), "--out", str(out), "--format", "csv", "--seed", "29"]) == 0
    assert (out / "summary.json").read_text() == PINNED_SUMMARY
    assert (out / "pa-bpsk.csv").read_text() == PINNED_PA_CSV


@pytest.mark.parametrize("seed", [None, "5"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_experiments_do_not_share_counts(tmp_path, capsys, fmt, seed):
    """Experiments on one seed are counted in one engine pass, yet each
    writes the bytes it writes when simulated alone from a one-experiment
    config, and the stdout lines keep the config's order."""
    out = tmp_path / "out"
    argv = ["--out", str(out), "--format", fmt] + (["--seed", seed] if seed else [])
    alone, expected_stdout = {}, []
    for block in _DEFAULT_SEED_EXPERIMENTS:
        name = block.split("\n")[1].removeprefix("name = ")
        path = tmp_path / f"{name}.cfg"
        path.write_text(block)
        assert main(["simulate", str(path), *argv]) == 0
        alone[name] = (out / f"{name}.{fmt}").read_bytes()
        expected_stdout += capsys.readouterr().out.splitlines()[:-1]  # all but the summary line
    path = tmp_path / "all.cfg"
    path.write_text("\n".join(_DEFAULT_SEED_EXPERIMENTS))
    for name in alone:
        (out / f"{name}.{fmt}").unlink()
    assert main(["simulate", str(path), *argv]) == 0
    assert capsys.readouterr().out.splitlines() == expected_stdout + [
        f"summary: wrote {out / 'summary.json'}"]
    for name, data in alone.items():
        assert (out / f"{name}.{fmt}").read_bytes() == data, name


#: an SFG-BPSK block whose sweep is so far out that no trial errs: its entry
#: has fewer than three nonzero points, so no fitted exponent
_ERROR_FREE_EXPERIMENT = (
    "[experiment]\nname = sfg-bpsk-far\nreceiver = sfg\nalphabet = bpsk\n"
    "N_S = 0.01\nN_Z = 100\nM = 10000000\nsweep = 6:8:3\ntrials = 1000\n"
)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_json_is_json_dumps_indent_2(tmp_path, fmt):
    """Every json file simulate writes holds the bytes json.dumps(indent=2)
    gives for its value, the summary is the list of the experiments' entries,
    and each point's keys are BerCurvePoint's fields in order."""
    path = tmp_path / "all.cfg"
    path.write_text("\n".join([*_DEFAULT_SEED_EXPERIMENTS, _ERROR_FREE_EXPERIMENT]))
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out", str(out), "--format", fmt]) == 0
    summary = (out / "summary.json").read_text()
    entries = json.loads(summary)
    assert summary == json.dumps(entries, indent=2) + "\n"
    assert [e["alphabet"] for e in entries] == ["bpsk", "qpsk", "bpsk", "pam", "bpsk"]
    assert ["fitted_exponent" in e for e in entries] == [True] * 4 + [False]
    for entry in entries:
        assert [list(pt) for pt in entry["points"]] == [list(_POINT_FIELDS)] * 3
        if fmt == "json":
            text = (out / f"{entry['experiment']}.json").read_text()
            assert text == json.dumps(json.loads(text), indent=2) + "\n"
            assert json.loads(text) == entry


def test_bounds_json_is_json_dumps_indent_2(capsys):
    for argv in (["--sweep", "0.1:20:7"], ["--sweep", "1e-300:1e300:5", "--columns", "sfg_bpsk,het_pam"]):
        assert main(["bounds", *argv, "--format", "json"]) == 0
        text = capsys.readouterr().out
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


_AWKWARD = [5e-324, -0.0, 1.7976931348623157e308, 0.1 + 0.2, 2**63 - 1, [], {}, "é\n\"", None]


@pytest.mark.parametrize("value", _AWKWARD, ids=repr)
def test_json_writer_is_json_dumps_indent_2(value):
    """The writer gives json.dumps(value, indent=2) for each value alone, as a
    dict or list item, and among scalars and containers at several depths."""
    for wrapped in (value, [value], {"k": value}, [[value, 1], {"a": value}],
                    {"a": 1, "b": [value, {"c": value, "d": [value]}], "e": value}):
        assert _json(wrapped) == json.dumps(wrapped, indent=2), wrapped


@pytest.mark.parametrize("seed", [[], ["--seed", "5"]])
def test_simulate_builds_each_sweep_point_once(tmp_path, monkeypatch, seed):
    """Reading a config builds each sweep point's rule and bound once, and
    the run reuses them: `--seed` is applied as the config is read, so it
    builds nothing again."""
    calls = collections.Counter()

    def counting(name):
        real = getattr(montecarlo, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for name in ("point_decider", "analytic_bound_value"):
        monkeypatch.setattr(montecarlo, name, counting(name))
    path = tmp_path / "two.cfg"
    path.write_text("\n".join(_DEFAULT_SEED_EXPERIMENTS[:2]))
    assert main(["simulate", str(path), "--out", str(tmp_path / "out"), *seed]) == 0
    points = 2 * 3
    assert calls == {"point_decider": points, "analytic_bound_value": points}


def test_simulate_seed_override_still_checks_the_file_seed(tmp_path, capsys):
    """`--seed` replaces every experiment's seed, but a malformed seed in the
    file is still a config error at its experiment."""
    cfgpath = _write_config(tmp_path, text=GOOD_CONFIG.replace("seed = 7", "seed = abc"))
    assert main(["simulate", str(cfgpath), "--seed", "5"]) == 2
    assert f"{cfgpath}:{EXPERIMENT_LINE}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert load_config(_write_config(tmp_path), seed=5).experiments[0][1].master_seed == 5


def test_simulate_json_roundtrip(tmp_path):
    cfgpath = _write_config(tmp_path)
    assert main(["simulate", str(cfgpath), "--format", "json"]) == 0
    payload = json.loads((tmp_path / "out" / "sfg-bpsk.json").read_text())
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert payload["points"] == summary[0]["points"]
    # JSON floats round-trip exactly
    again = json.loads(json.dumps(payload))
    assert again == payload


def test_simulate_config_error_exit_code(tmp_path):
    bad = GOOD_CONFIG.replace("alphabet = bpsk", "alphabet = 16qam")
    assert main(["simulate", str(_write_config(tmp_path, text=bad))]) == 2


@pytest.mark.parametrize("blocked,message", [
    ("out", "cannot create output directory"),
    ("out/sfg-bpsk.json", "cannot write"),
    ("out/summary.json", "cannot write"),
], ids=["out-is-a-file", "curve-is-a-directory", "summary-is-a-directory"])
def test_simulate_output_io_error_exit_code(tmp_path, capsys, blocked, message):
    """--out names a regular file, or an output file's name is taken by a
    directory: simulate exits 3 and names what it could not write."""
    out = tmp_path / "out"
    if blocked == "out":
        out.write_text("")
    else:
        (tmp_path / blocked).mkdir(parents=True)
    code = main(["simulate", str(_write_config(tmp_path)), "--out", str(out), "--format", "json"])
    assert code == 3
    assert message in capsys.readouterr().err


def test_simulate_unsupported_pair_exit_code(tmp_path, capsys):
    cfgpath = _write_config(tmp_path, text=PA_QPSK_CONFIG)
    assert main(["simulate", str(cfgpath)]) == 2
    err = capsys.readouterr().err
    assert f"{cfgpath}:{EXPERIMENT_LINE}:" in err
    assert "PA" in err and "QPSK" in err


@pytest.mark.parametrize(
    "text,line",
    [
        (GOOD_CONFIG.replace("sweep = 0.25:0.75:3", "sweep = nan:1:3"), EXPERIMENT_LINE),
        (LINK_BUDGET_CONFIG, LINK_BUDGET_LINE),
        (GOOD_CONFIG.replace("N_S = 0.01", "N_S = 0"), EXPERIMENT_LINE),
        (GOOD_CONFIG.replace("M = 1000000", "M = 0"), EXPERIMENT_LINE),
        (GOOD_CONFIG.replace("M = 1000000", "M = 1" + "0" * 400), EXPERIMENT_LINE),
        (GOOD_CONFIG.replace("N_Z = 100", "N_Z = 0"), EXPERIMENT_LINE),
        (GOOD_CONFIG.replace("N_S = 0.01", "N_S = nan"), EXPERIMENT_LINE),
        (_plus("sfg_tau = abc"), EXPERIMENT_LINE),
        (_plus("sfg_tau = 0"), EXPERIMENT_LINE),
        (_plus("sfg_tau = nan"), EXPERIMENT_LINE),
        (_plus("sfg_tau = -0.001"), EXPERIMENT_LINE),
        (_plus("sfg_tau = 0.01"), EXPERIMENT_LINE),
        (_plus("sfg_tau = 1e-320"), EXPERIMENT_LINE),
        (_plus("sfg_capture_eps = 2"), EXPERIMENT_LINE),
        (_plus("include_thermal_residual = maybe"), EXPERIMENT_LINE),
        (_plus("pa_epsilon_sq = 0.005"), PLUS_LINE),
        (ETA_ABOVE_ONE_CONFIG, EXPERIMENT_LINE),
        (PA_OVERFLOW_CONFIG, EXPERIMENT_LINE),
        (_rx("pa", "sfg_tau = 0.0005\ninclude_thermal_residual = true"), PLUS_LINE),
        (_rx("heterodyne", "sfg_capture_eps = 0.5"), PLUS_LINE),
        (_rx("pa", "include_thermal_residual = true"), PLUS_LINE),
        (_plus("include_thermal_residual = true").replace("alphabet = bpsk", "alphabet = qpsk"),
         PLUS_LINE),
        ("seed = 7" + GOOD_CONFIG, 1),
        (_plus("seed 8"), PLUS_LINE),
        (_plus("seed = 8"), PLUS_LINE),
        (GOOD_CONFIG[GOOD_CONFIG.index("[output]"):], 1),
        (GOOD_CONFIG.replace("sweep = 0.25:0.75:3", "sweep = 0:1:0"), EXPERIMENT_LINE),
        (GOOD_CONFIG.replace("{outdir}", "o\0d"), DIRECTORY_LINE),
        (GOOD_CONFIG.replace("receiver = sfg", "receiver = homodyne"), RECEIVER_LINE),
        (GOOD_CONFIG.replace("alphabet = bpsk", "alphabet = 16qam"), ALPHABET_LINE),
        (GOOD_CONFIG.replace("receiver = sfg", "receiver = homodyne")
         .replace("alphabet = bpsk", "alphabet = 16qam"), RECEIVER_LINE),
    ],
    ids=["nan-sweep", "link-budget-section", "zero-N_S", "zero-M", "huge-M", "zero-N_Z", "nan-N_S",
         "text-tau", "zero-tau", "nan-tau", "negative-tau", "tau-past-window", "tau-past-1e308-cycles",
         "capture-eps-2", "text-bool", "pa-epsilon-key", "eta-just-above-1", "pa-moments-overflow",
         "pa-sfg-tau",
         "heterodyne-capture-eps", "pa-thermal-residual", "qpsk-thermal-residual",
         "key-outside-section", "line-without-equals", "duplicate-key", "no-experiment",
         "zero-point-sweep", "nul-in-directory", "unknown-receiver", "unknown-alphabet",
         "unknown-receiver-and-alphabet"],
)
def test_simulate_bad_config_reports_location(tmp_path, capsys, text, line):
    cfgpath = _write_config(tmp_path, text=text)
    assert main(["simulate", str(cfgpath)]) == 2
    assert f"config error: {cfgpath}:{line}:" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize(
    "text,line",
    [
        (GOOD_CONFIG.replace("name = sfg-bpsk", "name = ../escaped"), NAME_LINE),
        (GOOD_CONFIG.replace("name = sfg-bpsk", "name = summary"), NAME_LINE),
        (DUPLICATE_NAME_CONFIG, DUPLICATE_NAME_LINE),
    ],
    ids=["parent-dir", "summary", "duplicate"],
)
def test_simulate_rejects_unsafe_or_duplicate_name(tmp_path, capsys, text, line):
    """An experiment name is an output file stem: one that leaves --out, hits
    summary.json or repeats another experiment's is a config error, and the
    run writes nothing."""
    cfgpath = _write_config(tmp_path, text=text)
    assert main(["simulate", str(cfgpath), "--out", str(tmp_path / "out" / "sub")]) == 2
    assert f"config error: {cfgpath}:{line}:" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["run.cfg"]


def test_simulate_huge_source_brightness_with_thermal_residual_runs(tmp_path):
    """At N_S = 1e200 sqrt(N_S (N_S + 1)) overflows, but every channel moment
    of the sweep is finite: the residual run ends and writes its curve."""
    text = _plus("include_thermal_residual = true").replace("N_S = 0.01", "N_S = 1e200")
    assert main(["simulate", str(_write_config(tmp_path, text=text))]) == 0
    rows = (tmp_path / "out" / "sfg-bpsk.csv").read_text().splitlines()
    assert len(rows) == 4 and all("nan" not in row and "inf" not in row for row in rows)


@pytest.mark.parametrize("tau", ["1e-11", "1e-300"])
def test_simulate_tiny_sfg_tau_runs(tmp_path, tau):
    """A tap this small asks for 3.4e9 or 3.4e298 cycles; the count rate is a
    closed form, so the run is as quick as at the default tap."""
    assert main(["simulate", str(_write_config(tmp_path, text=_plus(f"sfg_tau = {tau}")))]) == 0


#: GOOD_CONFIG with the SFG tunables written out at their defaults
FUZZ_BASE = _plus("sfg_tau = 0.0001\nsfg_capture_eps = 0.001\ninclude_thermal_residual = false")
#: values the fuzz test writes: numbers at and past each edge, words and
#: sweeps; the integers stay small so that no case runs long
FUZZ_TOKENS = (
    "1e-11", "1e-300", "1e-320", "-0.001", "0", "1", "3", "-1", "0.01", "0.5", "100", "1000",
    "2000", "1e308", "nan", "inf", "-inf", "abc", "", "true", "maybe", "sfg", "pa", "heterodyne",
    "pam", "bpsk", "qpsk", "json", "summary", "../x", "0:1:3", "0.25:0.75:3", "0:0:1", "1:0:3",
    "0.5:0.5:1", "0:2:4", "0:1e-300:2", "nan:1:3", "1:2",
)


def test_simulate_fuzzed_config_exits_cleanly(tmp_path, capsys):
    """300 configs with 1-3 values of FUZZ_BASE replaced from FUZZ_TOKENS:
    simulate returns an exit code every time and raises nothing, and every
    config error names a line of the file."""
    rng = random.Random(1)
    lines = FUZZ_BASE.format(outdir=tmp_path / "unused").splitlines()
    slots = [k for k, line in enumerate(lines) if " = " in line and not line.startswith("directory")]
    cfgpath = tmp_path / "run.cfg"
    codes = collections.Counter()
    for case in range(300):
        mutated = list(lines)
        for k in rng.sample(slots, rng.randint(1, 3)):
            mutated[k] = f"{mutated[k].split(' = ')[0]} = {rng.choice(FUZZ_TOKENS)}"
        text = "\n".join(mutated) + "\n"
        cfgpath.write_text(text)
        try:
            code = main(["simulate", str(cfgpath), "--out", str(tmp_path / "out")])
        except Exception as exc:
            pytest.fail(f"case {case} raised {exc!r} on\n{text}")
        assert code in (0, 2, 3), (case, code, text)
        err = capsys.readouterr().err
        if code == 2:
            where = re.search(rf"config error: {re.escape(str(cfgpath))}:(\d+):", err)
            assert where and 1 <= int(where[1]) <= len(mutated), (case, err, text)
        codes[code] += 1
    assert codes[0] > 0 and codes[2] > 0, codes


def test_simulate_missing_config_io_error(tmp_path, capsys):
    for config in (tmp_path / "absent.cfg", tmp_path):  # missing, then a directory
        assert main(["simulate", str(config)]) == 3
        assert "cannot read config" in capsys.readouterr().err


def test_simulate_non_utf8_config_names_its_line(tmp_path, capsys):
    cfgpath = tmp_path / "run.cfg"
    body = GOOD_CONFIG.format(outdir=tmp_path / "out").encode()
    # a Latin-1 e-acute before an ASCII letter is not UTF-8
    cfgpath.write_bytes(body.replace(b"name = sfg-bpsk", b"name = sfg-\xe9bpsk"))
    assert main(["simulate", str(cfgpath)]) == 2
    assert f"config error: {cfgpath}:{NAME_LINE}:" in capsys.readouterr().err


def test_link_budget_output(capsys):
    code = main([
        "link-budget",
        "--gt", "100", "--gr", "100", "--f-hz", "1e9",
        "--rt", "10", "--rr", "10", "--sigma-q", "0.01",
        "--t", "290", "--w", "1e6", "--ts", "1e-3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "6042.119563" in out
    assert "M = 1000" in out
    eta_line = next(line for line in out.splitlines() if line.startswith("eta"))
    assert float(eta_line.split("=")[1].split()[0]) == pytest.approx(
        4.5290989990698180e-07, rel=1e-12
    )
    assert "phase (omega R / c convention)" in out
    assert "phase (2 pi R / c convention, verbatim)" in out


def test_link_budget_quarter_on_doubled_distance(capsys):
    def eta_for(rr):
        main([
            "link-budget",
            "--gt", "100", "--gr", "100", "--f-hz", "1e9",
            "--rt", "10", "--rr", rr, "--sigma-q", "0.01",
            "--t", "290", "--w", "1e6", "--ts", "1e-3",
        ])
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("eta"))
        return float(line.split("=")[1].split()[0])

    assert eta_for("20") == pytest.approx(eta_for("10") / 4.0, rel=1e-12)


def test_link_budget_rejects_nonpositive(capsys):
    good = {
        "--gt": "100", "--gr": "100", "--f-hz": "1e9",
        "--rt": "10", "--rr": "10", "--sigma-q": "0.01",
        "--t": "290", "--w": "1e6", "--ts": "1e-3",
    }
    for bad in (
        {"--rt": "-10"},
        {"--gt": "nan"},
        {"--ts": "inf"},
        {"--t": "inf"},
        {"--tag-phase": "nan"},
        # finite, but W T_s and R_t^2 R_r^2 leave the double range
        {"--w": "1e300", "--ts": "1e300"},
        {"--rt": "1e-200"},
    ):
        argv = [word for item in {**good, **bad}.items() for word in item]
        assert main(["link-budget", *argv]) == 2, bad
        assert "invalid link budget" in capsys.readouterr().err


def test_link_budget_rejects_an_infinite_result(capsys):
    """Finite inputs whose eta and N_Z overflow exit 2 with a message instead
    of printing eta = inf and N_Z = inf."""
    code = main([
        "link-budget",
        "--gt", "1", "--gr", "1", "--f-hz", "1e-150", "--rt", "1", "--rr", "1",
        "--sigma-q", "1", "--t", "1e150", "--w", "1e9", "--ts", "1e-5",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid link budget" in captured.err and "float range" in captured.err
    assert "inf" not in captured.out


def test_link_budget_names_an_overflowing_mode_count(capsys):
    """W T_s past the float range exits 2 and says so, instead of printing
    math.floor's raw OverflowError text."""
    code = main([
        "link-budget",
        "--gt", "100", "--gr", "100", "--f-hz", "1e9", "--rt", "10", "--rr", "10",
        "--sigma-q", "0.01", "--t", "290", "--w", "1e300", "--ts", "1e300",
    ])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "invalid link budget: W * T_s leaves the float range (inf)\n"


@pytest.mark.parametrize(
    "argv, eta",
    [
        (["--gt", "100", "--gr", "100", "--f-hz", "1e160", "--rt", "1", "--rr", "10",
          "--sigma-q", "0.01"], 4.5290989990698174e-307),
        (["--gt", "1e145", "--gr", "1e145", "--f-hz", "7.1e152", "--rt", "1", "--rr", "1",
          "--sigma-q", "1"], 0.008984524894008764),
        (["--gt", "1e150", "--gr", "1e300", "--f-hz", "1e300", "--rt", "1", "--rr", "1",
          "--sigma-q", "1"], 4.529098999069819e-137),
    ],
    ids=["denominator", "denominator-eta-near-1e-2", "numerator-and-denominator"],
)
def test_link_budget_prints_eta_past_the_float_range(capsys, argv, eta):
    """A denominator omega^2 R_t^2 R_r^2 past the float range, alone or with
    the numerator G_r G_t c^2 sigma_Q, still prints the true eta (frozen from
    exact rational arithmetic on the inputs), not 0 or nan, and exits 0."""
    code = main(["link-budget", *argv, "--t", "290", "--w", "1e6", "--ts", "1e-3"])
    out = capsys.readouterr().out
    assert code == 0
    eta_line = next(line for line in out.splitlines() if line.startswith("eta"))
    assert float(eta_line.split("=")[1]) == pytest.approx(eta, rel=1e-12)


def test_link_budget_keeps_eta_when_a_tiny_radius_offsets_omega_squared(capsys):
    """At f = 1e160 Hz omega^2 alone overflows, but R_t = 1e-200 brings the
    denominator back into range: eta is about 4.5e93 and is flagged, not 0."""
    code = main([
        "link-budget",
        "--gt", "100", "--gr", "100", "--f-hz", "1e160",
        "--rt", "1e-200", "--rr", "10", "--sigma-q", "0.01",
        "--t", "290", "--w", "1e6", "--ts", "1e-3",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "eta = 4.529" in out and "exceeds 1" in out


def test_security_report(capsys):
    assert main(["security"]) == 0
    out = capsys.readouterr().out
    assert "ratio = 4" in out
    assert out.startswith("SFG/coherent-probe heterodyne exponent ratio = 4\n")
    assert "0.50: penalty 0.5" in out
    assert "negates the PA-receiver gain" in out


def test_security_simulation(capsys):
    assert main(["security", "--simulate", "--trials", "20000", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if "eavesdropper BER" in l)
    ber = float(line.split("=")[1].split()[0])
    assert abs(ber - 0.5) < 3 * math.sqrt(0.25 / 20000)


@pytest.mark.parametrize(
    "bad",
    [
        ["--m", "0"],
        ["--ns", "0"],
        ["--ns", "inf"],
        ["--eta", "nan"],
        ["--eta", "1.5"],
        ["--nz=-1"],
        ["--nz", "nan"],
        ["--ns", "1e-320"],
        ["--m", str(10**400)],
        ["--seed", "-1"],
        ["--trials", "9999"],
    ],
    ids=lambda bad: " ".join(bad)[:24],
)
def test_security_simulation_rejects_bad_numbers(bad, capsys, monkeypatch):
    """Bad numbers are refused before the report's first line, so nothing is
    printed, and a closed stdout does not turn the refusal into an I/O failure."""
    argv = ["security", "--simulate", "--trials", "10000", *bad]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid security arguments" in err
    monkeypatch.setattr(sys, "stdout", _closed_file())
    assert main(argv) == 2
    assert "invalid security arguments" in capsys.readouterr().err


def test_usage_error_exit_code():
    assert main(["bogus-command"]) == 2


def test_cached_parser_keeps_no_state(tmp_path, capsys):
    """main builds its parser once per process; no call's arguments, defaults
    or errors may reach the next call."""
    assert build_parser() is build_parser()
    cfgpath = _write_config(tmp_path)  # seed = 7, format = csv

    def run(out, *extra):
        assert main(["simulate", str(cfgpath), "--out", str(tmp_path / out), *extra]) == 0
        summary = json.loads((tmp_path / out / "summary.json").read_text())
        return [entry["seed"] for entry in summary]

    assert run("a", "--seed", "5", "--format", "json") == [5]
    assert run("b") == [7]  # the config's seed, and its csv format
    assert (tmp_path / "b" / "sfg-bpsk.csv").is_file()
    assert not (tmp_path / "b" / "sfg-bpsk.json").exists()

    table = tmp_path / "table.json"
    assert main(["bounds", "--sweep", "1:2:2", "--format", "json", "--seed", "9",
                 "--out", str(table)]) == 0
    assert [row["s"] for row in json.loads(table.read_text())] == [1.0, 2.0]
    assert run("c") == [7]

    assert main(["simulate", str(cfgpath), "--seed", "not-a-number"]) == 2
    assert main(["simulate"]) == 2
    assert run("d") == [7]
    assert (tmp_path / "d" / "sfg-bpsk.csv").read_bytes() == (tmp_path / "b" / "sfg-bpsk.csv").read_bytes()
