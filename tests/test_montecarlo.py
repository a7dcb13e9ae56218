"""Monte Carlo harness: seeding, determinism, curves, exponent fits."""

import math
from dataclasses import replace

import numpy as np
import pytest

from qbcsim.link import (
    Alphabet,
    AlphabetKind,
    ChannelParams,
    Symbol,
    apply_channel_classical,
    make_alphabet_bpsk,
    make_alphabet_qpsk,
    min_squared_distance,
    return_idler_moments,
)
from qbcsim.gaussian import heterodyne_samples
from qbcsim.montecarlo import (
    _BLOCK,
    _GAMMA,
    _MASK64,
    _SYMBOL_SALT,
    BerCurve,
    BerCurvePoint,
    ExperimentConfig,
    _block_trials,
    _counter_hash,
    _mix64_inplace,
    count_errors,
    analytic_bound_value,
    derive_trial_seed,
    eve_random_phase_ber,
    fit_error_exponent,
    nominal_alphabet,
    normals,
    run_experiment,
    run_experiments,
    uniforms,
    wilson_interval,
)
import qbcsim.montecarlo as montecarlo
from qbcsim.receivers import (
    ReceiverKind,
    ReceiverSpec,
    UnsupportedAlphabetError,
    _nearest_index,
    pa_decision_grid,
    point_decider,
    sfg_count_rate,
    sfg_null_symbol,
)

#: uniform rows the SFG-QPSK rule reads, the most of any rule: its entry
#: offset and one wait per hypothesis
QPSK_DRAWS = 5


def test_seed_derivation_deterministic():
    assert derive_trial_seed(42, 3, 7) == derive_trial_seed(42, 3, 7)


def test_seed_derivation_distinguishes_indices():
    assert derive_trial_seed(42, 0, 0) != derive_trial_seed(42, 0, 1)
    assert derive_trial_seed(42, 0, 0) != derive_trial_seed(42, 1, 0)
    assert derive_trial_seed(42, 0, 0) != derive_trial_seed(43, 0, 0)


def test_seed_derivation_no_collisions_at_scale():
    seen = set()
    for point in range(10):
        for trial in range(100_000):
            seen.add(derive_trial_seed(7, point, trial))
    assert len(seen) == 10 * 100_000


def test_seed_derivation_rejects_negative():
    with pytest.raises(ValueError):
        derive_trial_seed(1, -1, 0)


def test_counter_hash_array_matches_int_path():
    """The engine hashes uint64 blocks of trial indices; each element must
    equal the Python-int hash of that trial."""
    trials = np.arange(5000, dtype=np.uint64)
    for seed in (7, 20260810, 2**62 + 5):
        block = _counter_hash(seed, 3, trials)
        assert [int(h) for h in block] == [_counter_hash(seed, 3, t) for t in range(5000)]


def _curve_from_values(ss, bers):
    pts = tuple(
        BerCurvePoint(
            s=s, empirical_ber=b, wilson_ci_low=0.0, wilson_ci_high=1.0,
            analytic_bound=b, trials=1000, errors=int(b * 1000),
        )
        for s, b in zip(ss, bers)
    )
    return BerCurve(points=pts)


def test_fit_exponent_synthetic_unit_slope():
    ss = np.linspace(1, 5, 9)
    curve = _curve_from_values(ss, np.exp(-ss))
    assert fit_error_exponent(curve, s_min=0.0) == pytest.approx(1.0, abs=1e-9)


def test_fit_exponent_synthetic_slope_four():
    ss = np.linspace(0.5, 3, 6)
    curve = _curve_from_values(ss, np.exp(-4 * ss))
    assert fit_error_exponent(curve, s_min=0.0) == pytest.approx(4.0, abs=1e-9)


def test_fit_exponent_needs_three_points():
    curve = _curve_from_values([1.0, 2.0], [0.1, 0.01])
    with pytest.raises(ValueError):
        fit_error_exponent(curve, s_min=0.0)
    curve = _curve_from_values([1.0, 2.0, 3.0], [0.1, 0.0, 0.0])
    with pytest.raises(ValueError):
        fit_error_exponent(curve, s_min=0.0)


def test_wilson_interval_brackets():
    lo, hi = wilson_interval(5, 100)
    assert lo < 0.05 < hi
    lo, hi = wilson_interval(0, 1000)
    assert lo == 0.0
    assert hi > 0.0


def _config(**overrides):
    values = dict(
        alphabet_kind=AlphabetKind.BPSK,
        receiver=ReceiverSpec(kind=ReceiverKind.HETERODYNE),
        N_S=0.1,
        N_Z=20.0,
        M=1000,
        sweep=(0.5, 1.0, 2.0),
        trials_per_point=2000,
        master_seed=99,
    )
    values.update(overrides)
    return ExperimentConfig(**values)


def test_chance_level_at_zero_snr():
    for kind, chance in ((AlphabetKind.BPSK, 0.5), (AlphabetKind.QPSK, 0.75)):
        for receiver in (ReceiverKind.HETERODYNE, ReceiverKind.SFG):
            cfg = _config(
                alphabet_kind=kind,
                receiver=ReceiverSpec(kind=receiver),
                sweep=(0.0, 0.5),
                trials_per_point=4000,
            )
            curve = run_experiment(cfg)
            ber0 = curve.points[0].empirical_ber
            se = math.sqrt(chance * (1 - chance) / cfg.trials_per_point)
            assert abs(ber0 - chance) < 3 * se, (kind, receiver, ber0)
    cfg = _config(
        alphabet_kind=AlphabetKind.PAM,
        receiver=ReceiverSpec(kind=ReceiverKind.PA),
        sweep=(0.0, 0.5),
        trials_per_point=4000,
    )
    ber0 = run_experiment(cfg).points[0].empirical_ber
    assert abs(ber0 - 0.5) < 3 * math.sqrt(0.25 / 4000)


def test_sfg_thermal_residual_reaches_simulation():
    """include_thermal_residual changes what run_experiment counts: each point
    matches the exact zero-photon error probability with the Bose-Einstein
    floor, 1/2 (1 - p0(null)) + 1/2 p0(other), within a z = 4 Wilson interval."""
    on = ReceiverSpec(kind=ReceiverKind.SFG, include_thermal_residual=True)
    cfg = _config(receiver=on, N_S=0.01, N_Z=100.0, M=1_000_000, sweep=(0.25, 0.5, 1.0),
                  trials_per_point=20_000)
    curve = run_experiment(cfg)
    for pt in curve.points:
        eta = cfg.eta_for(pt.s)
        cp = ChannelParams(eta=eta, phi=0.0, N_Z=cfg.N_Z, M=cfg.M, N_S=cfg.N_S)
        amp = math.sqrt(eta)
        other, null = Symbol(amp, 0.0), Symbol(amp, math.pi)
        tau, _, K = on.sfg_cycles(cp.N_Z)
        moments = [return_idler_moments(cp, sym) for sym in (null, other)]
        nbar_null, nbar_other = (n_i * tau * n_r for n_r, n_i, _ in moments)
        p0_null = (1.0 + nbar_null) ** -K
        p0_other = math.exp(-sfg_count_rate(cp, 4.0 * eta, on)) * (1.0 + nbar_other) ** -K
        exact = 0.5 * (1.0 - p0_null) + 0.5 * p0_other
        lo, hi = wilson_interval(pt.errors, pt.trials, z=4.0)
        assert lo <= exact <= hi, (pt.s, pt.errors, exact)
    off = run_experiment(replace(cfg, receiver=ReceiverSpec(kind=ReceiverKind.SFG)))
    assert [p.errors for p in off.points] != [p.errors for p in curve.points]


def test_heterodyne_ber_respects_lower_bound():
    # the classical bound holds in its asymptotic regime, so keep eta << 1
    cfg = _config(
        N_S=0.01, N_Z=100.0, M=1_000_000,
        trials_per_point=20_000, sweep=(0.25, 1.0, 2.0, 4.0),
    )
    curve = run_experiment(cfg)
    for pt in curve.points:
        sigma = math.sqrt(max(pt.empirical_ber * (1 - pt.empirical_ber), 1e-9) / pt.trials)
        assert pt.empirical_ber >= pt.analytic_bound - 3 * sigma


def test_run_experiment_deterministic():
    cfg = _config()
    assert run_experiment(cfg) == run_experiment(cfg)


@pytest.mark.parametrize("receiver,alphabet", [
    (ReceiverKind.HETERODYNE, AlphabetKind.BPSK),
    (ReceiverKind.PA, AlphabetKind.PAM),
    (ReceiverKind.SFG, AlphabetKind.BPSK),
    (ReceiverKind.SFG, AlphabetKind.QPSK),
])
def test_kept_rules_are_reusable(receiver, alphabet):
    """A config builds its points' rules and bounds once: running it twice,
    or twice in one run_experiments call, gives the curves of a freshly
    built equal config, whose rules are its own."""
    cfg = _link_config(receiver, alphabet, sweep=(0.5, 1.0, 1.5), trials_per_point=1000)
    first = run_experiment(cfg)
    assert run_experiment(cfg) == first
    assert run_experiments([cfg, cfg]) == [first, first]
    fresh = replace(cfg)
    assert fresh == cfg and fresh.rules is not cfg.rules and len(fresh.rules) == len(cfg.sweep)
    assert run_experiment(fresh) == first
    assert [pt.analytic_bound for pt in first.points] == list(cfg.bounds)


def test_run_experiment_parallel_invariance():
    """Each trial is a pure function of (master_seed, point, trial): counts
    over [0, n) equal the sum over an uneven split whose pieces cross block
    boundaries at other offsets, for every receiver rule."""
    n = _BLOCK + 4321
    cuts = [0, 1234, _BLOCK + 1, n - 7, n]
    for receiver, alphabet in (
        (ReceiverKind.HETERODYNE, AlphabetKind.BPSK),
        (ReceiverKind.PA, AlphabetKind.BPSK),
        (ReceiverKind.SFG, AlphabetKind.BPSK),
        (ReceiverKind.SFG, AlphabetKind.QPSK),
    ):
        cfg = _config(receiver=ReceiverSpec(kind=receiver), alphabet_kind=alphabet, N_S=0.01,
                      N_Z=100.0, M=1_000_000, sweep=(0.25, 1.0), trials_per_point=n)
        for p, (pt, rule) in enumerate(zip(run_experiment(cfg).points, cfg.rules)):
            assert pt.errors == count_errors([(p, rule)], cfg.n_symbols, cfg.master_seed, 0, n)[0]
            parts = [count_errors([(p, rule)], cfg.n_symbols, cfg.master_seed, a, b - a)[0]
                     for a, b in zip(cuts, cuts[1:])]
            assert sum(parts) == pt.errors, (receiver, alphabet, p)


def _reference_errors(decide, n_symbols, master_seed, point_index, count):
    """One point's errors over trials [0, count), all hashed in one array
    with `_counter_hash`: the engine without blocks or grouping.  Draw k of a
    trial with hash h is _mix64(h + k _GAMMA), k = 1..draws."""
    h = _counter_hash(master_seed, point_index, np.arange(count, dtype=np.uint64))
    steps = np.array([[k * _GAMMA & _MASK64] for k in range(1, decide.draws + 1)], dtype=np.uint64)
    words = _mix64_inplace(np.vstack([h ^ _SYMBOL_SALT, h + steps]))
    i = (words[0] & np.uint64(n_symbols - 1)).astype(np.intp)
    u = uniforms(words[1:])
    z = normals(u, decide.normals) if decide.normals else None
    return int(np.count_nonzero(decide(i, u, z) != i))


@pytest.mark.parametrize("receiver,alphabet,draws", [
    (ReceiverKind.SFG, AlphabetKind.BPSK, 1),
    (ReceiverKind.HETERODYNE, AlphabetKind.QPSK, 2),
    (ReceiverKind.SFG, AlphabetKind.QPSK, QPSK_DRAWS),
])
@pytest.mark.parametrize("shape", ["shared", "spanning", "rows-split"])
def test_grouped_blocks_match_per_point_counts(receiver, alphabet, draws, shape):
    """run_experiment hashes a sweep's points together: whole points share a
    block (9 points x 1000 trials), one point spans several blocks, or the
    points' hash rows of a block exceed the _BLOCK word budget and are
    finished in several arrays.  Each point's count equals the point counted
    alone, the unblocked reference and the sum over an uneven split of its
    trial range."""
    per_block = _block_trials(draws)
    if shape == "shared":
        sweep, n = tuple(0.25 * k for k in range(1, 10)), 1000
        assert 2 * n <= per_block
        cuts = [0, 377, 620, n - 3, n]
    elif shape == "rows-split":
        sweep, n = tuple(0.25 * k for k in range(1, 10)), per_block + 7
        assert len(sweep) * per_block > _BLOCK
        cuts = [0, 5, per_block, n - 3, n]
    else:
        sweep, n = (0.5, 1.0), 2 * per_block + 1234
        cuts = [0, 777, per_block + 5, n - 3, n]
    cfg = _config(receiver=ReceiverSpec(kind=receiver), alphabet_kind=alphabet, N_S=0.01,
                  N_Z=100.0, M=1_000_000, sweep=sweep, trials_per_point=n)
    n_symbols, rules = cfg.n_symbols, list(enumerate(cfg.rules))
    assert {decide.draws for _, decide in rules} == {draws}
    for (p, decide), pt in zip(rules, run_experiment(cfg).points):
        assert pt.errors == count_errors([(p, decide)], n_symbols, cfg.master_seed, 0, n)[0]
        assert pt.errors == _reference_errors(decide, n_symbols, cfg.master_seed, p, n)
        parts = [count_errors([(p, decide)], n_symbols, cfg.master_seed, a, b - a)[0]
                 for a, b in zip(cuts, cuts[1:])]
        assert sum(parts) == pt.errors, (receiver, alphabet, shape, p)


@pytest.mark.parametrize("draws", range(1, QPSK_DRAWS + 1))
def test_block_words_stay_below_mmap_threshold(draws):
    """A block's word array, the hash row and `draws` uniform rows, holds at
    least one trial and at most 128 KiB: glibc maps larger allocations afresh,
    so such a block and each same-sized temporary page-faults every time."""
    per_block = _block_trials(draws)
    limit = 128 * 1024
    assert per_block >= 1
    assert (draws + 1) * per_block * 8 <= limit, (
        f"{draws + 1} rows x {per_block} trials exceed 128 KiB, glibc's mmap "
        "threshold: every block allocation would page-fault")
    widths = []

    def spy(i, u, z):
        widths.append((u.base if u.base is not None else u).shape[-1])
        return i

    spy.draws, spy.normals = draws, 0
    count_errors([(p, spy) for p in range(9)], 2, 5, 0, 1000)
    count_errors([(0, spy)], 2, 5, 0, 3 * per_block + 1)
    assert 0 < (draws + 1) * max(widths) * 8 <= limit


#: per-point error counts at master seed 20261018 over 2^16 + 4321 trials per
#: point (N_S = 0.01, N_Z = 100, M = 1e6, s = 0.5, 1, 2).  They pin the trial
#: stream: any change to the hash, the draws or a rule that moves a count
#: must edit this table and say why.
_GOLDEN_COUNTS = {
    (ReceiverKind.HETERODYNE, AlphabetKind.PAM, False): (21638, 16841, 10817),
    (ReceiverKind.HETERODYNE, AlphabetKind.BPSK, False): (11120, 5414, 1623),
    (ReceiverKind.HETERODYNE, AlphabetKind.QPSK, False): (29578, 20459, 10321),
    (ReceiverKind.PA, AlphabetKind.PAM, False): (16774, 11182, 5245),
    (ReceiverKind.PA, AlphabetKind.BPSK, False): (5461, 1546, 164),
    (ReceiverKind.SFG, AlphabetKind.PAM, False): (21372, 12979, 4771),
    (ReceiverKind.SFG, AlphabetKind.PAM, True): (21826, 13612, 5761),
    (ReceiverKind.SFG, AlphabetKind.BPSK, False): (4926, 667, 11),
    (ReceiverKind.SFG, AlphabetKind.BPSK, True): (5945, 1769, 1260),
    (ReceiverKind.SFG, AlphabetKind.QPSK, False): (32480, 16992, 3743),
    (ReceiverKind.SFG, AlphabetKind.QPSK, True): (32480, 16992, 3743),
}


@pytest.mark.parametrize("receiver,alphabet,residual", list(_GOLDEN_COUNTS))
def test_error_counts_are_pinned(receiver, alphabet, residual):
    """Every supported receiver/alphabet pair reproduces its recorded counts
    over a trial range that crosses block boundaries."""
    n = (1 << 16) + 4321
    assert n > _BLOCK
    spec = ReceiverSpec(kind=receiver, include_thermal_residual=residual)
    cfg = _config(receiver=spec, alphabet_kind=alphabet, N_S=0.01, N_Z=100.0, M=1_000_000,
                  sweep=(0.5, 1.0, 2.0), trials_per_point=n, master_seed=20261018)
    got = tuple(pt.errors for pt in run_experiment(cfg).points)
    assert got == _GOLDEN_COUNTS[receiver, alphabet, residual]


def _link_config(receiver, alphabet, M=1_000_000, **overrides):
    """A config at the bench's operating point, N_S = 0.01 and N_Z = 100."""
    return _config(receiver=ReceiverSpec(kind=receiver), alphabet_kind=alphabet, N_S=0.01,
                   N_Z=100.0, M=M, **overrides)


def _binary_configs(seeds, trials=2000):
    """The four binary experiments of the mc-binary bench on the given seeds:
    het/PA/SFG-BPSK and SFG-PAM, each with its own 3-point sweep."""
    plans = (
        (ReceiverKind.HETERODYNE, AlphabetKind.BPSK, 1_000_000, (0.5, 1.0, 1.5)),
        (ReceiverKind.PA, AlphabetKind.BPSK, 10_000_000, (0.5, 1.0, 1.5)),
        (ReceiverKind.SFG, AlphabetKind.BPSK, 10_000_000, (0.25, 0.5, 0.75)),
        (ReceiverKind.SFG, AlphabetKind.PAM, 10_000_000, (1.0, 2.0, 3.0)),
    )
    return [_link_config(rx, alphabet, M, sweep=sweep, trials_per_point=trials, master_seed=seed)
            for (rx, alphabet, M, sweep), seed in zip(plans, seeds)]


def test_run_experiments_equals_each_experiment_alone():
    """A mixed list, interleaved so that groups are not contiguous: the four
    binary experiments on one seed, SFG- and het-QPSK on that seed (another
    alphabet size), an experiment on another seed, one with another trial
    count, and two whose 2-point sweeps span several blocks.  Each curve
    equals the experiment run alone, point for point, and each count the
    point counted alone."""
    het, pa, sfg, pam = _binary_configs([11] * 4)
    spanning = 2 * _block_trials(2) + 1234
    cfgs = [
        het,
        _link_config(ReceiverKind.SFG, AlphabetKind.QPSK, sweep=(0.5, 1.5, 2.5), master_seed=11),
        pa,
        replace(het, master_seed=12),
        sfg,
        _link_config(ReceiverKind.HETERODYNE, AlphabetKind.QPSK, sweep=(0.5, 1.5), master_seed=11),
        replace(sfg, trials_per_point=3000),
        pam,
        _link_config(ReceiverKind.PA, AlphabetKind.PAM, sweep=(0.5, 1.0),
                     trials_per_point=spanning, master_seed=13),
        _link_config(ReceiverKind.HETERODYNE, AlphabetKind.PAM, sweep=(0.25, 0.5),
                     trials_per_point=spanning, master_seed=13),
    ]
    curves = run_experiments(cfgs)
    assert curves == [run_experiment(c) for c in cfgs]
    for cfg, curve in zip(cfgs, curves):
        alone = [count_errors([rule], cfg.n_symbols, cfg.master_seed, 0, cfg.trials_per_point)[0]
                 for rule in enumerate(cfg.rules)]
        assert [pt.errors for pt in curve.points] == alone, cfg
    assert run_experiments([]) == []


@pytest.mark.parametrize("alphabet,rx_draws", [
    (AlphabetKind.BPSK, ((ReceiverKind.SFG, 1), (ReceiverKind.HETERODYNE, 2), (ReceiverKind.PA, 2))),
    (AlphabetKind.QPSK, ((ReceiverKind.SFG, QPSK_DRAWS), (ReceiverKind.HETERODYNE, 2))),
])
def test_rules_sharing_a_point_count_as_alone(alphabet, rx_draws):
    """Rules at duplicated point indices, with different draws, read one set
    of columns per point, over a range spanning several blocks: each rule
    counts what it counts alone and what the unblocked reference counts."""
    n = 2 * _block_trials(QPSK_DRAWS) + 77
    rules = []
    for rx, draws in rx_draws:
        cfg = _link_config(rx, alphabet, sweep=(0.5, 1.0, 1.5), trials_per_point=n)
        n_symbols, point_rules = cfg.n_symbols, list(enumerate(cfg.rules))
        assert {decide.draws for _, decide in point_rules} == {draws}
        rules += point_rules[::-1]
    assert len({p for p, _ in rules}) < len(rules)
    counts = count_errors(rules, n_symbols, 99, 0, n)
    for (p, decide), got in zip(rules, counts):
        assert got == count_errors([(p, decide)], n_symbols, 99, 0, n)[0]
        assert got == _reference_errors(decide, n_symbols, 99, p, n), (p, decide.draws)


def test_normal_rows_are_made_once_per_reading_point(monkeypatch):
    """The engine makes each point's normal rows once, with the most rows its
    rules read: 1 at a PA-only point, 2 at a point with a heterodyne rule,
    where the PA rule reads the same rows, and none at an SFG-only point."""
    made = []

    def spy(u, rows):
        made.append((rows, u.shape[-1]))
        return normals(u, rows)

    monkeypatch.setattr(montecarlo, "normals", spy)
    het, pa, sfg, _ = (cfg.rules[0] for cfg in _binary_configs([31] * 4))
    rules = [(0, pa), (1, het), (1, pa), (2, sfg)]
    counts = count_errors(rules, 2, 31, 0, 1000)
    assert made == [(1, 1000), (2, 1000)]
    assert counts == [count_errors([rule], 2, 31, 0, 1000)[0] for rule in rules]


@pytest.mark.parametrize("shared", [True, False])
def test_shared_seed_hashes_each_point_once(monkeypatch, shared):
    """Four 3-point experiments at 2000 trials finish 3 x 2000 hash words
    when they share a seed, and 12 x 2000 when their seeds differ."""
    words = []
    finish = montecarlo._finish_hash

    def spy(z):
        words.append(z.size)
        return finish(z)

    monkeypatch.setattr(montecarlo, "_finish_hash", spy)
    run_experiments(_binary_configs([21] * 4 if shared else [21, 22, 23, 24]))
    assert sum(words) == (3 if shared else 12) * 2000


def test_rules_cannot_write_shared_inputs():
    """The engine hands rules read-only i, u and normal rows, so a rule that
    writes in place into columns other rules read raises.  Every receiver
    rule and the eavesdropper's rule read only, and count what the writable
    reference arrays give."""

    def scale_u(i, u, z):
        u[0] *= 2.0
        return i

    def relabel(i, u, z):
        i[:] = 0
        return i

    def scale_z(i, u, z):
        z[0] *= 2.0
        return i

    for rule, draws, normal_rows in ((scale_u, 1, 0), (relabel, 1, 0), (scale_z, 2, 1)):
        rule.draws, rule.normals = draws, normal_rows
        with pytest.raises(ValueError):
            count_errors([(0, rule)], 2, 5, 0, 1000)
    for receiver, alphabet, residual in _GOLDEN_COUNTS:
        spec = ReceiverSpec(kind=receiver, include_thermal_residual=residual)
        cfg = _config(receiver=spec, alphabet_kind=alphabet, N_S=0.01, N_Z=100.0, M=1_000_000,
                      sweep=(0.0, 0.5, 1.0))
        n_symbols, rules = cfg.n_symbols, list(enumerate(cfg.rules))
        for (p, decide), got in zip(rules, count_errors(rules, n_symbols, 5, 0, 1000)):
            assert got == _reference_errors(decide, n_symbols, 5, p, 1000), (receiver, alphabet)
    for dist in ("uniform", "binary", "none"):
        ber = eve_random_phase_ber(0.01, 0.01, 10_000, 100.0, 10_000, np.random.default_rng(1), dist)
        assert 0.0 <= ber <= 1.0


def _q(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _exact_ber(cfg, eta):
    """Exact symbol-error probability of a sweep point's decision statistic."""
    cp = ChannelParams(eta=eta, phi=0.0, N_Z=cfg.N_Z, M=cfg.M, N_S=cfg.N_S)
    noise = (1.0 - eta) * cfg.N_Z + 1.0
    kind, alphabet = cfg.receiver.kind, cfg.alphabet_kind
    if kind is ReceiverKind.HETERODYNE and alphabet is AlphabetKind.BPSK:
        return 0.5 * math.erfc(math.sqrt(eta * cfg.M * cfg.N_S / noise))
    if kind is ReceiverKind.HETERODYNE and alphabet is AlphabetKind.QPSK:
        sd = math.sqrt(noise / (2.0 * cfg.M * cfg.N_S))
        return 1.0 - (1.0 - _q(math.sqrt(eta / 2.0) / sd)) ** 2
    if kind is ReceiverKind.PA:
        grid = pa_decision_grid(make_alphabet_bpsk(eta), cp)
        return _q(abs(grid[0] - grid[1]) / (2.0 * math.sqrt(cfg.N_Z / cfg.M)))
    if alphabet is AlphabetKind.QPSK:
        return _sfg_qpsk_ser(cp, cfg.receiver)
    d2 = {AlphabetKind.BPSK: 4.0 * eta, AlphabetKind.PAM: eta}[alphabet]
    return 0.5 * math.exp(-sfg_count_rate(cp, d2, cfg.receiver))


def _sfg_qpsk_ser(cp, spec):
    """Exact SER of the sequential click test.  The entry offset puts the true
    symbol, which never clicks, behind 0 to 3 others with equal probability:
    none; a neighbour; the opposite and a neighbour; neighbour, opposite and
    neighbour.  It is missed when those waits, each geometric on {1, 2, ...}
    with P(W > w) = e^(-r w), outlast the M mode pairs."""
    M = cp.M
    r_n, r_o = (sfg_count_rate(cp, d2, spec) / M for d2 in (2.0 * cp.eta, 4.0 * cp.eta))
    click = -math.expm1(-r_n)  # 1 - q, q = e^(-r_n)
    w = np.arange(1, M + 1, dtype=float)
    o_outlasts = np.exp(-r_o * (M - w))  # P(W_o > M - w)
    n_pmf = click * np.exp(-r_n * (w - 1.0))  # P(W_n = w)
    nn_pmf = (w - 1.0) * click**2 * np.exp(-r_n * (w - 2.0))  # P(W_n + W_n = w)
    n_tail = math.exp(-r_n * M)
    nn_tail = n_tail + M * click * math.exp(-r_n * (M - 1))
    return 0.25 * (n_tail + (n_pmf @ o_outlasts + n_tail) + (nn_pmf @ o_outlasts + nn_tail))


@pytest.mark.parametrize(
    "receiver,alphabet,M,sweep",
    [
        (ReceiverKind.HETERODYNE, AlphabetKind.BPSK, 1_000_000, (0.5, 1.0, 2.0, 4.0)),
        (ReceiverKind.HETERODYNE, AlphabetKind.QPSK, 1_000_000, (0.5, 1.0, 2.0, 4.0)),
        (ReceiverKind.PA, AlphabetKind.BPSK, 10_000_000, (0.5, 1.0, 2.0, 3.0)),
        (ReceiverKind.SFG, AlphabetKind.BPSK, 10_000_000, (0.25, 0.5, 1.0, 1.5)),
        (ReceiverKind.SFG, AlphabetKind.PAM, 10_000_000, (1.0, 2.0, 4.0, 6.0)),
        (ReceiverKind.SFG, AlphabetKind.QPSK, 1_000_000, (0.5, 1.0, 2.0, 3.0)),
    ],
    ids=["het-bpsk", "het-qpsk", "pa-bpsk", "sfg-bpsk", "sfg-pam", "sfg-qpsk"],
)
def test_run_experiment_matches_exact_ber(receiver, alphabet, M, sweep):
    """Monte Carlo counts fall inside the z = 4 Wilson interval of the exact
    error probability of each receiver's decision statistic."""
    cfg = _config(receiver=ReceiverSpec(kind=receiver), alphabet_kind=alphabet,
                  N_S=0.01, N_Z=100.0, M=M, sweep=sweep, trials_per_point=200_000)
    for pt in run_experiment(cfg).points:
        exact = _exact_ber(cfg, cfg.eta_for(pt.s))
        lo, hi = wilson_interval(pt.errors, pt.trials, z=4.0)
        assert lo <= exact <= hi, (pt.s, pt.empirical_ber, exact)


def test_run_experiment_monotone_up_to_ci():
    cfg = _config(trials_per_point=20_000, sweep=(0.5, 1.0, 1.5, 2.0, 3.0))
    curve = run_experiment(cfg)
    for a, b in zip(curve.points, curve.points[1:]):
        assert b.empirical_ber <= a.wilson_ci_high


@pytest.mark.parametrize("receiver,alphabet,value", [
    (ReceiverKind.HETERODYNE, AlphabetKind.PAM, 0.25),
    (ReceiverKind.HETERODYNE, AlphabetKind.BPSK, 0.25),
    (ReceiverKind.HETERODYNE, AlphabetKind.QPSK, 0.125),
    (ReceiverKind.PA, AlphabetKind.PAM, 1.0),
    (ReceiverKind.PA, AlphabetKind.BPSK, 1.0),
    (ReceiverKind.SFG, AlphabetKind.PAM, 1.0),
    (ReceiverKind.SFG, AlphabetKind.BPSK, 1.0),
    (ReceiverKind.SFG, AlphabetKind.QPSK, 1.0),
])
def test_bound_at_zero_eta(receiver, alphabet, value):
    """At eta = 0 every symbol sits at 0 and each bound formula is read at
    d^2 = 0: erfc(0) / 2|A| for heterodyne, exp(0) = min(1, 4) = 1 otherwise."""
    assert analytic_bound_value(receiver, nominal_alphabet(alphabet, 0.0), 0.01, 10_000, 100.0) == value


def test_degenerate_alphabets():
    """Coincident symbols, as at eta = 0: distance 0, and the zero-photon
    test nulls PAM's first symbol and BPSK's phase-pi one.  The PA grid
    still rejects QPSK."""
    a = Alphabet((Symbol(0.0, 0.0), Symbol(0.0, 0.0)), AlphabetKind.PAM)
    assert min_squared_distance(a) == 0.0
    for kind, index in ((AlphabetKind.PAM, 0), (AlphabetKind.BPSK, 1)):
        a0 = nominal_alphabet(kind, 0.0)
        assert sfg_null_symbol(a0) is a0.symbols[index]
    with pytest.raises(UnsupportedAlphabetError):
        pa_decision_grid(make_alphabet_qpsk(0.01), ChannelParams(0.01, 0.0, 100.0, 10_000, 0.01))


@pytest.mark.parametrize("receiver, alphabet", [
    (ReceiverKind.HETERODYNE, AlphabetKind.PAM),
    (ReceiverKind.HETERODYNE, AlphabetKind.BPSK),
    (ReceiverKind.HETERODYNE, AlphabetKind.QPSK),
    (ReceiverKind.PA, AlphabetKind.PAM),
    (ReceiverKind.PA, AlphabetKind.BPSK),
])
def test_rules_declare_first_symbol_at_zero_eta(receiver, alphabet):
    """At eta = 0 every symbol sits at 0, so every distance the heterodyne and
    PA rules compare ties and each trial declares symbol 0, with no special
    case in the rule."""
    cp = ChannelParams(0.0, 0.0, 100.0, 10_000, 0.01)
    a = nominal_alphabet(alphabet, 0.0)
    decide = point_decider(cp, a, ReceiverSpec(kind=receiver))
    rng = np.random.default_rng(22)
    n = 4096
    true = rng.integers(len(a), size=n)
    u = uniforms(rng.integers(0, 2**64, size=(decide.draws, n), dtype=np.uint64))
    assert not decide(true, u, normals(u, decide.normals)).any()


def test_pa_qpsk_rejected():
    with pytest.raises(UnsupportedAlphabetError):
        _config(
            alphabet_kind=AlphabetKind.QPSK,
            receiver=ReceiverSpec(kind=ReceiverKind.PA),
        )


def test_eta_backsolve_guard():
    with pytest.raises(ValueError):
        _config(sweep=(0.5, 1000.0))


def test_trials_floor():
    with pytest.raises(ValueError):
        _config(trials_per_point=10)


def test_sweep_must_increase():
    with pytest.raises(ValueError):
        _config(sweep=(1.0, 0.5))


@pytest.mark.parametrize("sweep", [(0.1, math.nan, 0.5), (0.1, math.inf), (math.nan,)])
def test_non_finite_sweep_is_rejected(sweep):
    """A NaN point fails both the sign and the ordering comparison, and an
    infinite one back-solves to eta = inf: each is refused by name."""
    with pytest.raises(ValueError, match="sweep values must be finite and >= 0"):
        _config(sweep=sweep)


def test_heterodyne_fast_path_matches_literal_sampling():
    """The envelope drawn from its exact Gaussian law must reproduce the BER of
    literally averaging M per-copy heterodyne samples."""
    N_S, N_Z, M, eta = 0.1, 20.0, 400, 0.05
    s = eta * N_S * M / N_Z
    cfg = _config(M=M, sweep=(s,), trials_per_point=20_000, master_seed=5)
    fast = run_experiment(cfg).points[0].empirical_ber

    cp = ChannelParams(eta=eta, phi=0.0, N_Z=N_Z, M=M, N_S=N_S)
    from qbcsim.link import make_alphabet_bpsk

    a = make_alphabet_bpsk(eta)
    rng = np.random.default_rng(12345)
    trials = 20_000
    errors = 0
    states = [apply_channel_classical(cp, sym) for sym in a.symbols]
    points = np.array([sym.complex_point() for sym in a.symbols])
    for _ in range(trials):
        i = int(rng.integers(2))
        samples = heterodyne_samples(states[i], 0, M, rng)
        env = samples.mean() / math.sqrt(N_S)
        errors += _nearest_index(env, points) != i
    literal = errors / trials
    se = math.sqrt(2 * max(fast, literal) * (1 - min(fast, literal)) / trials)
    assert abs(fast - literal) < 4 * se
