import hashlib
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellpair.simulate as sim
from bellpair.protocol import AngleSettings, estimate_correlation
from bellpair.simulate import (
    CHUNK,
    SimConfig,
    SimConfigError,
    _draw_counts,
    _stream_key,
    joint_probabilities,
    simulate,
)
from bellpair.states import PauliDecomposition, compose, decompose, singlet, unpolarized, werner
from oracles import correlation, searchsorted_counts


# SHA-256 of "phi1!r,phi2!r,n_pp,n_pm,n_mp,n_mm\n" per simulated pair; the
# same cases and digests pin the benchmark's output checks
GOLDEN = [
    (singlet, [(0.0, 45.0, 22.5, 67.5)], 1000, 0,
     "b10181e9b9a9750bec9ab4942241a06b4a0b82f96c7e7daaa84cda0d0951b035"),
    (lambda: werner(0.8), [(50.0, 0.0, 25.0, 75.0), (120.0, 0.0, 60.0, 180.0)], 100000, 0,
     "d9fa51a0e1070c4cf3fc05194e0fadf872ed9bff941574861959b3d16d0240b4"),
    (lambda: compose(PauliDecomposition(
        A=np.array([0.3, 0.0, 0.4]),
        P=np.array([0.0, 0.5, 0.0]),
        D=np.array([[0.0, 0.15, 0.0], [0.0, 0.0, 0.0], [0.0, 0.2, 0.0]]))),
     [(10.0, 100.0, 55.0, 145.0)], 12345, 2**64 - 1,
     "7b1971be7ba90d458c0ac3d7207d748a71ae40a62c48a0f164fa6b336cac22e6"),
]


def _settings(count):
    return tuple((7.0 * k, 45.0 + 11.0 * k) for k in range(count))


def _force_workers(monkeypatch, workers):
    """Pretend to have ``workers`` cores and let any run use all of them."""
    monkeypatch.setattr(sim, "_usable_cores", lambda: workers)
    monkeypatch.setattr(sim, "_THREAD_WORDS", 1)


def test_joint_probabilities_singlet_aligned():
    p = joint_probabilities(decompose(singlet()), 30.0, 30.0)
    assert np.allclose(p, [0.0, 0.5, 0.5, 0.0], atol=1e-12)


def test_joint_probabilities_unpolarized():
    p = joint_probabilities(decompose(unpolarized()), 17.0, 121.0)
    assert np.allclose(p, [0.25, 0.25, 0.25, 0.25], atol=1e-12)


def test_joint_probabilities_werner_example():
    p = joint_probabilities(decompose(werner(0.9)), 50.0, 25.0)
    lo = (1 - 0.9 * math.cos(math.radians(25.0))) / 4
    hi = (1 + 0.9 * math.cos(math.radians(25.0))) / 4
    assert np.allclose(p, [lo, hi, hi, lo], atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(gamma=st.floats(0.0, 1.0), phi1=st.floats(-360, 720), phi2=st.floats(-360, 720))
def test_joint_probabilities_normalized_and_consistent(gamma, phi1, phi2):
    rho = werner(gamma)
    p = np.asarray(joint_probabilities(decompose(rho), phi1, phi2))
    assert np.all(p >= 0.0)
    assert float(p.sum()) == pytest.approx(1.0, abs=1e-10)
    assert p[0] + p[3] - p[1] - p[2] == pytest.approx(correlation(rho, phi1, phi2), abs=1e-10)


def test_simulation_is_bitwise_deterministic():
    cfg = SimConfig(
        state=werner(0.9),
        settings=((90.0, 45.0), (90.0, 135.0), (0.0, 45.0), (0.0, 135.0)),
        events_per_setting=10_000,
        seed=123456789,
    )
    assert simulate(cfg) == simulate(cfg)


def test_different_seeds_differ():
    base = dict(state=werner(0.5), settings=((10.0, 60.0),), events_per_setting=10_000)
    a = simulate(SimConfig(seed=1, **base))
    b = simulate(SimConfig(seed=2, **base))
    assert a != b


def test_zero_probability_outcomes_never_drawn():
    cfg = SimConfig(state=singlet(), settings=((42.0, 42.0),), events_per_setting=50_000, seed=9)
    table = simulate(cfg)[0]
    assert table.n_pp == 0 and table.n_mm == 0
    assert table.total == 50_000


def test_counts_total_matches_events():
    cfg = SimConfig(state=werner(0.3), settings=((0.0, 45.0), (5.0, 95.0)), events_per_setting=777, seed=4)
    for table in simulate(cfg):
        assert table.total == 777


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(state=singlet(), settings=((0.0, 0.0),), events_per_setting=0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(state=singlet(), settings=((0.0, 0.0),), events_per_setting=10, seed=-1)
    with pytest.raises(ValueError):
        SimConfig(state=singlet(), settings=((0.0, 0.0),), events_per_setting=10, seed=2**64)


@pytest.mark.parametrize("events, seed", [(0, 1), (10, -1), (10, 2**64), (2.5, 1), (10, "1")])
def test_config_errors_have_their_own_class(events, seed):
    with pytest.raises(SimConfigError):
        SimConfig(state=singlet(), settings=((0.0, 0.0),), events_per_setting=events, seed=seed)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_angles(angle):
    for pair in ((angle, 0.0), (0.0, angle)):
        with pytest.raises(SimConfigError, match="settings angles must be finite"):
            SimConfig(state=werner(0.9), settings=((10.0, 20.0), pair), events_per_setting=1000, seed=1)


@pytest.mark.parametrize("field, value", [
    ("events_per_setting", 2.5), ("seed", 1.5), ("events_per_setting", "10"), ("seed", "10"),
])
def test_config_rejects_non_integers(field, value):
    kwargs = dict(state=singlet(), settings=((0.0, 0.0),), events_per_setting=10, seed=1)
    kwargs[field] = value
    with pytest.raises(ValueError, match="must be an integer"):
        SimConfig(**kwargs)


def test_config_takes_numpy_integers_as_python_ints():
    cfg = SimConfig(state=singlet(), settings=((0.0, 0.0),), events_per_setting=np.int64(10),
                    seed=np.uint64(2**64 - 1))
    assert type(cfg.events_per_setting) is int and type(cfg.seed) is int
    assert simulate(cfg) == simulate(SimConfig(state=singlet(), settings=((0.0, 0.0),),
                                               events_per_setting=10, seed=2**64 - 1))


def test_no_settings_give_no_tables():
    assert simulate(SimConfig(state=singlet(), settings=(), events_per_setting=10, seed=1)) == []


def test_single_large_run_lands_within_five_sigma():
    rho = werner(0.9)
    table = simulate(
        SimConfig(state=rho, settings=((50.0, 25.0),), events_per_setting=10**6, seed=2024)
    )[0]
    e, sigma = estimate_correlation(table)
    assert abs(e - correlation(rho, 50.0, 25.0)) <= 5 * sigma


def test_estimator_mean_converges_over_seeds():
    rho = werner(0.9)
    phi1, phi2 = 50.0, 25.0
    truth = correlation(rho, phi1, phi2)
    n = 10_000
    estimates = []
    for seed in range(100):
        table = simulate(
            SimConfig(state=rho, settings=((phi1, phi2),), events_per_setting=n, seed=seed)
        )[0]
        estimates.append(estimate_correlation(table)[0])
    standard_error = math.sqrt((1 - truth**2) / n) / math.sqrt(len(estimates))
    assert abs(np.mean(estimates) - truth) <= 3 * standard_error


def test_estimator_spread_scales_as_inverse_root_n():
    rho = werner(0.9)
    phi1, phi2 = 50.0, 25.0
    spreads = {}
    for n in (100, 10_000, 1_000_000):
        estimates = []
        for seed in range(100):
            table = simulate(
                SimConfig(state=rho, settings=((phi1, phi2),), events_per_setting=n, seed=seed)
            )[0]
            estimates.append(estimate_correlation(table)[0])
        spreads[n] = float(np.std(estimates, ddof=1))
    # sigma ~ 1/sqrt(N): consecutive decades differ by a factor 10
    assert spreads[100] / spreads[10_000] == pytest.approx(10.0, rel=0.2)
    assert spreads[10_000] / spreads[1_000_000] == pytest.approx(10.0, rel=0.2)


def test_inferred_statistics_reproduce_reference_error_bars():
    # Inverting the multinomial error model against the published errors
    # (2.3 - 3.0 on each CHSH combination) gives about one event per angle
    # pair.  At that depth the simulated spread of the signed combination
    # must land within a factor 2 of every published error bar.  The signed
    # combination is used because |.| folds at such low statistics.
    from bellpair.dataset import embedded_data

    rho = werner(0.9)
    for datum in embedded_data():
        pairs = datum.settings.pairs()
        model_var = sum(1 - correlation(rho, p1, p2) ** 2 for p1, p2 in pairs)
        n_inferred = max(1, round(model_var / datum.dr_exp**2))
        assert n_inferred == 1
        combos = []
        for seed in range(500):
            tables = simulate(
                SimConfig(state=rho, settings=pairs, events_per_setting=n_inferred, seed=seed)
            )
            e = [estimate_correlation(t)[0] for t in tables]
            combos.append(e[0] + e[1] + e[2] - e[3])
        simulated_dr = float(np.std(combos, ddof=1))
        assert 0.5 <= datum.dr_exp / simulated_dr <= 2.0


def test_setting_streams_are_order_independent():
    rho = werner(0.7)
    pair_a, pair_b = (10.0, 40.0), (20.0, 80.0)
    both = simulate(
        SimConfig(state=rho, settings=(pair_a, pair_b), events_per_setting=5000, seed=31)
    )
    # stream 0 alone reproduces the first table regardless of what follows
    alone = simulate(SimConfig(state=rho, settings=(pair_a,), events_per_setting=5000, seed=31))
    assert both[0] == alone[0]


@pytest.mark.parametrize("make_state, rows, events, seed, digest", GOLDEN)
def test_counts_match_golden_digests(make_state, rows, events, seed, digest):
    pairs = [pair for row in rows for pair in AngleSettings(*row).pairs()]
    tables = simulate(SimConfig(state=make_state(), settings=pairs, events_per_setting=events, seed=seed))
    canon = "".join(f"{t.phi1!r},{t.phi2!r},{t.n_pp},{t.n_pm},{t.n_mp},{t.n_mm}\n" for t in tables)
    assert hashlib.sha256(canon.encode()).hexdigest() == digest


@pytest.mark.parametrize("make_state, rows, events, seed, digest", GOLDEN)
def test_counts_match_golden_digests_under_python312_sum(python312_sum, make_state, rows, events, seed, digest):
    test_counts_match_golden_digests(make_state, rows, events, seed, digest)


def test_counts_match_searchsorted_oracle():
    fixed = [
        np.array([0.1, 0.4, 0.3, 0.2]),
        joint_probabilities(decompose(werner(0.37)), 12.5, 81.0),
        joint_probabilities(decompose(singlet()), 42.0, 42.0),  # bins ++ and -- empty, last edge at 2^53
        np.array([0.25, 0.0, 0.0, 0.75]),  # two zero-width middle bins
        np.array([0.0, 0.0, 0.0, 1.0]),  # every edge at 0
    ]
    sizes = (1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7)
    for seed in [*range(19), 2**64 - 1]:
        # all three edges on the stream's first draw tell "below" from "at or below"
        first = np.random.Generator(np.random.Philox(key=_stream_key(seed, 0))).integers(
            1 << 53, dtype=np.uint64)
        on_draw = np.array([first / 2**53, 0.0, 0.0, 1.0 - first / 2**53])
        for index, probs in enumerate([on_draw, *fixed]):
            key = _stream_key(seed, index)
            for n in sizes:
                assert _draw_counts(probs, n, key) == searchsorted_counts(probs, n, key)


def test_sampler_memory_is_bounded(monkeypatch):
    # one long setting, and eight settings drawn on two concurrent threads
    _force_workers(monkeypatch, 2)
    for pairs, events in ((((10.0, 60.0),), 4_000_000), (_settings(8), 400_000)):
        cfg = SimConfig(state=werner(0.5), settings=pairs, events_per_setting=events, seed=5)
        tracemalloc.start()
        try:
            assert [t.total for t in simulate(cfg)] == [events] * len(pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


@pytest.mark.parametrize("workers", [1, 2, 3, 16])
def test_concurrent_counts_match_oracle_for_any_worker_count(monkeypatch, workers):
    _force_workers(monkeypatch, workers)
    rho = werner(0.37)
    pd = decompose(rho)
    for count in (1, 4, 9):
        pairs = _settings(count)
        for n in (CHUNK - 1, CHUNK, 3 * CHUNK + 7):
            tables = simulate(SimConfig(state=rho, settings=pairs, events_per_setting=n, seed=77))
            assert [(t.phi1, t.phi2) for t in tables] == list(pairs)
            for index, (t, (phi1, phi2)) in enumerate(zip(tables, pairs)):
                want = searchsorted_counts(joint_probabilities(pd, phi1, phi2), n, _stream_key(77, index))
                assert [t.n_pp, t.n_pm, t.n_mp, t.n_mm] == want


@pytest.mark.parametrize("workers, count", [(2, 4), (3, 9), (16, 3)])
def test_settings_are_striped_over_worker_threads(monkeypatch, workers, count):
    _force_workers(monkeypatch, workers)
    draw = sim._draw_counts
    seen = []

    def recording(probs, n, key):
        seen.append((key, threading.current_thread()))
        return draw(probs, n, key)

    monkeypatch.setattr(sim, "_draw_counts", recording)
    simulate(SimConfig(state=werner(0.6), settings=_settings(count), events_per_setting=100, seed=3))
    assert sorted(key for key, _ in seen) == [_stream_key(3, i) for i in range(count)]
    assert len({thread for _, thread in seen}) == min(workers, count)
    assert threading.main_thread() in {thread for _, thread in seen}


def _threads_started(monkeypatch):
    started = []
    thread = threading.Thread

    def recording(*args, **kwargs):
        started.append(thread(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(sim.threading, "Thread", recording)
    return started


@pytest.mark.parametrize("workers, count", [(1, 5), (4, 1)])
def test_no_thread_is_started_for_one_core_or_one_setting(monkeypatch, workers, count):
    _force_workers(monkeypatch, workers)
    started = _threads_started(monkeypatch)
    tables = simulate(SimConfig(state=werner(0.6), settings=_settings(count), events_per_setting=100, seed=3))
    assert len(tables) == count and started == []


def test_threads_only_for_runs_worth_them(monkeypatch):
    monkeypatch.setattr(sim, "_usable_cores", lambda: 4)
    started = _threads_started(monkeypatch)
    pairs = _settings(4)
    simulate(SimConfig(state=werner(0.6), settings=pairs, events_per_setting=CHUNK // 4 - 1, seed=3))
    assert started == []
    simulate(SimConfig(state=werner(0.6), settings=pairs, events_per_setting=CHUNK // 2, seed=3))
    assert len(started) == 1  # 2^17 words: the calling thread and one helper


@pytest.mark.parametrize("failing", [0, 1, 4])
def test_error_in_one_setting_propagates(monkeypatch, failing):
    _force_workers(monkeypatch, 2)
    draw = sim._draw_counts

    def faulty(probs, n, key):
        if key == _stream_key(8, failing):
            raise MemoryError(f"setting {failing}")
        return draw(probs, n, key)

    monkeypatch.setattr(sim, "_draw_counts", faulty)
    running = threading.active_count()
    with pytest.raises(MemoryError, match=f"setting {failing}"):
        simulate(SimConfig(state=werner(0.6), settings=_settings(5), events_per_setting=100, seed=8))
    assert threading.active_count() == running  # the helper was joined


def test_decompose_runs_once_on_the_calling_thread(monkeypatch):
    _force_workers(monkeypatch, 3)
    original = sim.decompose
    callers = []

    def recording(rho):
        callers.append(threading.current_thread())
        return original(rho)

    monkeypatch.setattr(sim, "decompose", recording)
    simulate(SimConfig(state=werner(0.6), settings=_settings(6), events_per_setting=100, seed=2))
    assert callers == [threading.current_thread()]
