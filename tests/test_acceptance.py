"""Acceptance gate: one test per headline property, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines
as they complete.  These tests work at the documented operating point
(M = N = 2, I = 513, J ~ 120, K = 20, 200 iterations) where noted, so the
module takes several minutes; the rest of the test suite covers the same
components at small scale.
"""

import time

import numpy as np
import pytest

import helpers
import oracles
from sgmnmf import audio, metrics, model, objective, optimizer, separate, simulate


def _report(name, ok, detail):
    print(f"[ACCEPT] {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


def _descent_scene(seed, length=30000):
    room = simulate.RoomSpec(rt60=0.3, seed=seed)
    dries = [
        simulate.gen_subgaussian_source(length, "am_tone", [seed, n])
        for n in range(2)
    ]
    return simulate.mix(dries, simulate.synth_rir(room))


def test_descent_guarantee_full_scale():
    """Cost is nonincreasing at every sub-update on 20 full-size scenes."""
    cfg = helpers.stft_16k()
    worst = -np.inf
    worst_at = ""
    max_elapsed = 0.0
    for seed in range(20):
        bundle = _descent_scene(seed)
        X = audio.stft(bundle.mixture, cfg)
        assert X.shape[0] == 513 and 115 <= X.shape[1] <= 125
        hyper = model.Hyperparams(
            beta=4.0, n_sources=2, n_bases=20, iterations=200, seed=seed
        )
        state = model.init_state(hyper, *X.shape)
        prev = objective.cost_ggd_jd(state, X)
        violations = []

        def audit(name, st, seed=seed):
            nonlocal prev, worst, worst_at
            cost = objective.cost_ggd_jd(st, X)
            jump = (cost - prev) / abs(prev)
            if jump > worst:
                worst = jump
                worst_at = f"seed {seed} sub-update {name}"
            if cost > prev + 1e-8 * abs(prev):
                violations.append((name, prev, cost))
            prev = cost

        t0 = time.perf_counter()
        optimizer.run(state, X, on_subupdate=audit)
        elapsed = time.perf_counter() - t0
        max_elapsed = max(max_elapsed, elapsed)
        assert not violations, f"seed {seed}: cost rose at {violations[:3]}"
        assert elapsed < 120.0, f"seed {seed}: {elapsed:.1f} s for 200 iterations"
    _report(
        "descent-guarantee",
        True,
        f"20 scenes x 200 iterations, worst relative jump {worst:+.2e} at "
        f"{worst_at}, slowest audited scene {max_elapsed:.1f} s < 120 s",
    )


@pytest.mark.parametrize("seed", [1009, 3])
def test_descent_three_channels_full_size(seed):
    """Cost is nonincreasing at every sub-update on an M = N = 3 scene at size."""
    room = simulate.RoomSpec(n_sources=3, n_mics=3, rt60=0.3, seed=seed)
    dries = [
        simulate.gen_subgaussian_source(32000, "am_tone", [seed, n]) for n in range(3)
    ]
    X = audio.stft(simulate.mix(dries, simulate.synth_rir(room)).mixture, helpers.stft_16k())
    assert X.shape == (513, 128, 3)
    hyper = model.Hyperparams(beta=4.0, n_sources=3, n_bases=20, iterations=30, seed=seed)
    state = model.init_state(hyper, *X.shape)
    prev = objective.cost_ggd_jd(state, X)
    worst = -np.inf
    violations = []

    def audit(name, st):
        nonlocal prev, worst
        cost = objective.cost_ggd_jd(st, X)
        worst = max(worst, (cost - prev) / abs(prev))
        if cost > prev + 1e-8 * abs(prev):
            violations.append((name, prev, cost))
        prev = cost

    optimizer.run(state, X, on_subupdate=audit)
    _report(
        "descent-three-channels",
        not violations,
        f"seed {seed}, M = N = 3, 513 x 128, 30 iterations, worst relative jump "
        f"{worst:+.2e}, violations {violations[:3]}",
    )


def test_majorization_suite():
    """Separable surrogate majorizes the cost; tight at the matched aux."""
    rng = np.random.default_rng(2024)
    worst_margin = np.inf
    worst_equality = 0.0
    for _ in range(200):
        beta = float(rng.uniform(2.0 + 1e-6, 4.0))
        st = helpers.random_state(rng, n_bins=2, n_frames=3, n_bases=2, beta=beta)
        X = helpers.random_mixture(rng, 2, 3, 2)
        other = helpers.random_state(rng, n_bins=2, n_frames=3, n_bases=2, beta=beta)
        other.spatial.Q = st.spatial.Q.copy()
        aux = oracles.equality_aux(other, X)
        cost = objective.cost_ggd_jd(st, X)
        margin = (oracles.surrogate_tvzg(st, X, aux) - cost) / abs(cost)
        worst_margin = min(worst_margin, margin)

        tight = oracles.surrogate_tvzg(st, X, oracles.equality_aux(st, X))
        worst_equality = max(worst_equality, abs(tight - cost) / abs(cost))
    ok = worst_margin >= -1e-10 and worst_equality <= 1e-10
    _report(
        "majorization-suite",
        ok,
        f"200 draws, worst relative margin {worst_margin:+.2e} >= -1e-10, "
        f"worst equality gap {worst_equality:.2e} <= 1e-10",
    )


def test_amgm_bound():
    """y^beta <= (beta/4) y^4 / a^(4-beta) + (1 - beta/4) a^beta."""
    rng = np.random.default_rng(77)
    n = 10_000
    y = rng.uniform(0.01, 5.0, n)
    a = rng.uniform(0.01, 5.0, n)
    beta = rng.uniform(2.0 + 1e-9, 4.0, n)
    lhs = y**beta
    rhs = (beta / 4.0) * y**4 / a ** (4.0 - beta) + (1.0 - beta / 4.0) * a**beta
    gap = (rhs - lhs) / np.maximum(np.abs(rhs), 1e-300)
    worst = float(gap.min())

    rhs_eq = (beta / 4.0) * y**4 / y ** (4.0 - beta) + (1.0 - beta / 4.0) * y**beta
    eq_gap = float((np.abs(rhs_eq - lhs) / np.abs(lhs)).max())
    ok = worst >= -1e-12 and eq_gap <= 1e-12
    _report(
        "am-gm-bound",
        ok,
        f"10^4 triples, worst relative slack {worst:+.2e} >= -1e-12, "
        f"equality gap at a = y {eq_gap:.2e} <= 1e-12",
    )


def test_row_matrix_collinearity():
    """The solved row system matches the scaled textbook matrix.

    Oracle chain: l_j = (|p_j|^(4-beta) r_j^beta)^(1/4), H = [x_j / l_j],
    a = H^H q, A = ||a||^2 I - a a^H + diag(|a_j|^2); the textbook matrix
    is sqrt(beta) / (2 sqrt(J sum |a_j|^4)) * H A H^H, and the code's
    system must be collinear with it after Frobenius normalization.
    """
    rng = np.random.default_rng(31337)
    worst = 0.0
    for _ in range(50):
        n_bins, n_frames, n_ch = 1, int(rng.integers(4, 9)), int(rng.integers(2, 4))
        beta = float(rng.uniform(2.0 + 1e-6, 4.0))
        st = helpers.random_state(
            rng, n_bins=n_bins, n_frames=n_frames, n_channels=n_ch, beta=beta
        )
        X = helpers.random_mixture(rng, n_bins, n_frames, n_ch)
        m = int(rng.integers(0, n_ch))
        terms = oracles.row_update_terms(st, X, m)
        got = terms["B"][0]

        p = model.projections(st, X)[0, :, m]
        r = terms["r"][0]
        q = st.spatial.Q[0, m].conj()
        l = (np.abs(p) ** (4.0 - beta) * r**beta) ** 0.25
        h = (X[0].T / l[None, :]).astype(np.complex128)
        a = h.conj().T @ q
        big_a = (
            np.vdot(a, a) * np.eye(n_frames)
            - np.outer(a, a.conj())
            + np.diag(np.abs(a) ** 2)
        )
        core = h @ big_a @ h.conj().T
        textbook = (
            np.sqrt(beta) / (2.0 * np.sqrt(n_frames * (np.abs(a) ** 4).sum()))
        ) * core

        diff = got / np.linalg.norm(got) - textbook / np.linalg.norm(textbook)
        worst = max(worst, float(np.linalg.norm(diff)))
    ok = worst <= 1e-8
    _report(
        "row-matrix-collinearity",
        ok,
        f"50 instances, worst normalized Frobenius distance {worst:.2e} <= 1e-8",
    )


def test_scale_step_identity():
    """After each row update, sum_j |q^H x_j|^beta / r_j^beta = 2J/beta."""
    rng = np.random.default_rng(555)
    worst = 0.0
    for _ in range(50):
        n_frames = int(rng.integers(5, 12))
        beta = float(rng.uniform(2.0 + 1e-6, 4.0))
        st = helpers.random_state(rng, n_bins=3, n_frames=n_frames, beta=beta)
        X = helpers.random_mixture(rng, 3, n_frames, 2)
        got = oracles.post_scale_sums(st, X)
        want = 2.0 * n_frames / beta
        worst = max(worst, float(np.abs(got / want - 1.0).max()))

    cfg = helpers.stft_16k()
    bundle = _descent_scene(1234)
    X = audio.stft(bundle.mixture, cfg)
    st = model.init_state(
        model.Hyperparams(beta=4.0, n_bases=20, iterations=1, seed=0), *X.shape
    )
    got = oracles.post_scale_sums(st, X)
    want = 2.0 * X.shape[1] / 4.0
    worst = max(worst, float(np.abs(got / want - 1.0).max()))
    ok = worst <= 1e-10
    _report(
        "scale-step-identity",
        ok,
        f"50 random instances + full-size scene, worst relative error "
        f"{worst:.2e} <= 1e-10",
    )


def test_oracle_equivalences():
    """Diagonal-domain quantities agree with their full-rank oracles."""
    rng = np.random.default_rng(999)
    worst_full = 0.0
    worst_b2 = 0.0
    worst_wiener = 0.0
    worst_sum = 0.0
    for trial in range(20):
        beta = float(rng.uniform(2.0 + 1e-6, 4.0))
        st = helpers.random_state(
            rng, n_bins=3, n_frames=5, n_channels=2, n_sources=2, beta=beta
        )
        X = helpers.random_mixture(rng, 3, 5, 2)
        sigma = model.compute_source_psd(st.source)
        scm = oracles.full_rank_scm(st)

        diag = objective.cost_ggd_jd(st, X)
        full = oracles.cost_ggd_fullrank(X, scm, sigma, beta)
        worst_full = max(worst_full, abs(full - diag) / abs(diag))

        st2 = helpers.random_state(
            rng, n_bins=3, n_frames=5, beta=2.0, algorithm="gaussian"
        )
        worst_b2 = max(
            worst_b2,
            abs(objective.cost_ggd_jd(st2, X) - oracles.cost_gaussian_jd(st2, X))
            / abs(oracles.cost_gaussian_jd(st2, X)),
        )

        sep = separate.wiener_separate(st, X)
        direct = oracles.wiener_separate_fullrank(X, scm, sigma)
        scale = np.abs(direct).max()
        worst_wiener = max(
            worst_wiener, float(np.abs(sep.spectra - direct).max() / scale)
        )
        worst_sum = max(
            worst_sum,
            float(np.abs(sep.spectra.sum(axis=0) - X).max() / np.abs(X).max()),
        )
    ok = (
        worst_full <= 1e-9
        and worst_b2 <= 1e-12
        and worst_wiener <= 1e-9
        and worst_sum <= 1e-10
    )
    _report(
        "oracle-equivalences",
        ok,
        f"full-rank cost {worst_full:.2e} <= 1e-9, beta=2 identity "
        f"{worst_b2:.2e} <= 1e-12, Wiener filter {worst_wiener:.2e} <= 1e-9, "
        f"estimates sum to mixture {worst_sum:.2e} <= 1e-10",
    )


def test_fixed_point_gradient():
    """Where every multiplicative factor is one, the cost is stationary."""
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(3):
        beta = float(rng.uniform(2.5, 4.0))
        st = helpers.random_state(
            rng, n_bins=3, n_frames=4, n_channels=2, n_bases=3, beta=beta
        )
        chi = model.mixture_gain(st)
        c = ((2.0 / beta) * 2.0 ** ((2.0 - beta) / 2.0)) ** (2.0 / beta)
        phase = np.exp(2j * np.pi * rng.uniform(size=chi.shape))
        p = np.sqrt(c * chi) * phase
        X = np.einsum("iab,ijb->ija", np.linalg.inv(st.spatial.Q), p)

        h = 1e-6
        for arr in (st.source.T, st.source.V, st.source.Z, st.spatial.G):
            flat = arr.reshape(-1)
            for idx in range(flat.size):
                keep = flat[idx]
                flat[idx] = keep * (1 + h)
                up = objective.cost_ggd_jd(st, X)
                flat[idx] = keep * (1 - h)
                down = objective.cost_ggd_jd(st, X)
                flat[idx] = keep
                worst = max(worst, abs(up - down) / (2 * h))
    ok = worst <= 1e-5
    _report(
        "fixed-point-gradient",
        ok,
        f"3 constructed stationary states, worst central difference "
        f"{worst:.2e} <= 1e-5",
    )


def test_qualitative_trend():
    """beta=4 separation beats the mixture and tracks the Gaussian path.

    Ten seeded scenes: two co-modulated multitone sources (ring-like
    per-bin statistics) through rt60 = 0.3 s synthetic rooms.  The
    sub-Gaussian mean SI-SDR improvement must be strictly positive and
    within 0.5 dB of (and expected above) the Gaussian mean.
    """
    cfg = helpers.stft_16k()
    length = 30000
    subs, gausses = [], []
    for seed in range(10):
        bundle = helpers.trend_scene(seed, length=length)
        X = audio.stft(bundle.mixture, cfg)
        scores = {}
        for algo, beta in (("subgaussian", 4.0), ("gaussian", 2.0)):
            hyper = model.Hyperparams(
                beta=beta, n_sources=2, n_bases=20, iterations=200,
                seed=seed, algorithm=algo,
            )
            state = model.init_state(hyper, *X.shape)
            state, _ = optimizer.run(state, X)
            sep = separate.wiener_separate(state, X)
            waves = [audio.istft(s, cfg, length) for s in sep.spectra]
            rep = metrics.sdr_improvement(waves, bundle.images, bundle.mixture)
            scores[algo] = rep.mean_improvement
        subs.append(scores["subgaussian"])
        gausses.append(scores["gaussian"])
    mean_sub = float(np.mean(subs))
    mean_gauss = float(np.mean(gausses))
    wins = sum(s > g for s, g in zip(subs, gausses))
    ok = mean_sub > 0.0 and mean_sub >= mean_gauss - 0.5
    _report(
        "qualitative-trend",
        ok,
        f"10 scenes, mean improvement beta=4 {mean_sub:+.2f} dB (> 0), "
        f"Gaussian {mean_gauss:+.2f} dB, margin {mean_sub - mean_gauss:+.2f} "
        f">= -0.5 dB, beta=4 ahead on {wins}/10 seeds",
    )


def test_reproducibility():
    """Same seed/config, single worker: byte-identical cost traces."""
    cfg = helpers.stft_16k()
    bundle = _descent_scene(4321)
    X = audio.stft(bundle.mixture, cfg)
    rows = []
    for _ in range(2):
        hyper = model.Hyperparams(
            beta=4.0, n_sources=2, n_bases=20, iterations=20, seed=11
        )
        state = model.init_state(hyper, *X.shape)
        _, trace = optimizer.run(state, X, workers=1)
        rows.append(
            [f"{pt.iteration},{pt.cost!r}".encode() for pt in trace.points]
        )
    ok = rows[0] == rows[1]
    _report(
        "reproducibility",
        ok,
        f"two 20-iteration runs, {len(rows[0])} trace rows byte-identical "
        "(iteration and cost columns)",
    )
