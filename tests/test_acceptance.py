"""Acceptance suite: one test per headline requirement.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s`` or
on failure) and then asserts, so the summary and the pytest verdict agree.
"""
import itertools
import time
import tracemalloc

import numpy as np

from markovtopics import (
    Hyperparams,
    ModelSpec,
    corpus_from_lists,
    make_prior,
    random_init,
)
from markovtopics import anomaly, em, generate, gibbs, inference, metrics, vb
from markovtopics.ingest import FrameLayout
from markovtopics.model import ModelParams, SufficientCounts

import _oracles
from _oracles import (
    enum_collapsed_posterior,
    enum_expected_counts,
    enum_marginal_and_posteriors,
    log_marginal_likelihood,
    zero_counts,
)
from conftest import random_instance


def _line(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _rel_close(a, b, rtol):
    return np.allclose(a, b, rtol=rtol, atol=rtol)


def test_oracle_equivalence_inference_core():
    """Posteriors, expected counts and log marginal, from the token-level
    path, from the doc-term E-step and from its log-domain pass, match
    exhaustive enumeration within 1e-10 relative error on >= 200 random tiny
    cases."""
    rng = np.random.default_rng(101)
    cases = 0
    worst = 0.0
    for _ in range(220):
        spec, params, corpus = random_instance(rng, max_dim=3, max_docs=4,
                                               max_len=3)
        msgs, post, counts = _oracles.infer(params, corpus)
        oracle = enum_marginal_and_posteriors(params, corpus)
        ok = _rel_close(np.exp(log_marginal_likelihood(msgs)),
                        oracle["marginal"], 1e-10)
        ok &= _rel_close(post.z1, oracle["z1"], 1e-10)
        ok &= _rel_close(post.pair_zz, oracle["pair_zz"], 1e-10)
        for t in range(len(corpus)):
            ok &= _rel_close(post.token_yz[t], oracle["token_yz"][t], 1e-10)
        n_xy, n_yz, n_zz, n_z1 = enum_expected_counts(params, corpus)
        ok &= _rel_close(counts.n_xy, n_xy, 1e-10)
        ok &= _rel_close(counts.n_yz, n_yz, 1e-10)
        ok &= _rel_close(counts.n_zz, n_zz, 1e-10)
        ok &= _rel_close(counts.n_z1, n_z1, 1e-10)
        log_lik, fast = inference.e_step(params, corpus)
        ok &= _rel_close(np.exp(log_lik), oracle["marginal"], 1e-10)
        ok &= _rel_close(fast.n_xy, n_xy, 1e-10)
        ok &= _rel_close(fast.n_yz, n_yz, 1e-10)
        ok &= _rel_close(fast.n_zz, n_zz, 1e-10)
        ok &= _rel_close(fast.n_z1, n_z1, 1e-10)
        log_k, slow = _oracles.log_e_step(params, corpus)
        ok &= _rel_close(np.exp(log_k), oracle["marginal"], 1e-10)
        ok &= _rel_close(slow.n_xy, n_xy, 1e-10)
        ok &= _rel_close(slow.n_yz, n_yz, 1e-10)
        ok &= _rel_close(slow.n_zz, n_zz, 1e-10)
        ok &= _rel_close(slow.n_z1, n_z1, 1e-10)
        if not ok:
            worst += 1
        cases += 1
    _line("oracle equivalence (inference core)", worst == 0,
          f"{cases} randomized cases vs enumeration at 1e-10 rel, "
          f"{int(worst)} mismatches")


def test_em_objective_monotonicity():
    """20 seeded 100-iteration fits on a T=500, N=30, X=20, Y=3, Z=2 corpus
    never decrease the MAP objective by more than 1e-8."""
    spec = ModelSpec(20, 3, 2)
    ds = generate.generate(spec, make_prior("1", spec), 500, [30] * 500, seed=0)
    worst = np.inf
    for seed in range(20):
        hyper = make_prior("H+1" if seed % 2 else "1", spec)
        _, trace = em.em_fit(ds.corpus, hyper, spec, seed=seed, max_iters=100)
        worst = min(worst, float(np.diff(trace.objectives).min()))
    _line("EM objective monotonicity", worst >= -1e-8,
          f"worst per-iteration change {worst:.3e} over 20 seeded 100-iter fits")


def test_vb_free_energy_monotonicity():
    """Seeded 40-iteration VB fits under priors 1, H and H+1 on a T=300,
    N=30, X=20, Y=3, Z=2 corpus never decrease the free energy by more than
    1e-8 relative."""
    spec = ModelSpec(20, 3, 2)
    ds = generate.generate(spec, make_prior("1", spec), 300, [30] * 300, seed=0)
    worst = np.inf
    for prior in ("1", "H", "H+1"):
        for seed in range(3):
            _, _, trace = vb.vb_fit(ds.corpus, make_prior(prior, spec), spec, seed=seed,
                                    max_iters=40)
            f = np.asarray(trace.objectives[1:])
            worst = min(worst, float((np.diff(f) / np.abs(f[:-1])).min()))
    _line("VB free energy monotonicity", worst >= -1e-8,
          f"worst relative per-iteration change {worst:.3e} over 9 seeded 40-iter fits")


def test_map_equals_ml_reduction():
    """With the flat prior the M-step is bitwise pure count normalization."""
    rng = np.random.default_rng(7)
    mismatches = 0
    for _ in range(100):
        spec, params, corpus = random_instance(rng)
        _, _, counts = _oracles.infer(params, corpus)
        est = em.m_step(counts, make_prior("1", spec))
        for mat, c in ((est.phi, counts.n_xy), (est.theta, counts.n_yz),
                       (est.xi, counts.n_zz), (est.pi[:, None], counts.n_z1[:, None])):
            denom = c.sum(axis=0)
            ref = np.where(denom > 0, c / np.where(denom > 0, denom, 1.0),
                           1.0 / c.shape[0])
            if not np.array_equal(mat, ref):
                mismatches += 1
    _line("MAP=ML reduction at flat prior", mismatches == 0,
          f"100 random count sets, {mismatches} bitwise mismatches")


def test_formula_equivalence_map_vs_vb():
    """m_step with every hyperparameter raised by one equals the VB
    posterior-mean point estimates entrywise within 1e-12."""
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(100):
        spec = ModelSpec(int(rng.integers(1, 5)), int(rng.integers(1, 4)),
                         int(rng.integers(1, 4)))
        counts = zero_counts(spec)
        counts = SufficientCounts(
            n_xy=rng.gamma(1.0, 2.0, counts.n_xy.shape),
            n_yz=rng.gamma(1.0, 2.0, counts.n_yz.shape),
            n_zz=rng.gamma(1.0, 2.0, counts.n_zz.shape),
            n_z1=rng.gamma(1.0, 2.0, counts.n_z1.shape),
        )
        h = Hyperparams(alpha=rng.uniform(0.05, 5.0, spec.num_topics),
                        beta=rng.uniform(0.05, 5.0, spec.num_words),
                        gamma=rng.uniform(0.05, 5.0, spec.num_behaviours),
                        eta=rng.uniform(0.05, 5.0, spec.num_behaviours))
        shifted = Hyperparams(alpha=h.alpha + 1.0, beta=h.beta + 1.0,
                              gamma=h.gamma + 1.0, eta=h.eta + 1.0)
        a = em.m_step(counts, shifted)
        b = vb.point_estimates(vb.vb_m_step(counts, h))
        worst = max(worst,
                    float(np.abs(a.phi - b.phi).max()),
                    float(np.abs(a.theta - b.theta).max()),
                    float(np.abs(a.xi - b.xi).max()),
                    float(np.abs(a.pi - b.pi).max()))
    _line("formula equivalence (MAP h+1 vs VB point estimate)", worst <= 1e-12,
          f"max entrywise difference {worst:.3e} over 100 random count sets")


def test_gibbs_matches_enumerated_collapsed_posterior():
    """10^5 post-burn-in sweeps on a 2-document corpus reach the exactly
    enumerated collapsed posterior within 0.01 total variation."""
    spec = ModelSpec(2, 2, 2)
    corpus = corpus_from_lists([[0], [1, 0]], spec)
    h = make_prior("1", spec)
    exact = enum_collapsed_posterior(corpus, h)
    state = gibbs.gibbs_init(corpus, spec, seed=23)
    kept = gibbs.chain(state, corpus, h)
    for _ in range(1000):
        gibbs.gibbs_sweep(kept)
    keep = 100_000
    freq = {}
    for _ in range(keep):
        gibbs.gibbs_sweep(kept)
        key = (tuple(int(v) for v in state.z_assign),
               tuple(state.y_flat.tolist()))
        freq[key] = freq.get(key, 0) + 1
    tv = 0.5 * sum(abs(freq.get(k, 0) / keep - p) for k, p in exact.items())
    tv += 0.5 * sum(v / keep for k, v in freq.items() if k not in exact)
    _line("Gibbs stationary distribution", tv < 0.01,
          f"total variation {tv:.4f} vs enumerated posterior over 1e5 sweeps")


def _column_tv(a, b):
    return 0.5 * np.abs(a - b).sum(axis=0)


def _best_perm_tv(est, truth):
    """Mean word/topic-column TV under the best joint topic and behaviour
    relabelling."""
    Y = truth.theta.shape[0]
    Z = truth.theta.shape[1]
    best = np.inf
    for py in itertools.permutations(range(Y)):
        for pz in itertools.permutations(range(Z)):
            phi = est.phi[:, list(py)]
            theta = est.theta[np.ix_(list(py), list(pz))]
            tvs = np.concatenate([_column_tv(phi, truth.phi),
                                  _column_tv(theta, truth.theta)])
            best = min(best, float(tvs.mean()))
    return best


def test_synthetic_parameter_recovery():
    """Each learner recovers well-separated ground truth (mean column TV
    <= 0.15 after relabelling) in at least 16 of 20 seeded runs."""
    truth = ModelParams(
        phi=np.array([[0.45, 0.02], [0.45, 0.02], [0.04, 0.04],
                      [0.02, 0.45], [0.02, 0.45], [0.02, 0.02]]),
        theta=np.array([[0.9, 0.1], [0.1, 0.9]]),
        xi=np.array([[0.85, 0.15], [0.15, 0.85]]),
        pi=np.array([0.5, 0.5]),
    )
    spec = ModelSpec(6, 2, 2)
    # Separation precondition: distinct columns differ by TV >= 0.5.
    assert _column_tv(truth.phi[:, [0]], truth.phi[:, [1]])[0] >= 0.5
    assert _column_tv(truth.theta[:, [0]], truth.theta[:, [1]])[0] >= 0.5
    h = make_prior("1", spec)
    results = {}
    for algo in ("em", "vb", "gs"):
        good = 0
        for seed in range(20):
            ds = generate.generate_from(truth, 150, [25] * 150, seed=1000 + seed)
            if algo == "em":
                est, _ = em.em_fit(ds.corpus, h, spec, seed=seed, max_iters=40)
            elif algo == "vb":
                _, est, _ = vb.vb_fit(ds.corpus, h, spec, seed=seed, max_iters=40)
            else:
                _, est = gibbs.gs_fit(ds.corpus, h, spec, seed=seed,
                                      burn_in=30, num_samples=3, spacing=5)
            if _best_perm_tv(est, truth) <= 0.15:
                good += 1
        results[algo] = good
    ok = all(v >= 16 for v in results.values())
    _line("synthetic parameter recovery", ok,
          "runs with mean column TV <= 0.15 out of 20: "
          + ", ".join(f"{k}={v}" for k, v in results.items()))


def _make_anomaly_setup():
    spec = ModelSpec(20, 3, 2)
    rng = np.random.default_rng(55)
    phi = np.column_stack([rng.dirichlet(np.full(20, 0.3)) for _ in range(3)])
    theta = np.column_stack([rng.dirichlet(np.full(3, 0.5)) for _ in range(2)])
    truth = ModelParams(phi=phi, theta=theta,
                        xi=np.array([[0.9, 0.1], [0.1, 0.9]]),
                        pi=np.array([0.5, 0.5]))
    train = generate.generate_from(truth, 2000, [50] * 2000, seed=0)
    assert train.corpus.num_tokens >= 100_000
    test = generate.generate_from(truth, 500, [50] * 500, seed=1)
    labels = np.zeros(500, dtype=bool)
    anomalous = rng.choice(500, size=25, replace=False)
    labels[anomalous] = True
    docs = []
    for t, words in enumerate(test.corpus):
        docs.append(list(rng.integers(0, 20, size=50) if labels[t] else words))
    test_corpus = corpus_from_lists(docs, spec)
    return spec, truth, train.corpus, test_corpus, labels


def _plugin_log_liks(params, corpus):
    log_liks, _ = anomaly.score(anomaly.init_state([params]), corpus)
    return log_liks


def test_anomaly_detection_and_mc_agreement():
    """Plug-in scoring separates uniform-word anomalies (PR-AUC >= 0.90);
    Monte Carlo scoring with 100 samples from a posterior concentrated by
    1e5 training tokens stays within 0.05 nats/word of plug-in."""
    spec, truth, train_corpus, test_corpus, labels = _make_anomaly_setup()
    h = make_prior("1", spec)
    params, _ = em.em_fit(train_corpus, h, spec, seed=0, max_iters=30)
    scores = _plugin_log_liks(params, test_corpus) - np.log(np.diff(test_corpus.offsets))
    data = metrics.LabelledScores(scores=scores, labels=labels)
    auc = metrics.auc_pr(metrics.pr_curve(data))

    post, vb_params, _ = vb.vb_fit(train_corpus, h, spec, seed=0, max_iters=30)
    plugin = _plugin_log_liks(vb_params, test_corpus)
    samples = vb.sample_posterior(post, 100, seed=9)
    mc, _ = anomaly.score(anomaly.init_state(samples), test_corpus)
    gap = float(np.max(np.abs(mc - plugin) / np.diff(test_corpus.offsets)))
    ok = auc >= 0.90 and gap <= 0.05
    _line("anomaly detection analogue", ok,
          f"plug-in PR-AUC {auc:.4f} (>= 0.90), "
          f"max MC-vs-plug-in gap {gap:.4f} nats/word (<= 0.05)")


def test_chain_rule_consistency():
    """Joint log marginal of train+test minus train-only equals the summed
    per-document plug-in test log likelihoods in propagation mode."""
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(20):
        spec = ModelSpec(int(rng.integers(2, 6)), int(rng.integers(1, 4)),
                         int(rng.integers(1, 4)))
        params = random_init(spec, make_prior("1", spec), int(rng.integers(1000)))
        n_train = int(rng.integers(1, 5))
        n_test = int(rng.integers(1, 5))
        lists = [list(rng.integers(0, spec.num_words,
                                   size=int(rng.integers(1, 6))))
                 for _ in range(n_train + n_test)]
        train = corpus_from_lists(lists[:n_train], spec)
        both = corpus_from_lists(lists, spec)
        test = corpus_from_lists(lists[n_train:], spec)
        joint = log_marginal_likelihood(_oracles.messages(params, both))
        train_ll = log_marginal_likelihood(_oracles.messages(params, train))
        state = anomaly.init_state(
            [params], last_filtered=anomaly.filtered_belief(params, train))
        log_liks, _ = anomaly.score(state, test)
        total = log_liks.sum()
        worst = max(worst, abs((joint - train_ll) - total))
    _line("chain-rule consistency", worst <= 1e-8,
          f"max |joint - train - sum(test)| = {worst:.3e} over 20 cases")


def test_localisation_recall():
    """With 45% of injected abnormal words retrievable under the shortlist
    cap, localisation recall averages >= 0.85 over 10 injected events."""
    layout = FrameLayout(frame_w=40, frame_h=8)  # 5 x 1 grid, vocabulary 20
    spec = ModelSpec(layout.vocabulary_size, 2, 2)
    rng = np.random.default_rng(77)
    # Training data only ever uses the first 10 words.
    phi_cols = []
    for _ in range(2):
        col = np.zeros(20)
        col[:10] = rng.dirichlet(np.full(10, 1.0))
        phi_cols.append(col)
    truth = ModelParams(phi=np.column_stack(phi_cols),
                        theta=np.array([[0.8, 0.2], [0.2, 0.8]]),
                        xi=np.array([[0.9, 0.1], [0.1, 0.9]]),
                        pi=np.array([0.5, 0.5]))
    train = generate.generate_from(truth, 200, [40] * 200, seed=3)
    params, _ = em.em_fit(train.corpus, make_prior("1", spec), spec, seed=0,
                          max_iters=30)

    n_abnormal = 20
    top_n = 9  # 45% of the abnormal words are retrievable
    recalls = []
    state = anomaly.init_state([params])
    for event in range(10):
        normal = generate.generate_from(truth, 1, [60], seed=100 + event)
        words = list(normal.corpus[0])
        positions = rng.choice(len(words) + n_abnormal, size=n_abnormal,
                               replace=False)
        truth_positions = set(int(p) for p in positions)
        merged = []
        it = iter(words)
        for i in range(len(words) + n_abnormal):
            merged.append(int(rng.integers(10, 20)) if i in truth_positions
                          else next(it))
        clip = corpus_from_lists([merged], spec)
        wll = anomaly.word_log_liks(state, clip)
        _, detected, *_ = anomaly.localise(wll, clip, layout, top_n)
        recalls.append(metrics.localisation_recall(detected.tolist(), truth_positions,
                                                   top_n))
    mean_recall = float(np.mean(recalls))
    _line("localisation recall", mean_recall >= 0.85,
          f"mean capped recall {mean_recall:.3f} over 10 injected events")


def test_scoring_throughput():
    """Plug-in scoring under 10 ms/document and 100-sample Monte Carlo under
    500 ms/document at full surveillance dimensions."""
    spec = ModelSpec(6480, 8, 4)
    params = random_init(spec, make_prior("1", spec), 0)
    rng = np.random.default_rng(0)
    lists = [rng.integers(0, 6480, size=100) for _ in range(50)]
    docs = corpus_from_lists(lists, spec)
    state = anomaly.init_state([params])
    t0 = time.perf_counter()
    anomaly.score(state, docs)
    plugin_ms = (time.perf_counter() - t0) / len(docs) * 1000

    samples = [random_init(spec, make_prior("1", spec), s) for s in range(100)]
    state = anomaly.init_state(samples)
    mc_docs = corpus_from_lists(lists[:10], spec)
    t0 = time.perf_counter()
    anomaly.score(state, mc_docs)
    mc_ms = (time.perf_counter() - t0) / len(mc_docs) * 1000
    ok = plugin_ms < 10.0 and mc_ms < 500.0
    _line("scoring throughput", ok,
          f"plug-in {plugin_ms:.2f} ms/doc (< 10), MC-100 {mc_ms:.1f} ms/doc (< 500)")


def test_mc_state_memory():
    """Building a 100-sample Monte Carlo state at full surveillance
    dimensions holds the samples' (X, Z) word mixture logs, 19.8 MB, plus a
    few (X, Y) matrices: its allocation peak stays under 25 MB."""
    spec = ModelSpec(6480, 8, 4)
    rng = np.random.default_rng(5)
    counts = zero_counts(spec)
    counts.n_xy += rng.integers(0, 30, size=counts.n_xy.shape)
    post = vb.vb_m_step(counts, make_prior("1", spec))
    tracemalloc.start()
    try:
        state = anomaly.init_state(vb.sample_posterior(post, 100, seed=1))
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    ok = len(state.log_mix) == 100 and peak_mb < 25.0
    _line("MC state memory", ok, f"100-sample state peak {peak_mb:.1f} MB (< 25)")


def test_metric_correctness():
    """PR curve/AUC invariant under monotone transforms; random scores give
    AUC equal to the positive rate within 0.02."""
    rng = np.random.default_rng(3)
    invariant = True
    for _ in range(20):
        scores = rng.normal(size=40)
        labels = rng.random(40) < 0.4
        labels[0], labels[1] = True, False
        data = metrics.LabelledScores(scores=scores, labels=labels)
        warped = metrics.LabelledScores(scores=np.tanh(scores) * 3 + scores ** 3,
                                        labels=labels)
        if not np.allclose(metrics.pr_curve(data), metrics.pr_curve(warped)):
            invariant = False
        if not np.isclose(metrics.auc_pr(metrics.pr_curve(data)),
                          metrics.auc_pr(metrics.pr_curve(warped))):
            invariant = False

    pos_rate = 0.3
    aucs = []
    for _ in range(50):
        n = 200
        labels = np.zeros(n, dtype=bool)
        labels[rng.choice(n, size=int(n * pos_rate), replace=False)] = True
        data = metrics.LabelledScores(scores=rng.normal(size=n), labels=labels)
        aucs.append(metrics.auc_pr(metrics.pr_curve(data)))
    gap = abs(float(np.mean(aucs)) - pos_rate)
    ok = invariant and gap <= 0.02
    _line("metric correctness", ok,
          f"monotone invariance {'held' if invariant else 'violated'}, "
          f"random-score AUC within {gap:.4f} of positive rate (<= 0.02)")
