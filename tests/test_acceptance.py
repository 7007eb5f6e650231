"""Acceptance suite: one test per claim the package must hold end to end.

Each test prints a single PASS line with the measured quantity next to its
pinned tolerance; run with -v for one pass/fail line per claim. The long
training checks keep fixed seeds so results are reproducible to the bit.
"""

import math
import time

import numpy as np

from drotemp import models as md
from drotemp import tempnet as tn
from drotemp import trainer as tr
from drotemp import verify as vf
from drotemp.diff_engine import Tensor
from drotemp.dro_core import DroConfig, LogitSet
from drotemp.tau_solver import SolverOptions, golden_section_oracle, newton_solve

CORPUS = "src/drotemp/assets/corpus.txt"


def report(line: str):
    print(f"\n{line}")


# ---------------------------------------------------------------------------
# 1. duality: dual minimum equals the primal simplex-grid maximum


def test_01_dual_matches_primal_grid():
    t0 = time.perf_counter()
    rep = vf.check_duality(n_instances=200, seed=0)
    elapsed = time.perf_counter() - t0
    report(
        f"PASS duality: max gap {rep.max_residual:.3e} <= 1e-3 over "
        f"3x200 instances in {elapsed:.1f}s (budget 60s)"
    )
    assert rep.tolerance == 1e-3
    assert rep.passed, rep.describe()
    assert elapsed <= 60.0


# ---------------------------------------------------------------------------
# 2. solver agrees with a derivative-free oracle


def test_02_newton_matches_golden_section():
    rng = np.random.default_rng(202)
    cases = []
    for _ in range(1000):
        k = int(rng.integers(1, 513))
        scale = 10.0 ** rng.uniform(-1.0, 0.8)
        pos = float(rng.normal())
        ls = LogitSet(pos, pos + rng.normal(scale=scale, size=k))
        cfg = DroConfig(
            tau0=10.0 ** rng.uniform(-3, -1),
            tau_max=1e4,
            rho=10.0 ** rng.uniform(-1.3, 0.3),
        )
        cases.append((ls, cfg))

    opts = SolverOptions(tol=1e-10, bracket_hi=1e4)
    t0 = time.perf_counter()
    solved = [newton_solve(ls, cfg, opts).tau for ls, cfg in cases]
    elapsed = time.perf_counter() - t0

    worst = 0.0
    for tau, (ls, cfg) in zip(solved, cases):
        ref = golden_section_oracle(ls, cfg, cfg.tau0, 1e4, tol=1e-9)
        worst = max(worst, abs(tau - ref) / max(1.0, ref))
    report(
        f"PASS solver-vs-oracle: worst relative gap {worst:.3e} <= 1e-6 on 1000 "
        f"instances (K up to 512), solve time {elapsed:.2f}s (budget 10s)"
    )
    assert worst <= 1e-6
    assert elapsed <= 10.0


# ---------------------------------------------------------------------------
# 3. interior solutions satisfy the fixed-point identity


def test_03_interior_fixed_point():
    rep = vf.check_fixed_point(n_instances=1000, seed=0)
    report(f"PASS fixed-point: max |rhs(tau*) - tau*| {rep.max_residual:.3e} <= 1e-5")
    assert rep.tolerance == 1e-5
    assert rep.passed, rep.describe()


# ---------------------------------------------------------------------------
# 4. the max-shift term stays inside its analytic bounds


def test_04_shift_bounds_hold():
    rep = vf.check_bz_bounds(n_instances=10_000, seed=0)
    report(
        f"PASS shift-bounds: max violation {rep.max_residual:.3e} over "
        "10000 fuzzed instances (tolerance 1e-12, float rounding only)"
    )
    assert rep.tolerance == 1e-12
    assert rep.passed, rep.describe()


# ---------------------------------------------------------------------------
# 5. per-instance solved minima lower-bound any network's loss


def test_05_solved_min_bounds_network_loss():
    rep = vf.check_upper_bound(100, seed=0)
    report(
        f"PASS loss-lower-bound: max violation {rep.max_residual:.3e} <= 1e-9 "
        "over 100 dataset/parameter draws"
    )
    assert rep.tolerance == 1e-9
    assert rep.passed, rep.describe()


# ---------------------------------------------------------------------------
# 6. every analytic derivative matches central finite differences


def test_06_analytic_gradients_match_fd():
    rep = vf.check_gradients(seed=0)
    report(f"PASS gradients: max relative error {rep.max_residual:.3e} <= 1e-5")
    assert rep.tolerance == 1e-5
    assert rep.passed, rep.describe()


# ---------------------------------------------------------------------------
# 7. closed-form bridges to the classical losses


def test_07_bridge_identities():
    rng = np.random.default_rng(707)
    worst_lm = 0.0
    for draw in range(5):
        cfg = md.LmConfig(vocab_size=11, d_model=8, d_ff=16, n_blocks=1, context_len=6)
        params = md.init_lm(cfg, seed=700 + draw)
        for name, tensor in params.tensors():
            if "out_proj" in name:
                tensor.data = rng.normal(size=tensor.data.shape)
        batch = md.TokenBatch([rng.integers(11, size=6), rng.integers(11, size=5)])
        taus = np.ones(batch.n_targets)
        robust = md.robust_softmax_loss(
            params, taus, batch, DroConfig(tau0=1e-3, tau_max=2.0, rho=0.0)
        ).item()
        ce = md.baseline_ce_loss(params, batch).item()
        worst_lm = max(worst_lm, abs(robust - (ce - math.log(11))))

    worst_cl = 0.0
    for draw in range(5):
        tcfg = md.TwoTowerConfig(img_dim=7, txt_dim=7, hidden=12, out_dim=6)
        towers = md.init_two_tower(tcfg, seed=710 + draw)
        n = 6
        batch = md.PairBatch(rng.normal(size=(n, 7)), rng.normal(size=(n, 7)))
        tau = float(10.0 ** rng.uniform(-1.5, 0.3))
        robust = md.robust_gcl_loss(
            towers, np.full(n, tau), np.full(n, tau), batch,
            DroConfig(tau0=1e-3, tau_max=5.0, rho=0.0),
        ).item()
        base = md.baseline_gcl_loss(towers, tau, tau, batch).item()
        worst_cl = max(worst_cl, abs(robust - (base - 2.0 * tau * math.log(n - 1))))

    report(
        f"PASS bridges: softmax-vs-CE gap {worst_lm:.3e}, "
        f"contrastive-vs-baseline gap {worst_cl:.3e} (both <= 1e-10)"
    )
    assert worst_lm <= 1e-10
    assert worst_cl <= 1e-10


# ---------------------------------------------------------------------------
# 8. predicted temperatures stay in range; logit variant ignores scale


def test_08_temperature_range_and_scale_invariance():
    rng = np.random.default_rng(808)
    llm_cfg = tn.TempNetConfig(
        variant=tn.Variant.LLM_LOGITS, d0=24, d1=8, d2=4,
        tau0=0.05, tau_max=3.0, rho=1.0,
    )
    llm_net = tn.init_llm_tempnet(llm_cfg, seed=81)
    logits = rng.normal(size=(50_000, 24))
    logits *= 10.0 ** rng.uniform(-6, 6, size=(50_000, 1))
    logits[:100] = 0.0  # all-zero rows are legal inputs
    taus = tn.llm_tau_batch(llm_net, Tensor(logits)).data
    assert np.all(taus >= llm_cfg.tau0) and np.all(taus <= llm_cfg.tau_max)

    cl_cfg = tn.TempNetConfig(
        variant=tn.Variant.CL_EMBEDDING, d0=16, d1=8, d2=4,
        tau0=0.005, tau_max=0.5, rho=1.0,
    )
    cl_net = tn.init_cl_tempnet(cl_cfg, seed=82)
    emb = rng.normal(size=(50_000, 16)) * 10.0 ** rng.uniform(-6, 6, size=(50_000, 1))
    cl_taus = tn.cl_tau_batch(cl_net, Tensor(emb)).data
    assert np.all(cl_taus >= cl_cfg.tau0) and np.all(cl_taus <= cl_cfg.tau_max)

    base_rows = rng.normal(size=(1000, 24))
    base = tn.llm_tau_batch(llm_net, Tensor(base_rows)).data
    worst = 0.0
    for c in (1e-6, 3.0, 1e6):
        scaled = tn.llm_tau_batch(llm_net, Tensor(c * base_rows)).data
        worst = max(worst, float(np.abs(scaled - base).max()))
    report(
        "PASS temperature-range: 100000 fuzzed inputs stay in [tau0, tau_max]; "
        f"scale invariance worst drift {worst:.3e} <= 1e-12"
    )
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# 9. learned temperatures beat the fixed-temperature LM baseline


def _lm_final_ppl(objective: str, seed: int, out_dir) -> float:
    run = tr.TrainConfig(
        total_steps=2000, batch_size=4, seed=seed,
        cfg=DroConfig(tau0=1e-3, tau_max=2.0, rho=1.5),
        base_lr=1e-3, tempnet_lr=1e-3, weight_decay=0.1, eval_every=2000,
    )
    task = tr.LmTask(
        corpus_path=CORPUS, objective=objective, context_len=12,
        d_model=16, d_ff=32, tempnet_d1=8, tempnet_d2=4,
    )
    _, metrics = tr.train(run, task, out_dir)
    return tr.read_metrics(metrics)[-1]["eval_metric"]


def test_09_tempnet_lm_beats_ce_baseline(tmp_path):
    t0 = time.perf_counter()
    outcomes = []
    for seed in (0, 1, 2):
        ce = _lm_final_ppl("ce", seed, tmp_path / f"ce{seed}")
        ours = _lm_final_ppl("robust", seed, tmp_path / f"robust{seed}")
        outcomes.append((seed, ours, ce))
    elapsed = time.perf_counter() - t0
    wins = sum(ours <= ce for _, ours, ce in outcomes)
    detail = ", ".join(f"seed {s}: {o:.3f} vs {c:.3f}" for s, o, c in outcomes)
    report(
        f"PASS lm-perplexity: learned-temperature wins {wins}/3 ({detail}) "
        f"in {elapsed:.0f}s (budget 600s)"
    )
    assert wins >= 2, detail
    assert elapsed <= 600.0


# ---------------------------------------------------------------------------
# 10. a larger divergence radius yields lower learned temperatures


def test_10_radius_orders_final_temperatures(tmp_path):
    # frozen model over a 512-symbol alphabet with a sharpened random output
    # head: mean KL(p_tau, uniform) ~= 5.9 at tau=1, so the descent rate
    # (rho - KL)/rho^2 increases with rho across the whole sweep and the
    # runs separate without any of them reaching the floor
    rng = np.random.default_rng(7)
    alphabet = "".join(chr(0x100 + i) for i in range(512))
    text = alphabet + "".join(alphabet[i] for i in rng.integers(512, size=20000))
    corpus = tmp_path / "synth.txt"
    corpus.write_text(text, encoding="utf-8")

    seed_run = tr.TrainConfig(
        total_steps=1, batch_size=4, seed=3,
        cfg=DroConfig(tau0=1e-3, tau_max=2.0, rho=8.0), eval_every=1,
    )
    base_task = tr.LmTask(
        corpus_path=str(corpus), context_len=8, d_model=16, d_ff=32,
        tempnet_d1=8, tempnet_d2=4,
    )
    ckpt, _ = tr.train(seed_run, base_task, tmp_path / "base", stop_at_step=0)
    for name, tensor in ckpt.foundation.tensors():
        if "out_proj" in name:
            tensor.data = 4.0 * rng.normal(size=tensor.data.shape)
    tr.save_checkpoint(ckpt, tmp_path / "base" / "checkpoint.bin")

    finals = []
    for rho in (8.0, 9.0, 10.0, 11.0):
        run = tr.TrainConfig(
            total_steps=400, batch_size=8, seed=1,
            cfg=DroConfig(tau0=1e-3, tau_max=2.0, rho=rho),
            base_lr=0.0, tempnet_lr=1.0, weight_decay=0.0, eps=10.0,
            eval_every=400,
        )
        task = tr.LmTask(
            corpus_path=str(corpus), mode="tempnet-only",
            init_from=str(tmp_path / "base" / "checkpoint.bin"),
            context_len=8, d_model=16, d_ff=32, tempnet_d1=8, tempnet_d2=4,
        )
        _, metrics = tr.train(run, task, tmp_path / f"rho{rho}")
        row = tr.read_metrics(metrics)[-1]
        finals.append((rho, row["tau_mean"], row["tau_min"]))

    means = [m for _, m, _ in finals]
    detail = ", ".join(f"rho {r:g}: {m:.4f}" for r, m, _ in finals)
    report(f"PASS radius-monotonicity: final mean temperatures {detail}")
    assert all(means[i] > means[i + 1] for i in range(3)), detail
    # none saturated at the floor: the ordering reflects learning, not clamping
    assert min(mn for _, _, mn in finals) > 0.1


# ---------------------------------------------------------------------------
# 11. learned temperatures beat the fixed-temperature contrastive baseline


def _heterogeneous_pairs(path):
    # half the pairs are tight, half very noisy: per-instance temperature has
    # real structure to pick up, as a single tau must compromise between them
    clean = md.gen_clustered_pairs(80, 12, 24, 0.1, seed=5)
    noisy = md.gen_clustered_pairs(80, 12, 24, 0.9, seed=6)
    perm = np.random.default_rng(7).permutation(160)
    pairs = md.PairBatch(
        np.vstack([clean.x, noisy.x])[perm], np.vstack([clean.t, noisy.t])[perm]
    )
    md.save_pairs_csv(path, pairs)


def _cl_final_recall(objective: str, seed: int, pairs_path, out_dir) -> float:
    run = tr.TrainConfig(
        total_steps=1500, batch_size=16, seed=seed,
        cfg=DroConfig(tau0=5e-3, tau_max=0.5, rho=1.0),
        base_lr=2e-3, tempnet_lr=5e-3, weight_decay=0.02, beta2=0.999,
        eval_every=1500,
    )
    task = tr.ClTask(
        pairs_path=str(pairs_path), objective=objective, hidden=32, out_dim=12,
        tempnet_d1=8, tempnet_d2=4, fixed_tau1=0.07, fixed_tau2=0.07,
    )
    _, metrics = tr.train(run, task, out_dir)
    return tr.read_metrics(metrics)[-1]["eval_metric"]


def test_11_tempnet_gcl_beats_fixed_tau(tmp_path):
    pairs_path = tmp_path / "pairs.csv"
    _heterogeneous_pairs(pairs_path)
    outcomes = []
    for seed in (0, 1, 2):
        fixed = _cl_final_recall("fixed", seed, pairs_path, tmp_path / f"fixed{seed}")
        ours = _cl_final_recall("robust", seed, pairs_path, tmp_path / f"robust{seed}")
        outcomes.append((seed, ours, fixed))
    wins = sum(ours >= fixed for _, ours, fixed in outcomes)
    detail = ", ".join(f"seed {s}: {o:.4f} vs {f:.4f}" for s, o, f in outcomes)
    report(f"PASS contrastive-recall: learned-temperature wins {wins}/3 ({detail})")
    assert wins >= 2, detail


# ---------------------------------------------------------------------------
# 12. determinism: same-seed reruns and resume are bit-equivalent


def test_12_determinism_and_resume(tmp_path):
    run = tr.TrainConfig(
        total_steps=30, batch_size=4, seed=9,
        cfg=DroConfig(tau0=1e-3, tau_max=2.0, rho=0.5), eval_every=10,
    )

    def lm_task():
        return tr.LmTask(
            corpus_path=CORPUS, context_len=12, d_model=16, d_ff=32,
            tempnet_d1=8, tempnet_d2=4,
        )

    tr.train(run, lm_task(), tmp_path / "a")
    tr.train(run, lm_task(), tmp_path / "b")
    metrics_a = (tmp_path / "a" / "metrics.csv").read_bytes()
    assert metrics_a == (tmp_path / "b" / "metrics.csv").read_bytes()

    tr.train(run, lm_task(), tmp_path / "c", stop_at_step=15)
    tr.train(run, lm_task(), tmp_path / "c", resume_from=tmp_path / "c" / "checkpoint.bin")
    assert (tmp_path / "c" / "metrics.csv").read_bytes() == metrics_a
    assert (
        tmp_path / "c" / "checkpoint.bin"
    ).read_bytes() == (tmp_path / "a" / "checkpoint.bin").read_bytes()

    cl_run = tr.TrainConfig(
        total_steps=16, batch_size=8, seed=4,
        cfg=DroConfig(tau0=5e-3, tau_max=0.5, rho=0.5),
        base_lr=2e-4, weight_decay=0.02, beta2=0.999, eval_every=8,
    )
    pairs_path = tmp_path / "pairs.csv"
    md.save_pairs_csv(pairs_path, md.gen_clustered_pairs(60, 6, 3, 0.2, seed=11))

    def cl_task():
        return tr.ClTask(
            pairs_path=str(pairs_path), hidden=16, out_dim=8,
            tempnet_d1=8, tempnet_d2=4,
        )

    tr.train(cl_run, cl_task(), tmp_path / "ca")
    tr.train(cl_run, cl_task(), tmp_path / "cb")
    assert (
        tmp_path / "ca" / "metrics.csv"
    ).read_bytes() == (tmp_path / "cb" / "metrics.csv").read_bytes()
    report(
        "PASS determinism: same-seed metrics byte-identical (lm and contrastive); "
        "interrupted+resumed run leaves identical metrics and checkpoint bytes"
    )
