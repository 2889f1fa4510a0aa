"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
measurements as they complete.
"""

import csv
import math
import time

import numpy as np

from rnp.core import ImageGrid, Rng, rademacher_matrix, standard_normal_matrix
from rnp.harness import (ExperimentSpec, compare_inner_iterations,
                         run_experiment)
from rnp.krylov import cg, pcg
from rnp.linops import (GroupStructure, adjoint_defect, blur_operator,
                        downsample_operator, grad_operator, hessian_operator,
                        matrix_operator, radon_operator, to_dense,
                        wavelet_operator)
from rnp.problems import add_salt_pepper, gaussian_kernel, make_ct, make_deblur
from rnp.prox import (BoxConstraint, BoxProx, dual_exponent, project_group_ball,
                      weighted_op_norm_sq, wpm_mixed_dual, wpm_structured)
from rnp.sketch import (build_preconditioner, effective_dimension,
                        nystrom_approx, nystrom_oracle_dense,
                        recommended_sketch_size)
from rnp.solvers import (IrmConfig, WapgConfig, build_wapg_preconditioner,
                         estimate_lipschitz_pnorm, half_quadratic_constants,
                         irm_solve, wapg_solve, _effective_forward)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def random_psd(n, eigs, seed):
    q, _ = np.linalg.qr(standard_normal_matrix(n, n, Rng(seed)))
    return (q * np.asarray(eigs)) @ q.T


def test_criterion_1_nystrom_oracle_equivalence():
    start = time.perf_counter()
    worst_oracle = 0.0
    for seed in range(10):
        phi = random_psd(40, np.exp(np.linspace(0.0, -4.0, 40)), seed)
        rng = Rng(1000 + seed)
        factor = nystrom_approx(matrix_operator(phi), 15, rng)
        omega = rademacher_matrix(40, 15, Rng(1000 + seed))  # the sketch's own Omega
        oracle = nystrom_oracle_dense(phi, omega)
        approx = (factor.U * factor.S_hat) @ factor.U.T
        worst_oracle = max(worst_oracle, np.linalg.norm(approx - oracle)
                           / np.linalg.norm(oracle))
    eigs = np.zeros(50)
    eigs[:8] = np.linspace(2.0, 1.0, 8)
    phi = random_psd(50, eigs, seed=99)
    factor = nystrom_approx(matrix_operator(phi), 12, Rng(7))
    rank_err = (np.linalg.norm((factor.U * factor.S_hat) @ factor.U.T - phi)
                / np.linalg.norm(phi))
    elapsed = time.perf_counter() - start
    ok = worst_oracle <= 1e-6 and rank_err <= 1e-6 and elapsed < 5.0
    report(1, ok, f"sketch vs dense formula max rel err {worst_oracle:.2e}, "
                  f"exact-rank recovery err {rank_err:.2e} (tol 1e-6); "
                  f"{elapsed:.1f}s < 5s")


def test_criterion_2_condition_number_bound():
    start = time.perf_counter()
    n, mu = 200, 1e-2
    lam = 0.9 ** np.arange(1, n + 1)
    phi = np.diag(lam)
    k = recommended_sketch_size(effective_dimension(phi, mu))
    shifted = phi + mu * np.eye(n)
    kappas = []
    for seed in range(20):
        factor = nystrom_approx(matrix_operator(phi), min(k, n), Rng(seed))
        pre = build_preconditioner(factor, mu)
        half = np.column_stack([pre.apply_Pinvhalf(col) for col in np.eye(n)])
        mat = half @ shifted @ half
        eig = np.linalg.eigvalsh(0.5 * (mat + mat.T))
        kappas.append(eig[-1] / eig[0])
    med = float(np.median(kappas))
    elapsed = time.perf_counter() - start
    ok = med < 28.0 and elapsed < 30.0
    report(2, ok, f"median preconditioned condition number {med:.2f} < 28 "
                  f"(K={k}, N={n}); {elapsed:.1f}s < 30s")


def test_criterion_3_half_quadratic_identity():
    start = time.perf_counter()
    worst_val = worst_arg = 0.0
    for p in (0.3, 0.5, 1.0, 1.5):
        a, b = half_quadratic_constants(p)
        for r in np.logspace(-1.0, 1.0, 50):
            bracket = lambda t: t * r * r + 1.0 / (b * t ** a)
            closed = 0.5 * p * r ** (p - 2.0)
            worst_val = max(worst_val, abs(bracket(closed) - r ** p))
            # independent argmin: bisection on the monotone derivative
            lo, hi = closed * 1e-3, closed * 1e3
            deriv = lambda t: r * r - a / (b * t ** (a + 1.0))
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if deriv(mid) < 0.0:
                    lo = mid
                else:
                    hi = mid
            worst_arg = max(worst_arg, abs(0.5 * (lo + hi) - closed) / (1.0 + closed))
    elapsed = time.perf_counter() - start
    ok = worst_val <= 1e-8 and worst_arg <= 1e-8 and elapsed < 1.0
    report(3, ok, f"envelope value err {worst_val:.2e}, argmin err {worst_arg:.2e} "
                  f"(tol 1e-8); {elapsed:.2f}s < 1s")


def test_criterion_4_structured_wpm_oracle():
    start = time.perf_counter()
    box = BoxConstraint(0.0, 1.0)
    rng = Rng(11)
    worst_agree = worst_resid = 0.0
    for trial in range(50):
        r = rng.spawn(trial)
        x = 2.0 * r.normal(6)
        ubar = standard_normal_matrix(6, 2, r)
        u, gamma = wpm_structured(BoxProx(box), x, ubar, tol=1e-12)
        w = np.eye(6) + ubar @ ubar.T
        eta = 1.0 / np.linalg.eigvalsh(w).max()
        ref = np.clip(x, 0.0, 1.0)
        for _ in range(500000):
            nxt = np.clip(ref - eta * (w @ (ref - x)), 0.0, 1.0)
            if np.abs(nxt - ref).max() < 1e-10 * eta:
                ref = nxt
                break
            ref = nxt
        worst_agree = max(worst_agree, np.abs(u - ref).max())
        worst_resid = max(worst_resid,
                          np.linalg.norm(ubar.T @ (x - u) + gamma))
    elapsed = time.perf_counter() - start
    ok = worst_agree <= 1e-6 and worst_resid <= 1e-10 and elapsed < 10.0
    report(4, ok, f"50 instances: max disagreement {worst_agree:.2e} (tol 1e-6), "
                  f"max root residual {worst_resid:.2e} (tol 1e-10); "
                  f"{elapsed:.1f}s < 10s")


def test_criterion_5_mixed_norm_prox_oracles():
    # 2-pixel total-variation closed form
    from rnp.linops import LinearOperator
    diff = LinearOperator(2, 1, lambda x: np.array([x[0] - x[1]]),
                          lambda y: np.array([y[0], -y[0]]))
    gs1 = GroupStructure("scalar", 1, 1)
    worst_pair = 0.0
    for s, lam in (((3.0, 1.0), 0.5), ((3.0, 1.0), 2.0), ((-1.0, 4.0), 1.2),
                   ((0.3, 0.9), 0.1)):
        s = np.array(s)
        x, _, _ = wpm_mixed_dual(s, lam, diff, gs1, 1, None, BoxConstraint(),
                                 inner_tol=1e-14, inner_max=1000)
        shrink = min(lam, abs(s[0] - s[1]) / 2.0)
        sign = np.sign(s[0] - s[1])
        expected = np.array([s[0] - sign * shrink, s[1] + sign * shrink])
        worst_pair = max(worst_pair, np.abs(x - expected).max())

    # 8x8 anisotropic TV prox against a long-run dual projected-gradient oracle
    n = 8
    op, gs = grad_operator(n, n)
    box = BoxConstraint(0.0, 1.0)
    s = Rng(12).normal(n * n) * 0.8 + 0.5
    lam = 0.15
    x, _, _ = wpm_mixed_dual(s, lam, op, gs, 1, None, box,
                             inner_tol=1e-9, inner_max=50000)
    dense_l = to_dense(op)
    step = 1.0 / (2.0 * lam * lam * np.linalg.norm(dense_l, 2) ** 2)
    qq = np.zeros(op.range_dim)
    for _ in range(300000):
        xx = np.clip(s - lam * (dense_l.T @ qq), 0.0, 1.0)
        nxt = project_group_ball(qq + step * 2.0 * lam * (dense_l @ xx), 1, gs)
        if np.abs(nxt - qq).max() < 1e-9:
            qq = nxt
            break
        qq = nxt
    ref = np.clip(s - lam * (dense_l.T @ qq), 0.0, 1.0)
    tv_err = np.abs(x - ref).max()

    # Schatten projections against brute force (feasible samples + the
    # variational inequality characterizing Euclidean projections)
    rng = Rng(13)
    gs3 = GroupStructure("sym2x2", 1, 3)
    worst_schatten = -np.inf
    for phi in (1, 2, math.inf):
        psi = dual_exponent(phi)
        for _ in range(8):
            m = 2.0 * rng.normal(3)
            p = project_group_ball(m, phi, gs3)
            dist_p = (m[0] - p[0]) ** 2 + (m[1] - p[1]) ** 2 + 2 * (m[2] - p[2]) ** 2
            for _ in range(500):
                lam2 = rng.normal(2)
                if psi == math.inf:
                    lam2 = np.clip(lam2, -1.0, 1.0)
                elif psi == 2.0:
                    lam2 = lam2 / max(1.0, np.linalg.norm(lam2))
                else:
                    lam2 = lam2 / max(1.0, np.abs(lam2).sum())
                ang = rng.uniform(1)[0] * np.pi
                c, sn = np.cos(ang), np.sin(ang)
                rot = np.array([[c, -sn], [sn, c]])
                zm = rot @ np.diag(lam2) @ rot.T
                z = np.array([zm[0, 0], zm[1, 1], zm[0, 1]])
                dist_z = (m[0] - z[0]) ** 2 + (m[1] - z[1]) ** 2 + 2 * (m[2] - z[2]) ** 2
                vi = ((m[0] - p[0]) * (z[0] - p[0]) + (m[1] - p[1]) * (z[1] - p[1])
                      + 2 * (m[2] - p[2]) * (z[2] - p[2]))
                worst_schatten = max(worst_schatten, dist_p - dist_z, vi)
    ok = worst_pair <= 1e-10 and tv_err <= 1e-5 and worst_schatten <= 1e-8
    report(5, ok, f"2-pixel closed form err {worst_pair:.2e} (tol 1e-10), "
                  f"8x8 TV vs dual oracle err {tv_err:.2e} (tol 1e-5), "
                  f"Schatten brute-force slack {worst_schatten:.2e} (tol 1e-8)")


def test_criterion_6_pcg_acceleration():
    n = 200
    diag = np.linspace(1.0, 1000.0, n)
    phi = matrix_operator(np.diag(diag))
    mu = 1e-3
    k = min(n, recommended_sketch_size(effective_dimension(np.diag(diag), mu)))
    ratios = []
    for seed in range(10):
        b = Rng(500 + seed).normal(n)
        factor = nystrom_approx(phi, k, Rng(seed))
        pre = build_preconditioner(factor, mu)
        it_cg = cg(phi, b, tol=1e-6, maxiter=5000).iterations
        it_pcg = pcg(phi, b, pre.apply_Pinv, tol=1e-6, maxiter=5000).iterations
        ratios.append(it_pcg / it_cg)
    med = float(np.median(ratios))
    report(6, med <= 0.5,
           f"PCG/CG true-residual iteration ratio median {med:.3f} <= 0.5 "
           f"(K={k}, diag 1..1000 on N=200)")


def test_criterion_7_irm_end_to_end():
    start = time.perf_counter()
    prob = make_deblur("gauss9", 64, 0.05, Rng(0))

    # (a) surrogate cost monotone at inner_tol 1e-10 (reweighted iterations)
    worst_increase = -np.inf
    for p, lam in ((1.0, 0.05), (0.5, 0.3)):
        cfg = IrmConfig(p=p, q=1.0, lam=lam, outer_max=10, inner_tol=1e-10,
                        inner_max=30000, sketch_size=64, outer_tol=1e-12)
        _, trace = irm_solve(prob, cfg, Rng(1))
        costs = trace.costs[1:]
        rel = np.diff(costs) / np.abs(costs[:-1])
        worst_increase = max(worst_increase, float(rel.max()))
    mono_ok = worst_increase <= 1e-9

    # (b) inner-iteration reduction, K=64 vs K=0, median over seeds
    cmp = compare_inner_iterations(prob, 1.0, 1.0, 2e-3, 64, [1, 2, 3],
                                   inner_tol=1e-4, outer_max=8)
    reduction_ok = cmp.median_reduction >= 0.5

    # (c) robust data terms beat least squares under impulsive noise
    finals = {}
    for p, lam in ((0.5, 0.3), (2.0, 0.05)):
        cfg = IrmConfig(p=p, q=1.0, lam=lam, outer_max=20, inner_tol=1e-4,
                        inner_max=2000, sketch_size=64)
        _, trace = irm_solve(prob, cfg, Rng(1))
        finals[p] = float(trace.psnrs[-1])
    psnr_ok = finals[0.5] >= finals[2.0]

    elapsed = time.perf_counter() - start
    ok = mono_ok and reduction_ok and psnr_ok and elapsed < 300.0
    report(7, ok, f"(a) max relative cost increase {worst_increase:.2e} <= 1e-9; "
                  f"(b) inner-iteration reduction median "
                  f"{cmp.median_reduction:.3f} >= 0.5; "
                  f"(c) PSNR p=0.5 {finals[0.5]:.2f} dB >= p=2 {finals[2.0]:.2f} dB; "
                  f"{elapsed:.0f}s < 300s")


def test_criterion_8_wapg():
    start = time.perf_counter()

    # (a) bitwise agreement with a textbook accelerated proximal gradient loop
    prob = make_ct(64, 60, "tv", 0.01, Rng(0))
    alpha = 0.9 / estimate_lipschitz_pnorm(prob.A, None, 50, Rng(2))
    box = BoxConstraint(0.0, 1.0)
    cfg = WapgConfig(lam=1.0, phi=1, sketch_size=0, outer_max=50, box=box,
                     alpha=alpha, inner_tol=1e-6, inner_max=200)
    x_solver, _ = wapg_solve(prob, cfg, None, Rng(3))
    lns = 1.05 * weighted_op_norm_sq(prob.L, prob.structure, 100, Rng(3).spawn(1))
    x = np.zeros(prob.A.domain_dim)
    u = x.copy()
    t_prev = 1.0
    q = None
    for _ in range(50):
        grad = prob.A.adjoint(prob.A.apply(u) - prob.y)
        s = u - alpha * grad
        x_next, q, _ = wpm_mixed_dual(s, alpha * 1.0, prob.L, prob.structure, 1,
                                      None, box, inner_tol=1e-6, inner_max=200,
                                      q0=q, l_norm_sq=lns)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_prev * t_prev))
        u = x_next + ((t_prev - 1.0) / t_next) * (x_next - x)
        x, t_prev = x_next, t_next
    bitwise_ok = np.array_equal(x_solver, x)

    # (b) worst-case rate against a 10000-iteration reference (wavelet path)
    wprob = make_ct(32, 30, "wavelet", 0.01, Rng(0))
    wcfg = WapgConfig(lam=0.5, phi=1, sketch_size=20, outer_max=100,
                      prox_mode="separable")
    rng = Rng(4)
    pre, _ = build_wapg_preconditioner(wprob, wcfg, rng.spawn(0))
    fwd = _effective_forward(wprob, wcfg)
    lip = estimate_lipschitz_pnorm(fwd, pre, 50, rng.spawn(1))
    alpha_w = 1.0 / (1.1 * lip)
    run_cfg = WapgConfig(lam=0.5, phi=1, sketch_size=20, outer_max=100,
                         prox_mode="separable", alpha=alpha_w)
    _, trace100 = wapg_solve(wprob, run_cfg, pre, rng.spawn(2))
    ref_cfg = WapgConfig(lam=0.5, phi=1, sketch_size=20, outer_max=10000,
                         prox_mode="separable", alpha=alpha_w)
    x_ref_img, trace_ref = wapg_solve(wprob, ref_cfg, pre, rng.spawn(2))
    cost_ref = float(trace_ref.costs.min())
    diff = np.zeros(fwd.domain_dim) - wprob.L.apply(x_ref_img)
    radius_sq = float(diff @ pre.apply_P(diff))
    bound_ok = True
    worst_ratio = 0.0
    for k in range(5, 101):
        excess = trace100.costs[k - 1] - cost_ref
        bound = 1.1 * 2.0 * (1.0 / alpha_w) * radius_sq / (k + 1) ** 2
        worst_ratio = max(worst_ratio, excess / bound)
        bound_ok = bound_ok and excess <= bound

    # (c) preconditioned cost at iteration 30 beats unpreconditioned, 5 seeds
    margins = []
    for seed in range(1, 6):
        sprob = make_ct(64, 60, "tv", 0.01, Rng(seed))
        cost = {}
        for K in (0, 20):
            scfg = WapgConfig(lam=1.0, phi=1, sketch_size=K, outer_max=30,
                              box=box)
            srng = Rng(seed).spawn(1)
            spre, sk = build_wapg_preconditioner(sprob, scfg, srng.spawn(0))
            _, st = wapg_solve(sprob, scfg, spre, srng.spawn(1),
                               sketch_seconds=sk)
            cost[K] = float(st.costs[-1])
        margins.append(cost[0] - cost[20])
    race_ok = float(np.median(margins)) >= 0.0

    elapsed = time.perf_counter() - start
    ok = bitwise_ok and bound_ok and race_ok and elapsed < 600.0
    report(8, ok, f"(a) identity-metric run bitwise equals textbook loop: "
                  f"{bitwise_ok}; (b) O(1/k^2) bound holds with 10% slack "
                  f"(max bound usage {worst_ratio:.2f}); (c) median cost margin "
                  f"at iteration 30 {float(np.median(margins)):.1f} >= 0; "
                  f"{elapsed:.0f}s < 600s")


def test_criterion_9_structural_suites(tmp_path):
    # operator adjoints at their stated tolerances
    blur = blur_operator(gaussian_kernel(9, 1.6), 16, 16)
    adjoint_ok = all(
        adjoint_defect(op, Rng(21), trials=20) <= 1e-10 for op in (
            blur,
            downsample_operator(blur_operator(gaussian_kernel(7, 1.6), 16, 16),
                                16, 16, 2),
            grad_operator(8, 8)[0],
            hessian_operator(8, 8)[0],
            wavelet_operator(16, 16, 2),
        ))
    adjoint_ok = adjoint_ok and adjoint_defect(
        radon_operator(32, 16, 47), Rng(21), trials=20) <= 1e-8

    # wavelet perfect reconstruction and Parseval
    w = wavelet_operator(16, 16, 2)
    v = Rng(22).normal(256)
    wavelet_ok = (np.abs(w.adjoint(w.apply(v)) - v).max() <= 1e-10
                  and abs(np.linalg.norm(w.apply(v)) - np.linalg.norm(v)) <= 1e-10)

    # projections idempotent and nonexpansive in their group geometry
    proj_ok = True
    rng = Rng(23)
    for kind, pi in (("scalar", 1), ("vector", 2), ("sym2x2", 3)):
        gs = GroupStructure(kind, 30, pi)
        wts = np.tile(gs.component_weights, gs.group_count)
        for phi in (1, 2, math.inf):
            a = 3.0 * rng.normal(gs.range_dim)
            b = 3.0 * rng.normal(gs.range_dim)
            pa = project_group_ball(a, phi, gs)
            pb = project_group_ball(b, phi, gs)
            proj_ok &= bool(np.abs(project_group_ball(pa, phi, gs) - pa).max() <= 1e-12)
            proj_ok &= float(np.sum(wts * (pa - pb) ** 2)) <= float(
                np.sum(wts * (a - b) ** 2)) + 1e-12

    # salt-and-pepper exact corruption counts
    grid = ImageGrid(20, 20, np.full(400, 0.5))
    noisy = add_salt_pepper(grid, 0.05, Rng(24))
    sp_ok = (int(np.sum(noisy.data == 1.0)) == 20
             and int(np.sum(noisy.data == 0.0)) == 20)

    # CSV reproducibility under fixed seeds (non-timing columns)
    def run(name):
        spec = ExperimentSpec(name=name, task="deblur", solver="irm",
                              out_dir=str(tmp_path), n=32, sketch_sizes=(16,),
                              lam_grid=(0.05,), seeds=(3,), outer_max=3,
                              inner_max=300)
        return run_experiment(spec)[0]

    ra, rb = run("repro_a"), run("repro_b")
    csv_ok = True
    with open(ra.csv_path, newline="") as fa, open(rb.csv_path, newline="") as fb:
        for row_a, row_b in zip(csv.reader(fa), csv.reader(fb)):
            for idx, (va, vb) in enumerate(zip(row_a, row_b)):
                if idx not in (1, 5):  # elapsed_s and sketch_s may differ
                    csv_ok &= va == vb

    ok = adjoint_ok and wavelet_ok and proj_ok and sp_ok and csv_ok
    report(9, ok, f"adjoints {adjoint_ok}, wavelet {wavelet_ok}, "
                  f"projections {proj_ok}, salt-pepper counts {sp_ok}, "
                  f"CSV reproducibility {csv_ok}")
