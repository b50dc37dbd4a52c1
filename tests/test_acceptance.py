"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Statistical criteria use
fixed master seeds, so outcomes are reproducible bit for bit.
"""

import os
import time

import numpy as np
import pytest
from scipy.stats import binomtest

import distreg as dr
from distreg.density_distance import default_grid, grid_integral, l1_distance
from distreg.experiments import parse_config, run_experiment
from distreg.regression import calibrate_sample_size, calibration_target, default_max_iter, family_grid
from distreg.theory_checks import lemma1_rhs, scaling_report


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_c01_theorem1_scaling_slope_and_envelope():
    start = time.perf_counter()
    m_values = [16, 64, 256, 1024, 4096]
    worst_slope_gap = 0.0
    envelope_ok = True
    for d in (1, 2, 3):
        meta = dr.make_box_meta(d)
        rep = scaling_report(meta, meta.center(), m_values, 200, np.random.default_rng([1, d]))
        worst_slope_gap = max(worst_slope_gap, abs(rep.slope + 1.0 / d))
        for m, mean in zip(rep.m_values, rep.means):
            envelope_ok &= mean <= dr.theorem1_rhs_bound(d, m)
    elapsed = time.perf_counter() - start
    ok = worst_slope_gap <= 0.15 and envelope_ok and elapsed < 120
    _report(
        1,
        "theorem1-scaling",
        ok,
        f"max |slope + 1/d| = {worst_slope_gap:.3f}, envelope ok = {envelope_ok}, {elapsed:.1f}s",
    )


def test_c02_expected_min_distance_spot_values():
    meta = dr.make_box_meta(1)
    s = dr.DistributionHandle((0.5,))
    gaps = []
    ok = True
    for m, expected in [(1, 0.25), (3, 0.125), (9, 0.05)]:
        mean, stderr = dr.expected_min_distance(meta, s, m, 10_000, np.random.default_rng([2, m]))
        gaps.append(abs(mean - expected) / stderr)
        ok &= abs(mean - expected) <= 3.0 * stderr
    _report(2, "analytic-spot-values", ok, f"deviations in stderr units: {[f'{g:.2f}' for g in gaps]}")


def test_c03_small_ball_bound():
    trials = 10_000
    ok = True
    worst_pvalue = 1.0
    for d in (1, 2):
        meta = dr.make_box_meta(d)
        rep = dr.check_small_ball_bound(meta, meta.center(), 10, trials, np.random.default_rng([3, d]))
        ok &= all(rep.holds)
        for emp, exact in zip(rep.empirical_mass, rep.exact_mass):
            if 0.0 < exact < 1.0:
                p = binomtest(round(emp * trials), trials, exact).pvalue
                worst_pvalue = min(worst_pvalue, p)
            else:
                ok &= emp == exact
    # 0.0027 is the two-sided 3-sigma level; exact binomial handles tiny-mass cells
    ok &= worst_pvalue >= 0.0027
    _report(3, "small-ball-bound", ok, f"all holds, worst exact-vs-empirical p-value {worst_pvalue:.3f}")


def test_c04_lemma1_grid_and_geometric_value():
    ok = True
    for d in (1, 2):
        meta = dr.make_box_meta(d)
        s = meta.center()
        for m in (1, 4, 16, 64):
            res = dr.lemma1_sums(meta, s, m, 40, 10_000, np.random.default_rng([4, d, m]))
            ok &= res.holds
    rhs_gap = abs(lemma1_rhs(1, 1, 30) - 2.0 / 3.0)
    ok &= rhs_gap <= 1e-6
    _report(4, "lemma1-dyadic-sums", ok, f"all cells hold, |rhs(1,1,30) - 2/3| = {rhs_gap:.2e}")


def test_c05_telescoping_identity_exact():
    ok = True
    for d in (1, 2, 3):
        for m in (1, 10, 100):
            for i in range(1, 41):
                partial, direct = dr.telescoping_sums(d, m, i)
                ok &= partial == direct
    _report(5, "telescoping-identity", ok, "exact rational equality for all d, m, i <= 40")


def test_c06_kde_normalization_on_default_grids():
    rng = np.random.default_rng(0)
    worst = 0.0
    count = 0
    for kind in dr.KERNELS:
        for dim in (1, 2):
            for _ in range(10):
                n = int(rng.integers(400, 600))
                x = rng.normal(rng.uniform(-3, 3), rng.uniform(0.5, 2.0), size=(n, dim))
                if kind == "boxcar":
                    bandwidth = float(rng.uniform(1.2, 2.0) * x.std(axis=0).mean())
                else:
                    bandwidth = dr.select_bandwidth(x)
                est = dr.kde_build(x, bandwidth, dr.KERNELS[kind])
                worst = max(worst, abs(grid_integral(est, default_grid(est)) - 1.0))
                count += 1
    ok = worst <= 1e-3 and count >= 50
    _report(6, "kde-normalization", ok, f"{count} estimates, max |integral - 1| = {worst:.2e}")


def test_c07_kernel_kernel_contract():
    meta = dr.make_box_meta(1)
    grid = family_grid(meta, 16)
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(500):
        m = int(rng.integers(1, 6))
        dataset = dr.regression.draw_labeled_dataset(meta, m, 64, rng)
        handle = dr.draw_distribution(meta, rng)
        samples = dr.draw_samples(meta, handle, 64, rng)
        query = dr.kde_build(samples, dr.select_bandwidth(samples), dr.EPANECHNIKOV)
        h = float(rng.uniform(0.05, 1.0))
        pred = dr.kernel_kernel_estimate(dataset, query, h, dr.GAUSSIAN, grid)
        labels = [item.label for item in dataset]
        ok &= min(labels) - 1e-12 <= pred <= max(labels) + 1e-12
    # vanishing boxcar weights: all distances exceed h, prediction exactly 0
    far = dr.LabeledEstimate(estimate=dr.kde_build([[-2.0]], 0.1, dr.BOXCAR), label=9.0)
    near = dr.kde_build([[3.0]], 0.1, dr.BOXCAR)
    zero = dr.kernel_kernel_estimate([far], near, 0.01, dr.BOXCAR, grid)
    ok &= zero == 0.0
    _report(7, "kernel-kernel-contract", ok, "500 bounded instances, boxcar zero case exact")


def _run_adaptive_batch(meta, grid, epsilon, n, trials, seed):
    max_iter = default_max_iter(epsilon, meta)
    results = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        target = dr.draw_distribution(meta, rng)
        samples = dr.draw_samples(meta, target, n, rng)
        res = dr.adaptive_closest_point(meta, samples, epsilon, n, max_iter, rng, grid)
        results.append((res, abs(res.label - dr.oracle_label(meta, target))))
    return results


def test_c08_end_to_end_adaptive_regression():
    start = time.perf_counter()
    epsilon, meta = 0.2, dr.make_box_meta(1)
    lipschitz = meta.lipschitz_const
    grid = family_grid(meta, 16)
    calibration = calibrate_sample_size(meta, calibration_target(epsilon, meta), 0.9, np.random.default_rng([8, 0]), grid)
    results = _run_adaptive_batch(meta, grid, epsilon, calibration.n, 100, 800)
    converged = [(res, err) for res, err in results if res.converged]
    threshold_ok = all(res.accepted_distance <= epsilon / (3.0 * lipschitz) for res, _ in converged)
    success = sum(err <= epsilon for _, err in converged) / len(converged)
    elapsed = time.perf_counter() - start
    ok = bool(converged) and threshold_ok and success >= 0.9 and elapsed < 300
    _report(
        8,
        "adaptive-regression-end-to-end",
        ok,
        f"n = {calibration.n} (capped = {calibration.capped}), converged {len(converged)}/100, "
        f"success rate {success:.2f}, thresholds exact = {threshold_ok}, {elapsed:.0f}s",
    )


def test_c09_iteration_trend_report_only():
    epsilon, meta = 0.6, dr.make_box_meta(1)
    grid = family_grid(meta, 16)
    medians = {}
    for idx, eps in enumerate((epsilon, epsilon / 2.0)):
        cal = calibrate_sample_size(meta, calibration_target(eps, meta), 0.9, np.random.default_rng([9, idx, 0]), grid)
        results = _run_adaptive_batch(meta, grid, eps, cal.n, 100, 900 + idx)
        medians[eps] = float(np.median([res.iterations for res, _ in results]))
    factor = medians[epsilon / 2.0] / medians[epsilon]
    in_band = 1.2 <= factor <= 8.0
    # report-only: the factor evidences the delta^(-d) draw-complexity trend
    print(
        f"ACCEPTANCE 09 iteration-trend: RECORDED (median iterations "
        f"{medians[epsilon]:.1f} @ eps={epsilon} vs {medians[epsilon/2.0]:.1f} @ eps={epsilon/2.0}, "
        f"factor {factor:.2f}, in [1.2, 8] = {in_band})"
    )
    assert all(m > 0 for m in medians.values())


def _csv_bytes(config_text: str, out, threads: int) -> bytes:
    previous = os.environ.get("DISTREG_THREADS")
    os.environ["DISTREG_THREADS"] = str(threads)
    try:
        run_experiment(parse_config(config_text))
        return out.read_bytes()
    finally:
        if previous is None:
            del os.environ["DISTREG_THREADS"]
        else:
            os.environ["DISTREG_THREADS"] = previous


def test_c10_byte_identical_reports(tmp_path):
    ok = True
    for name, body in [
        ("theorem1_scaling", "trials: 60\nd_list: [1, 2]\nm_list: [16, 64]\n"),
        ("adaptive_regression", "trials: 5\nepsilon: 0.6\nn: 128\nmax_iter: 40\n"),
        ("lemma1", "trials: 400\nd_list: [1]\nm_list: [1, 4]\ni_max: 30\n"),
    ]:
        out = tmp_path / f"{name}.csv"
        text = f"experiment: {name}\nseed: 13\nout_path: {out}\n" + body
        runs = {threads: _csv_bytes(text, out, threads) for threads in (1, 4)}
        rerun = _csv_bytes(text, out, 1)
        ok &= runs[1] == runs[4] == rerun
    _report(10, "deterministic-reports", ok, "byte-identical CSVs for DISTREG_THREADS in {1, 4}")
