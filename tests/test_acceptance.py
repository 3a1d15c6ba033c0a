"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS lines; each criterion is also an ordinary assertion.  Claims shared
with `lproth run` are measured by `lproth.claims`, and each criterion
states the bound it expects their records to carry.
"""

import math
import time

import numpy as np

from lproth import claims, forms, oscillatory
from lproth.mollifier import KernelParams
from lproth.util import spawn_rng


def criterion(n, stated, ok, detail):
    """One PASS/FAIL line: each (record, tolerance) in ``stated`` passed at that bound, and ok."""
    ok = ok and all(chk.passed and chk.bound == bound for chk, bound in stated)
    line = f"[acceptance {n:>2}] {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


class TestAcceptance:
    def test_01_difference_cube_oracle_equivalence(self):
        t0 = time.perf_counter()
        chk = claims.u3_oracle_equivalence(spawn_rng(101, 0), [(16, 1, 25), (8, 2, 25)])
        dt = time.perf_counter() - t0
        criterion(1, [(chk, 1e-10)], dt < 60.0, f"recursive vs definitional U^3 on 50 grids: "
                  f"worst rel {chk.values['worst_rel']:.2e}, {dt:.1f}s")

    def test_02_spectral_identity(self):
        chk = claims.u2_spectral_identity(spawn_rng(102, 0), 100)
        criterion(2, [(chk, 1e-10)], True, f"U^2 brute force vs DFT fourth moment on 100 grids: "
                  f"worst rel {chk.values['worst_rel']:.2e}")

    def test_03_decay_dichotomy(self):
        t0 = time.perf_counter()
        envelopes = [claims.decay_envelope(p, 48)[0] for p in (1.5, 3.0)]
        stated = [(chk, -1.0 / chk.values["r"] + 0.05) for chk in envelopes]
        stated += [(claims.no_decay_degenerate(p, 24), -0.02) for p in (1.0, 2.0)]
        dt = time.perf_counter() - t0
        slopes = [f"{c.name}: slope {c.values['slope']:+.4f} vs {b:+.3f}" for c, b in stated]
        criterion(3, stated, dt < 600.0, "; ".join(slopes) + f"; {dt:.0f}s")

    def test_04_phase_degeneracy(self):
        rng = spawn_rng(104, 0)
        worst = 0.0
        n = 0
        while n < 10**4:
            k, l = rng.uniform(-0.5, 0.5, size=2)
            fam = oscillatory.PhaseFamily(2.0, k, l)
            lo, hi = fam.admissible_interval()
            if hi <= lo:
                continue
            y = float(rng.uniform(lo, hi))
            v, _ = oscillatory.phase_eval(fam, y)
            worst = max(worst, abs(v - 2.0 * k * l))
            n += 1
        chk = claims.phase_remainder_agreement()
        dev3 = max(abs(a - b) for a, b in zip(chk.values["direct"], chk.values["remainder"]))
        criterion(4, [(chk, 1e-8)], worst < 1e-12,
                  f"quadratic constancy dev {worst:.2e} at 1e4 points; "
                  f"cubic remainder-form dev {dev3:.2e}")

    def test_05_square_shell_obstruction(self):
        half = claims.half_integer_gap_restriction(10**5, 4 * 10**7, 105)
        forb = claims.forbidden_gap_exhaustion(10**7, 105)
        hits = half.values["hits"]
        criterion(5, [(half, 0.4 + 1e-9), (forb, None)], hits == 10**5,
                  f"{hits} verified progressions, max dist(2 gap^2, Z) = "
                  f"{half.values['max_dev']:.6f} <= 0.4; "
                  f"forbidden probe exhausted {forb.values['proposals']} proposals")

    def test_06_nonquadratic_escape(self):
        chk, spectrum = claims.gap_escape_nonquadratic(1.5, 10**5, 4 * 10**7, 106)
        criterion(6, [(chk, 0.45)], spectrum.gaps.size == 10**5, f"p=1.5 spectrum: "
                  f"{spectrum.gaps.size} gaps, max deviation {chk.values['max_dev']:.4f} > 0.45")

    def test_07_cancellation_and_multiplier(self, moll):
        params = KernelParams(1.5, 1, 1.0, 0.05)
        canc = claims.cancellation_integral(params, moll)
        zero = claims.transform_zero_at_origin(params, moll)
        rng = spawn_rng(107, 0)
        cap = claims.lacunary_sum_cap(rng, trials=100, terms=15, first_hi=2.0, step_hi=2.0, k=1)
        # scales start high enough that every added term sits past the
        # transform decay onset (~24 / shell width) for the sampled frequencies
        table = oscillatory.build_transform_table(1.5, 0.05, moll)
        lam6 = [16.0 * 2.0**j for j in range(6)]
        lam12 = [16.0 * 2.0**j for j in range(12)]
        worst_ratio = 1.0
        n = 0
        while n < 100:
            xi = rng.uniform(-2.0, 2.0, size=3)
            eta = -xi[0] + xi[1] - xi[2]
            zeta = xi[0] + 2.0 * xi[2]
            if (abs(eta) < 0.3 or abs(zeta) < 0.3
                    or oscillatory.dist_to_degenerate_subspace(xi) < 1e-3):
                continue
            m6 = abs(oscillatory.multiplier_value(xi, lam6, table))
            m12 = abs(oscillatory.multiplier_value(xi, lam12, table))
            ratio = m12 / m6 if m6 > 0 else np.inf
            worst_ratio = max(worst_ratio, ratio, 1.0 / ratio)
            n += 1
        ref = canc.values["reference"]
        criterion(7, [(canc, 1e-6 * ref), (zero, 1e-8), (cap, 4.0)], worst_ratio <= 2.0,
                  f"cancelled integral {canc.values['residual']:.2e} <= 1e-6*{ref:.3f}; "
                  f"transform at zero {zero.values['k_hat_0']:.2e} < 1e-8; 100 lacunary caps "
                  f"hold; scale-count ratio worst {worst_ratio:.3f} <= 2")

    def test_08_kernel_mass_stability(self, moll):
        bands = [claims.kernel_mass_band(p, d, moll) for p in (1.5, 3.0) for d in (1, 2)]
        unit = claims.mass_ratio_unit(1.5, 2, moll)
        ratios = ", ".join(f"{chk.values['ratio']:.4f}" for chk in bands)
        criterion(8, [(chk, 1.5) for chk in bands] + [(unit, 1.0)], True,
                  f"mass max/min (p=1.5, 3; d=1, 2) {ratios}; c1(1) = {unit.values['c1_at_1']}")

    def test_09_decomposition_and_sphere_mass(self, moll):
        rng = spawn_rng(109, 0)
        N = 32.0
        stated = []
        for lam, eps in ((2.0, 0.25), (4.0, 0.5)):
            n, h = forms.resolved_grid(N, lam, eps, 1.5)
            for trial in range(3):
                vals = np.ones(n) if trial == 0 else rng.uniform(-1, 1, size=n)
                f = forms.BoxFunction(values=vals, N=N, h=h)
                stated.append((claims.form_decomposition_identity(f, lam, eps, moll, 1.5), 1e-10))
        worst = max(chk.values["residual"] for chk, _ in stated)
        spheres = {p: claims.sphere_mass_invariance(p, 2, 2048) for p in (1.5, 2.0, 3.0)}
        stated += [(chk, 1e-4) for chk in spheres.values()]
        pi_ok = all(abs(m - math.pi) < 1e-6 for m in spheres[2.0].values["masses"])
        criterion(9, stated, pi_ok,
                  f"decomposition residual worst {worst:.2e} < 1e-10; sphere masses "
                  f"radius-invariant to 1e-4; Euclidean value pi to 1e-6")

    def test_10_pigeonhole_exact(self):
        checks = [claims.pigeonhole_half_density(d, 0.3, range(50)) for d in (1, 2)]
        count = sum(chk.values["trials"] for chk in checks)
        criterion(10, [(chk, None) for chk in checks], count == 100,
                  f"half-density box count exact on {count} random sets (d = 1, 2)")

    def test_11_positive_control(self):
        t0 = time.perf_counter()
        chk, _ = claims.positive_control(1.5, range(1, 26), 3 * 10**5)
        dt = time.perf_counter() - t0
        hit = sum(1 for g in chk.values["realized"] if g)
        criterion(11, [(chk, None)], dt < 900.0,
                  f"{hit}/25 seeds realized a lacunary gap (delta=0.4, p=1.5, N=64); {dt:.0f}s")

    def test_12_tensorization(self):
        checks = [claims.u3_tensor_product(p, t) for p, t in ((1.5, 2.0), (3.0, 5.0))]
        gaps = ", ".join(f"{chk.name}: gap {chk.values['gap']:.2e}" for chk in checks)
        criterion(12, [(chk, 1e-2) for chk in checks], True,
                  f"product-structure identity at M=64: {gaps}")
