"""The rules for counts, finite values, scales and lacunary sequences (``lproth.util``).

Every entry point that takes such an argument is called with bad values and
valid other arguments.  The work each one would start is patched to raise
``AssertionError``, so a rule that fires late fails the test; arguments the
rule rejects before they are used (a window pair, a transform table) are
passed as ``None``.  The last test covers ``usable_cpus``'s fallback where the
OS reports no affinity mask.
"""

import math
import os
import pathlib
import re

import numpy as np
import pytest

from lproth import claims, forms, gowers, lpgeom, mollifier, oscillatory, sets, util
from lproth.gowers import min_shell_grid  # held here: WORK patches the module's name
from lproth.util import (valid_count, valid_finite, valid_fraction, valid_lacunary,
                         valid_scale, valid_seed)

BAD_COUNTS = [0, -1, 2.5, math.inf, math.nan, "8", True]
BAD_SCALES = [0.0, -1.0, math.nan, math.inf, -math.inf]
BAD_FINITE = [math.nan, math.inf, -math.inf]
BAD_SEQUENCES = [[], [1.0, 1.5], [math.nan], [1.0, math.inf], [1.0, -2.0], [0.0, 1.0]]
BAD_FRACTIONS = [0.0, -0.5, 1.5, math.nan, math.inf, -math.inf]
BAD_SEEDS = [1.5, -1, math.nan, 2.0, -math.inf, True, "3", np.int64(-2)]

BOX = forms.full_box(4.0, 1.0, 1)
QUAD = lpgeom.sphere_quadrature(1.5, 1, 1.0, n=2)
SHELL = sets.bourgain_set(2)
CUBE = sets.full_box_set(2, 16.0)

# (entry point, argument) -> a call with that argument set to the bad value
COUNTS = {
    ("sphere_quadrature", "n"): lambda v: lpgeom.sphere_quadrature(1.5, 2, 1.0, n=v),
    ("shell_mc_quadrature", "n"): lambda v: lpgeom.shell_mc_quadrature(1.5, 2, 1.0, v, 0),
    ("sphere_quadrature", "d"): lambda v: lpgeom.sphere_quadrature(1.5, v, 1.0, n=8),
    ("shell_mc_quadrature", "d"): lambda v: lpgeom.shell_mc_quadrature(1.5, v, 1.0, 8, 0),
    ("unit_ball_volume", "d"): lambda v: lpgeom.unit_ball_volume(1.5, v),
    ("sigma_total_mass", "d"): lambda v: lpgeom.sigma_total_mass(1.5, v),
    ("KernelParams", "d"): lambda v: mollifier.KernelParams(1.5, v, 1.0, 0.5),
    ("c1_eps", "d"): lambda v: mollifier.c1_eps(0.5, 1.5, v, None),
    ("unit_ball_volume_mc", "n"): lambda v: lpgeom.unit_ball_volume_mc(1.5, 2, v, 0),
    ("i_of_t", "n_kl"): lambda v: oscillatory.i_of_t(1.5, 10.0, n_kl=v),
    ("i_of_t_lattice", "n_kl"): lambda v: oscillatory.i_of_t_lattice(1.5, 10.0, n_kl=v, n_y=64),
    ("i_of_t_lattice", "n_y"): lambda v: oscillatory.i_of_t_lattice(1.5, 10.0, n_kl=4, n_y=v),
    ("lacunary_sum_bound", "k"): lambda v: oscillatory.lacunary_sum_bound([1.0, 2.0], k=v),
    ("embed_kernel_difference", "M"): lambda v: gowers.embed_kernel_difference(
        0.05, 0.1, 1.5, v, None),
    ("u3_kernel_distance", "M"): lambda v: gowers.u3_kernel_distance(0.05, 0.1, 1.5, v, None),
    ("roth_main_term_experiment", "trials"): lambda v: forms.roth_main_term_experiment(
        0.5, 32.0, 2.0, v, None, 1.5),
    ("full_box", "d"): lambda v: forms.full_box(4.0, 1.0, v),
    ("random_indicator", "d"): lambda v: forms.random_indicator(4.0, 1.0, v, 0.5, seed=0),
    ("estimate_density", "n"): lambda v: SHELL.estimate_density(10.0, n=v),
    ("bourgain_set", "dim"): lambda v: sets.bourgain_set(v),
    ("gap_spectrum_sample", "n_hits"): lambda v: sets.gap_spectrum_sample(SHELL, 1.5, 10.0, v),
    ("gap_spectrum_sample", "max_proposals"): lambda v: sets.gap_spectrum_sample(
        SHELL, 1.5, 10.0, 1, max_proposals=v),
    ("progression_search", "budget"): lambda v: sets.progression_search(
        CUBE, 1.5, 2.0, tol=1e-6, budget=v, box_hi=16.0),
    ("theorem_experiment", "budget_per_scale"): lambda v: sets.theorem_experiment(
        0.5, 1.5, 2, 64.0, [4.0], [1], budget_per_scale=v),
    ("lacunary_generate", "J"): lambda v: sets.lacunary_generate(4.0, 2.0, v),
}

SCALES = {
    ("sphere_quadrature", "lam"): lambda v: lpgeom.sphere_quadrature(1.5, 2, v, n=8),
    ("KernelParams", "lam"): lambda v: mollifier.KernelParams(1.5, 1, v, 0.5),
    ("min_shell_grid", "eta"): lambda v: min_shell_grid(v, 0.1, 1.5),
    ("min_shell_grid", "eps"): lambda v: min_shell_grid(0.05, v, 1.5),
    ("theorem_experiment", "sequence"): lambda v: sets.theorem_experiment(
        0.5, 1.5, 2, 64.0, [4.0, v], [1]),
    ("BoxFunction", "N"): lambda v: forms.BoxFunction(values=np.ones(4), N=v, h=1.0),
    ("full_box", "N"): lambda v: forms.full_box(v, 1.0, 1),
    ("full_box", "h"): lambda v: forms.full_box(4.0, v, 1),
    ("random_indicator", "h"): lambda v: forms.random_indicator(4.0, v, 1, 0.5, seed=0),
    ("box_partition_pigeonhole", "ell"): lambda v: forms.box_partition_pigeonhole(BOX, v),
    ("estimate_density", "box_hi"): lambda v: SHELL.estimate_density(v, n=10),
    ("gap_spectrum_sample", "box_hi"): lambda v: sets.gap_spectrum_sample(SHELL, 1.5, v, 1),
    ("progression_search", "box_hi"): lambda v: sets.progression_search(
        CUBE, 1.5, 2.0, tol=1e-6, budget=10, box_hi=v),
    ("progression_search", "tol"): lambda v: sets.progression_search(
        CUBE, 1.5, 2.0, tol=v, budget=10, box_hi=16.0),
    ("u3_form_control", "lam"): lambda v: claims.u3_form_control(BOX, [1.0, 0.5], v),
    ("roth_main_term_experiment", "lam"): lambda v: forms.roth_main_term_experiment(
        0.5, 32.0, v, 2, None, 1.5),
}

FRACTIONS = {
    ("roth_main_term_experiment", "delta"): lambda v: forms.roth_main_term_experiment(
        v, 32.0, 2.0, 2, None, 1.5),
    ("random_indicator", "density"): lambda v: forms.random_indicator(4.0, 1.0, 1, v, seed=0),
    ("theorem_experiment", "delta"): lambda v: sets.theorem_experiment(
        v, 1.5, 2, 64.0, [4.0], [1]),
}

# one bad seed after a good one
SEEDS = {
    ("theorem_experiment", "seeds"): lambda v: sets.theorem_experiment(
        0.5, 1.5, 2, 64.0, [4.0], [1, v]),
}

FINITE = {
    ("inner_integral", "t"): lambda v: oscillatory.inner_integral(
        oscillatory.PhaseFamily(1.5, 0.1, 0.2), v),
    ("i_of_t", "t"): lambda v: oscillatory.i_of_t(1.5, v, n_kl=4),
    ("i_of_t_lattice", "t"): lambda v: oscillatory.i_of_t_lattice(1.5, v, n_kl=4, n_y=64),
    ("u3_tensor_check", "t"): lambda v: gowers.u3_tensor_check(1.5, v),
    ("n_lambda", "lam"): lambda v: forms.n_lambda(BOX, QUAD, v),
    ("multiplier_check", "xi1"): lambda v: oscillatory.multiplier_check(v, -0.4, 0.9, [1.5], None),
    ("multiplier_check", "xi2"): lambda v: oscillatory.multiplier_check(0.7, v, 0.9, [1.5], None),
    ("multiplier_check", "xi3"): lambda v: oscillatory.multiplier_check(0.7, -0.4, v, [1.5], None),
    ("lacunary_generate", "lambda1"): lambda v: sets.lacunary_generate(v, 2.0, 3),
    ("lacunary_generate", "ratio"): lambda v: sets.lacunary_generate(4.0, v, 3),
}

SEQUENCES = {
    ("energy_sum", "lambdas"): lambda v: forms.energy_sum(BOX, v, 0.25, None, 1.5),
    ("lacunary_sum_bound", "mu"): lambda v: oscillatory.lacunary_sum_bound(v),
    ("multiplier_check", "lambdas"): lambda v: oscillatory.multiplier_check(0.7, -0.4, 0.9, v, None),
}

# (entry point, argument) -> a call with that argument just past the range it supports
LIMITS = {
    ("sphere_quadrature", "d"): lambda: lpgeom.sphere_quadrature(1.5, 4, 1.0),
    ("shell_mc_quadrature", "d"): lambda: lpgeom.shell_mc_quadrature(1.5, 9, 1.0, 8, 0),
    ("unit_ball_volume", "d"): lambda: lpgeom.unit_ball_volume(1.5, 2000),
    ("kernel_fourier", "d"): lambda: mollifier.kernel_fourier(
        np.zeros(2), mollifier.KernelParams(1.5, 2, 1.0, 0.1), None),
    ("progression_search", "d"): lambda: sets.progression_search(
        sets.bourgain_set(4), 1.5, 2.0, tol=1e-3, budget=1000, box_hi=4.0, seed=1),
}

# the first piece of work of each entry point above
WORK = [(lpgeom, "_graph_rule"), (lpgeom, "spawn_rng"),
        (oscillatory, "_panel_count"), (oscillatory, "_shift_cells"), (oscillatory, "phi_plus"),
        (mollifier, "build_cancelled_kernel"),
        (gowers, "even_bump"), (gowers, "min_shell_grid"), (forms, "spawn_rng"),
        (forms, "resolved_grid"), (forms, "e_lambda"), (forms, "_gap_sums"),
        (forms, "_product_view"), (sets, "spawn_rng"), (sets, "random_indicator")]


@pytest.fixture()
def no_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")
    for module, name in WORK:
        monkeypatch.setattr(module, name, refuse)


def _rejects(call, name, value):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value).startswith(f"{name} must "), (value, str(info.value))


@pytest.mark.parametrize("key", list(COUNTS), ids="-".join)
def test_counts_rejected_by_name(key, no_work):
    for value in BAD_COUNTS:
        _rejects(COUNTS[key], key[1], value)


@pytest.mark.parametrize("key", list(SCALES), ids="-".join)
def test_scales_rejected_by_name(key, no_work):
    for value in BAD_SCALES:
        _rejects(SCALES[key], key[1], value)


@pytest.mark.parametrize("key", list(FINITE), ids="-".join)
def test_finite_values_rejected_by_name(key, no_work):
    for value in BAD_FINITE:
        _rejects(FINITE[key], key[1], value)


@pytest.mark.parametrize("key", list(FRACTIONS), ids="-".join)
def test_fractions_rejected_by_name(key, no_work):
    for value in BAD_FRACTIONS:
        _rejects(FRACTIONS[key], key[1], value)


@pytest.mark.parametrize("key", list(SEEDS), ids="-".join)
def test_seeds_rejected_by_name(key, no_work):
    for value in BAD_SEEDS:
        _rejects(SEEDS[key], key[1], value)


@pytest.mark.parametrize("key", list(LIMITS), ids="-".join)
def test_limits_rejected_by_name(key, no_work):
    _rejects(lambda _: LIMITS[key](), key[1], None)


@pytest.mark.parametrize("key", list(SEQUENCES), ids="-".join)
def test_lacunary_sequences_rejected_by_name(key, no_work):
    for value in BAD_SEQUENCES:
        _rejects(SEQUENCES[key], key[1], value)


class TestRules:
    def test_count_converts_to_int(self):
        for n, want in ((np.int64(3), 3), (7, 7), (10**20, 10**20)):
            got = valid_count("n", n)
            assert got == want and type(got) is int

    @pytest.mark.parametrize("value,message", [
        (0, "n must be at least 1, got 0"), (-1, "n must be at least 1"),
        (math.nan, "n must be at least 1"), (-math.inf, "n must be at least 1"),
        (False, "n must be at least 1"), (2.5, "n must be an integer"),
        (math.inf, "n must be an integer"), (3.0, "n must be an integer"),
        ("8", "n must be an integer, got '8'"), (True, "n must be an integer"),
    ])
    def test_count_messages(self, value, message):
        with pytest.raises(ValueError, match="^" + message):
            valid_count("n", value)

    def test_scale_and_finite_convert_to_float(self):
        for rule in (valid_scale, valid_finite):
            assert rule("x", np.float64(0.5)) == 0.5 and type(rule("x", 2)) is float
        assert valid_finite("x", -3) == -3.0 and valid_finite("x", 0) == 0.0

    def test_scale_messages(self):
        with pytest.raises(ValueError, match="^tol must be finite and positive, got 0.0"):
            valid_scale("tol", 0.0)
        with pytest.raises(ValueError, match="^t must be finite, got nan"):
            valid_finite("t", math.nan)

    def test_seed_converts_to_int(self):
        for s, want in ((0, 0), (np.int64(3), 3), (10**20, 10**20)):
            got = valid_seed("seeds", s)
            assert got == want and type(got) is int

    @pytest.mark.parametrize("value,message", [
        (1.5, "seeds must hold non-negative integers, got 1.5"),
        (-1, "seeds must hold non-negative integers, got -1"),
        (math.nan, "seeds must hold non-negative integers, got nan"),
        (3.0, "seeds must hold non-negative integers, got 3.0"),
        (False, "seeds must hold non-negative integers, got False"),
    ])
    def test_seed_messages(self, value, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            valid_seed("seeds", value)

    def test_fraction(self):
        assert valid_fraction("delta", 1) == 1.0 and type(valid_fraction("delta", 1)) is float
        assert valid_fraction("delta", np.float64(0.25)) == 0.25
        with pytest.raises(ValueError, match=r"^delta must be finite and in \(0, 1\], got 1.5$"):
            valid_fraction("delta", 1.5)

    def test_lacunary(self):
        got = valid_lacunary("mu", (1, np.float64(2.0), 4.5))
        assert got == [1.0, 2.0, 4.5] and all(type(v) is float for v in got)
        assert valid_lacunary("mu", [3.0]) == [3.0]
        with pytest.raises(ValueError, match="^mu must not be empty"):
            valid_lacunary("mu", iter(()))
        with pytest.raises(ValueError, match=r"^mu must at least double at each step, got \[1.0, 1.5\]"):
            valid_lacunary("mu", [1.0, 1.5])


RULE_MESSAGES = ("must be at least 1", "must be finite and positive", "must at least double",
                 # the hand-written wordings these rules replaced
                 "must be positive and finite", "must be an integer of at least 1",
                 "must hold finite positive scales")
RULE_HOMES = {"util.py", "cli.py"}  # cli.py words its config errors itself


def test_rule_messages_live_in_util():
    strays = [(path.name, m) for path in pathlib.Path(lpgeom.__file__).parent.glob("*.py")
              if path.name not in RULE_HOMES for m in RULE_MESSAGES if m in path.read_text()]
    assert not strays, f"state these rules through lproth.util: {strays}"


def test_usable_cpus_fallback(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert util.usable_cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert util.usable_cpus() == 1
