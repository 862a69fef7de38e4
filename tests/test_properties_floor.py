"""Property tests of the constant-lattice search over generated platforms.

AO's constant floor guard (:func:`repro.algorithms.ao.best_constant_above`)
and EXS-pruned share one branch-and-bound over the voltage ladder.  Here
hypothesis draws platforms from the technology-scaling generator — node ×
core style × core count × ladder size × threshold, optionally with some
cores power-gated — and checks the search against a brute-force oracle
that prices every assignment with ``steady_state_batch``, plus the
paper's AO >= EXS ordering and honest failure: a guarded solve is either
certified safe or raises :class:`~repro.errors.InfeasibleError`.

Profiles: loads the ``ci`` profile by default (derandomized, no
deadline); set ``HYPOTHESIS_PROFILE=dev`` for a wider randomized search.
"""

import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.ao import ao, best_constant_above
from repro.algorithms.continuous import continuous_assignment
from repro.algorithms.exs import exs
from repro.algorithms.oscillation import plan_modes
from repro.algorithms.registry import guarded_solve
from repro.errors import InfeasibleError
from repro.scaling.generator import tech_platform

settings.register_profile(
    "ci", max_examples=30, deadline=None, derandomize=True, print_blob=True
)
settings.register_profile("dev", max_examples=150, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@st.composite
def platforms(draw, gating=True):
    """A generated tech platform and an optional active-core mask."""
    n_cores = draw(st.integers(2, 5))
    platform = tech_platform(
        node=draw(st.sampled_from([45, 32, 22, 16])),
        style=draw(st.sampled_from(["io", "o3"])),
        n_cores=n_cores,
        n_levels=draw(st.integers(2, 5)),
        t_max_c=draw(st.floats(45.0, 120.0)),
    )
    mask = None
    if gating and draw(st.booleans()):
        mask = np.array(
            draw(st.lists(st.booleans(), min_size=n_cores, max_size=n_cores))
        )
        if not mask.any():
            mask[draw(st.integers(0, n_cores - 1))] = True
    return platform, mask


def oracle(platform, plan, incumbent_sum):
    """Brute force over the lattice with the guard's incumbent rule.

    Enumerates the active cores' levels with ``itertools.product`` in
    descending-level DFS order, prices every assignment in one
    ``steady_state_batch`` call, and returns the last record-breaking
    feasible assignment: the first maximum in DFS order.
    """
    limit = platform.theta_max + 1e-9
    best_sum, best = float(incumbent_sum), None
    floor = plan.v_low.astype(float)
    if (platform.model.steady_state_cores(floor).max() <= limit
            and floor.sum() > best_sum + 1e-12):
        best_sum, best = float(floor.sum()), floor
    active = np.flatnonzero(plan.target_voltages > 0.0)
    levels = sorted(platform.ladder.levels, reverse=True)
    combos = np.array(list(itertools.product(levels, repeat=active.size)))
    volts = np.zeros((len(combos), platform.n_cores))
    volts[:, active] = combos
    peaks = platform.model.steady_state_batch(volts).max(axis=1)
    for row, peak in zip(volts, peaks):
        total = 0.0
        for v in row[active]:  # the search's own summation order
            total += v
        if peak <= limit and total > best_sum + 1e-12:
            best_sum, best = total, row
    return best


@given(platforms())
def test_floor_search_matches_brute_force(drawn):
    platform, mask = drawn
    try:
        plan = plan_modes(platform, continuous_assignment(platform, mask).voltages)
    except InfeasibleError:
        # Even v_min on every active core is too hot: nothing is feasible.
        floor = np.full(platform.n_cores, platform.ladder.v_min)
        if mask is not None:
            floor[~mask] = 0.0
        assert platform.model.steady_state_cores(floor).max() > platform.theta_max
        return
    incumbents = [-1.0]
    try:
        result = ao(platform, active_mask=mask)
        incumbents.append(result.throughput * platform.n_cores)
    except InfeasibleError:
        pass
    for incumbent in incumbents:
        got = best_constant_above(platform, plan, incumbent)
        want = oracle(platform, plan, incumbent)
        if want is None:
            assert got is None
        else:
            assert got is not None
            np.testing.assert_array_equal(got, want)


@given(platforms(gating=False))
def test_ao_never_loses_to_exs(drawn):
    platform, _ = drawn
    try:
        exs_result = exs(platform)
    except InfeasibleError:
        # No constant assignment fits, so not even AO's all-v_min start.
        with pytest.raises(InfeasibleError):
            ao(platform)
        return
    ao_result = ao(platform)
    assert ao_result.throughput >= exs_result.throughput - 1e-9
    assert ao_result.peak_theta <= platform.theta_max + 1e-6



@settings(max_examples=20)
@given(
    node=st.sampled_from([45, 32, 22, 16, 11, 8]),
    style=st.sampled_from(["io", "o3"]),
    n_cores=st.integers(2, 6),
    t_max_c=st.floats(46.0, 70.0),
)
def test_guarded_solve_is_safe_or_infeasible(node, style, n_cores, t_max_c):
    platform = tech_platform(node, style=style, n_cores=n_cores, t_max_c=t_max_c)
    for algo in ("AO", "PCO", "LNS"):
        try:
            result = guarded_solve(algo, platform)
        except InfeasibleError:
            continue
        assert result.feasible, algo
        assert result.certificate.accepted, algo
