import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from scaleopt import direct1d
from scaleopt.errors import ObjectiveEvaluationError, PreconditionError
from scaleopt.harness import build_direct_counterexample, direct_homogeneity_check
from scaleopt.objectives import get_objective


def partition_from(deltas, values, epsilon):
    intervals = []
    left = 0.0
    for d, f in zip(deltas, values):
        intervals.append(direct1d.Interval(left, left + 2 * d, float(f)))
        left += 2 * d
    return direct1d.DirectPartition(intervals, epsilon)


class TestPotentiallyOptimal:
    def test_single_interval_accepted(self):
        p = partition_from([0.5], [3.0], 1e-4)
        out = direct1d.potentially_optimal(p, 0)
        assert out.decision
        assert out.l_hi == math.inf

    def test_equal_lengths_only_smaller_value(self):
        p = partition_from([0.25, 0.25], [1.0, 2.0], 1e-4)
        assert direct1d.potentially_optimal(p, 0).decision
        assert not direct1d.potentially_optimal(p, 1).decision

    def test_hand_instance(self):
        p = partition_from([1 / 6, 1 / 2, 1 / 6], [1.0, 1.2, 1.1], 0.01)
        assert direct1d.potentially_optimal(p, 0).decision

    def test_random_partitions_match_dense_scan_oracle(self):
        rng = np.random.default_rng(42)
        eps = 1e-4
        for _ in range(60):
            deltas, values, _ = oracles.random_trisection_partition(
                rng, splits=3, positive=False)
            p = partition_from(deltas, values, eps)
            for j in range(len(deltas)):
                closed = direct1d.potentially_optimal(p, j).decision
                ref = oracles.dense_l_potentially_optimal(deltas, values, j,
                                                          eps)
                assert closed == ref, (deltas, values, j)

    def test_out_of_range_index(self):
        p = partition_from([0.5], [3.0], 1e-4)
        with pytest.raises(IndexError):
            direct1d.potentially_optimal(p, 3)

    @pytest.mark.parametrize("j", [-1, 2])
    def test_out_of_range_index_not_wrapped(self, j):
        # dominated[-1] is true here, so a wrapped -1 would return a decision
        p = partition_from([0.25, 0.25], [1.0, 2.0], 1e-4)
        assert p.dominated.tolist() == [False, True]
        with pytest.raises(IndexError, match=f"interval index {j} out of range"):
            direct1d.potentially_optimal(p, j)


SLACK, REL = direct1d.FEASIBILITY_SLACK, direct1d.DELTA_EQ_REL


@st.composite
def awkward_partitions(draw):
    """Partitions whose half-lengths lie a few ulps apart or just either side
    of DELTA_EQ_REL, and whose values tie, differ by exactly FEASIBILITY_SLACK
    or are so large that subtracting the slack leaves them unchanged."""
    base = draw(st.sampled_from([1.0, 1 / 3, 1 / 27]))
    scales = [1.0, 1 / 3, 1 / (1 - REL), 1 + REL * (1 - 1e-6), 1 + REL * (1 + 1e-6),
              1 - REL * (1 - 1e-6), 1 - REL * (1 + 1e-6)]
    lengths = st.builds(lambda scale, ulps: base * scale + ulps * math.ulp(base * scale),
                        st.sampled_from(scales), st.integers(-3, 3))
    level = draw(st.sampled_from([0.0, 1.0, -2.5, 2.0 ** 60]))
    fcs = st.sampled_from([level, level + SLACK, level - SLACK, level + 2 * SLACK])
    pairs = draw(st.lists(st.tuples(lengths, fcs), min_size=1, max_size=10))
    return direct1d.DirectPartition([direct1d.Interval(0.0, 2 * d, f) for d, f in pairs])


class TestDominanceMask:
    """The mask built once per partition is the per-interval equal-length rule."""

    @given(p=awkward_partitions())
    @settings(max_examples=300, deadline=None)
    def test_equals_each_interval_s_own_class(self, p):
        for j in range(len(p.intervals)):
            _, same, _ = direct1d._length_classes(p.deltas, j)
            same[j] = False
            assert p.dominated[j] == np.any(p.values[same] < p.values[j] - SLACK)

    def test_read_only_boolean(self):
        p = partition_from([0.25, 0.25, 0.5], [1.0, 2.0, 0.0], 1e-4)
        assert p.dominated.dtype == bool and p.dominated.tolist() == [False, True, False]
        with pytest.raises(ValueError):
            p.dominated[0] = True

    def test_only_undominated_intervals_reach_the_closed_form(self, monkeypatch):
        # DIRECT tests every interval of every partition once, and the
        # benchmark's traced run counts on that.
        test, classes = direct1d.potentially_optimal, direct1d._length_classes
        tested, classed = [], []

        def counted_classes(deltas, j):
            if np.ndim(j) == 0:  # a partition's own mask passes an index array
                classed.append(len(tested) - 1)
            return classes(deltas, j)

        monkeypatch.setattr(direct1d, "potentially_optimal",
                            lambda p, j: tested.append((p, j)) or test(p, j))
        monkeypatch.setattr(direct1d, "_length_classes", counted_classes)
        objective, (lower, upper) = get_objective("rastrigin1d")
        _, trace = direct1d.run_direct(objective, lower, upper, budget=10)
        sizes = [rec["n_intervals"] - 2 * len(rec["subdivided_indices"])
                 for rec in trace.iterations]
        assert len(tested) == sum(sizes)
        assert classed == [k for k, (p, j) in enumerate(tested) if not p.dominated[j]]
        assert 0 < len(classed) < len(tested)


def closed_form_per_interval(deltas, values, j, eps):
    """The potentially-optimal closed form as (decision, l_lo, l_hi, reason),
    with every interval compared one at a time in plain floats."""
    dj, fj = deltas[j], values[j]
    f_min = min(values)
    shorter, longer = [], []
    for k, (d, f) in enumerate(zip(deltas, values)):
        tol = REL * max(d, dj)
        if d - dj < -tol:
            shorter.append((fj - f) / (dj - d))
        elif d - dj > tol:
            longer.append((f - fj) / (d - dj))
        elif k != j and f < fj - SLACK:
            return False, math.nan, math.nan, "dominated by an equal-length interval"
    l_lo = max([(fj - f_min + eps * abs(f_min)) / dj] + shorter)
    l_hi = min(longer, default=math.inf)
    if l_hi <= 0:
        return False, l_lo, l_hi, "no positive L admissible"
    if max(l_lo, 0.0) <= l_hi + SLACK:
        return True, l_lo, l_hi, "feasible L range"
    return False, l_lo, l_hi, "lower bound exceeds upper bound"


@st.composite
def spread_partitions(draw):
    """awkward_partitions with some values moved well apart, under any epsilon."""
    p = draw(awkward_partitions())
    moves = st.sampled_from([0.0, 0.0, 1 / 3, -0.5, 1.0, -(2.0 ** 40)])
    shifted = [direct1d.Interval(iv.a, iv.b, iv.fc + draw(moves)) for iv in p.intervals]
    return direct1d.DirectPartition(shifted, draw(st.sampled_from([1e-4, 1e-2, 0.5])))


class TestGroupClosedForm:
    """The test over the exact-length groups' lowest values is the closed form
    over every interval, to the bit."""

    @given(p=spread_partitions())
    @settings(max_examples=400, deadline=None)
    def test_equals_the_per_interval_closed_form(self, p):
        deltas, values = [iv.delta for iv in p.intervals], [iv.fc for iv in p.intervals]
        for j in range(len(p.intervals)):
            out = direct1d.potentially_optimal(p, j)
            want = closed_form_per_interval(deltas, values, j, p.epsilon)
            got = (out.decision, repr(float(out.l_lo)), repr(float(out.l_hi)), out.reason)
            assert got == (want[0], repr(want[1]), repr(want[2]), want[3])
            if p.dominated[j]:
                assert out is direct1d._DOMINATED

    def test_groups_are_read_only_and_match_a_rebuild(self):
        objective, (lower, upper) = get_objective("rastrigin1d")
        p = direct1d.run_direct(objective, lower, upper, budget=8)[0]
        assert np.array_equal(p.lengths[p.group], p.deltas)
        assert np.array_equal(p.group_min, [p.values[p.group == g].min()
                                            for g in range(p.lengths.size)])
        assert len(set(p.lengths.tolist())) == p.lengths.size < len(p.intervals)
        for array in (p.lengths, p.group, p.group_min):
            with pytest.raises(ValueError):
                array[0] = 0


class TestCachedPartition:
    """A partition builds its arrays once, from its intervals, read-only."""

    def partition(self):
        objective, (lower, upper) = get_objective("rastrigin1d")
        return direct1d.run_direct(objective, lower, upper, budget=8)[0]

    def test_arrays_equal_a_rebuild(self):
        p = self.partition()
        assert np.array_equal(p.deltas, np.array([iv.delta for iv in p.intervals]))
        assert np.array_equal(p.values, np.array([iv.fc for iv in p.intervals]))
        assert p.deltas.dtype == p.values.dtype == np.float64
        assert p.f_min == min(iv.fc for iv in p.intervals)

    def test_arrays_are_read_only(self):
        p = self.partition()
        for array in (p.deltas, p.values):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_intervals_cannot_be_reassigned(self):
        p = self.partition()
        assert isinstance(p.intervals, tuple)
        with pytest.raises(AttributeError):
            p.intervals = p.intervals[:1]

    def test_arrays_built_once(self):
        p = self.partition()
        assert p.deltas is p.deltas and p.values is p.values

    def test_built_from_a_non_tiling_list(self):
        intervals = [direct1d.Interval(0.0, 1.0, 2.0), direct1d.Interval(5.0, 5.5, 1.0)]
        p = direct1d.DirectPartition(intervals, 1e-4)
        assert p.intervals == tuple(intervals)
        assert p.deltas.tolist() == [0.5, 0.25] and p.f_min == 1.0


class TestCounterexampleShift:
    def test_hand_instance_value(self):
        p = partition_from([1 / 6, 1 / 2, 1 / 6], [1.0, 1.2, 1.1], 0.01)
        delta_f = direct1d.counterexample_shift(p, 0)
        assert delta_f == pytest.approx(0.09, rel=1e-12)

    def test_hand_instance_contract(self):
        eps = 0.01
        deltas = [1 / 6, 1 / 2, 1 / 6]
        values = [1.0, 1.2, 1.1]
        p = partition_from(deltas, values, eps)
        delta_f = direct1d.counterexample_shift(p, 0)
        shift = delta_f / eps + 1.0
        shifted = partition_from(deltas, [v + shift for v in values], eps)
        assert direct1d.potentially_optimal(p, 0).decision
        assert not direct1d.potentially_optimal(shifted, 0).decision

    def test_longest_interval_rejected(self):
        p = partition_from([1 / 6, 1 / 2, 1 / 6], [1.0, 1.2, 1.1], 0.01)
        with pytest.raises(PreconditionError):
            direct1d.counterexample_shift(p, 1)

    def test_interval_not_potentially_optimal_rejected(self):
        # interval 2 has the longer neighbour 1, but interval 0 has its length
        # and a lower value
        p = partition_from([1 / 6, 1 / 2, 1 / 6], [1.0, 1.2, 1.1], 0.01)
        with pytest.raises(PreconditionError, match="interval 2 is not potentially optimal"):
            direct1d.counterexample_shift(p, 2)

    @pytest.mark.parametrize("j", [-1, 3])
    def test_out_of_range_index(self, j):
        p = partition_from([1 / 6, 1 / 2, 1 / 6], [1.0, 1.2, 1.1], 0.01)
        with pytest.raises(IndexError, match=f"interval index {j} out of range"):
            direct1d.counterexample_shift(p, j)

    def test_negative_values_rejected(self):
        p = partition_from([1 / 6, 1 / 2, 1 / 6], [-1.0, 1.2, 1.1], 0.01)
        with pytest.raises(PreconditionError):
            direct1d.counterexample_shift(p, 0)

    def test_randomized_contract(self):
        rng = np.random.default_rng(5)
        eps = 0.01
        checked = 0
        while checked < 100:
            deltas, values, _ = oracles.random_trisection_partition(
                rng, splits=int(rng.integers(2, 5)))
            p = partition_from(deltas, values, eps)
            longest = deltas.max()
            for j in range(len(deltas)):
                if deltas[j] >= longest * (1 - direct1d.DELTA_EQ_REL):
                    continue
                if not direct1d.potentially_optimal(p, j).decision:
                    continue
                delta_f = direct1d.counterexample_shift(p, j)
                shift = 1.01 * delta_f / eps
                if shift <= 0:
                    continue
                shifted_vals = values + shift
                shifted = partition_from(deltas, shifted_vals, eps)
                ref = oracles.dense_l_potentially_optimal(
                    deltas, shifted_vals, j, eps)
                assert not direct1d.potentially_optimal(shifted, j).decision
                assert not ref
                checked += 1


def both_objectives(case):
    return case.objective, lambda x: case.objective(x) + case.shift


def replayed(objective, case, budget):
    """Each iteration's interval endpoints and the endpoint set it chooses."""
    out = []
    for _, partition, chosen in direct1d.direct_iterations(
            objective, case.lower, case.upper, case.epsilon, budget):
        ends = [(iv.a, iv.b) for iv in partition.intervals]
        out.append((ends, frozenset(ends[j] for j in chosen)))
    return out


def lifted_case(name, lift, factor):
    """The builder's case on a built-in + lift, its shift times factor."""
    fn, (lo, hi) = get_objective(name)
    case = build_direct_counterexample(objective=lambda x: fn(x) + lift, lower=lo, upper=hi)
    return dataclasses.replace(case, shift=factor * case.shift)


class TestRunDirect:
    def test_budget_one_trisects_root(self):
        partition, trace = direct1d.run_direct(lambda x: x * x, 0.0, 1.0,
                                               budget=1)
        assert len(partition.intervals) == 3
        assert trace.iterations[0]["subdivided_indices"] == [0]
        assert trace.partition is partition

    def test_quadratic_brackets_minimum(self):
        f = lambda x: (x - 0.3) ** 2 + 1.0
        partition, trace = direct1d.run_direct(f, 0.0, 1.0, budget=10)
        fmins = [rec["f_min"] for rec in trace.iterations]
        assert all(b <= a + 1e-15 for a, b in zip(fmins, fmins[1:]))
        assert partition.f_min == pytest.approx(1.0, abs=1e-3)
        smallest = min(partition.intervals, key=lambda iv: iv.delta)
        assert smallest.a - 0.05 <= 0.3 <= smallest.b + 0.05

    def test_partition_tiles_domain(self):
        partition, _ = direct1d.run_direct(lambda x: math.sin(5 * x), -1.0,
                                           2.0, budget=6)
        intervals = sorted(partition.intervals, key=lambda iv: iv.a)
        assert intervals[0].a == -1.0 and intervals[-1].b == 2.0
        for left, right in zip(intervals, intervals[1:]):
            assert left.b == pytest.approx(right.a, abs=1e-12)
        widths = sorted({round(math.log(iv.b - iv.a, 3), 6)
                         for iv in partition.intervals})
        assert len(widths) <= 7  # powers of one third of the original length

    def test_non_finite_objective(self):
        with pytest.raises(ObjectiveEvaluationError):
            direct1d.run_direct(lambda x: float("nan"), 0.0, 1.0, budget=1)

    def test_value_beyond_float64_raises(self):
        with pytest.raises(ObjectiveEvaluationError):
            direct1d.run_direct(lambda x: 10 ** 400, 0.0, 1.0, budget=1)

    def test_counterexample_non_finite_root(self):
        with pytest.raises(ObjectiveEvaluationError):
            build_direct_counterexample(objective=lambda x: float("nan"))

    def test_iterations_budget_checked_before_evaluating(self):
        calls = []
        for budget in (0, -3):
            with pytest.raises(ValueError, match="budget must be at least 1"):
                next(direct1d.direct_iterations(calls.append, 0.0, 1.0, 1e-4, budget))
        assert calls == []

    @pytest.mark.parametrize("lower, upper, epsilon, message", [
        (1.0, 0.0, 1e-4, "interval needs a < b"),
        (0.0, 1.0, 0.0, "epsilon must lie in"),
    ], ids=["reversed-region", "epsilon-zero"])
    def test_region_and_epsilon_checked_before_evaluating(self, lower, upper, epsilon,
                                                          message):
        calls = []
        with pytest.raises(ValueError, match=message):
            direct1d.run_direct(calls.append, lower, upper, epsilon, 2)
        assert calls == []

    def test_iterations_stop_at_budget_without_subdividing_the_last(self):
        calls = []
        f = lambda x: calls.append(x) or (x - 0.3) ** 2
        iterations = list(direct1d.direct_iterations(f, 0.0, 1.0, 1e-4, 3))
        assert [it for it, _, _ in iterations] == [1, 2, 3]
        # the root, then two trisections of two new points each per subdivided
        # interval, for iterations 1 and 2 only
        assert len(calls) == 1 + 2 * sum(len(chosen) for _, _, chosen in iterations[:2])

    def test_translation_changes_subdivisions(self):
        case = build_direct_counterexample()
        mismatch, base, shifted = direct_homogeneity_check(case)
        assert mismatch is not None
        indices = [[rec["subdivided_indices"] for rec in trace.iterations[:mismatch]]
                   for trace in (base, shifted)]
        assert indices[0][:-1] == indices[1][:-1] and indices[0][-1] != indices[1][-1]
        # the same intervals stand at the mismatch, and different ones are chosen
        (base_ivs, base_chosen), (shifted_ivs, shifted_chosen) = [
            replayed(f, case, mismatch)[-1] for f in both_objectives(case)]
        assert base_ivs == shifted_ivs and base_chosen != shifted_chosen


class TestMismatchByEndpoints:
    """The index comparison finds the iteration an endpoint comparison finds."""

    @pytest.mark.parametrize("name, lift, factor", [
        (None, 0.0, 1.0),
        ("gramacy-lee", 1.5, 1.01),
        ("rastrigin1d", 2.25, 10.0),
        ("sin3x2", 3.0, 4.2),
    ], ids=["default", "gramacy-lee", "rastrigin1d", "sin3x2"])
    def test_first_endpoint_mismatch(self, name, lift, factor):
        case = (build_direct_counterexample() if name is None
                else lifted_case(name, lift, factor))
        mismatch, _, _ = direct_homogeneity_check(case)
        base, shifted = [[chosen for _, chosen in replayed(f, case, case.budget)]
                         for f in both_objectives(case)]
        by_endpoints = next((it for it, (kb, ks) in enumerate(zip(base, shifted), start=1)
                             if kb != ks), None)
        assert mismatch is not None and mismatch == by_endpoints


# (found_at_iteration, interval_index, delta_f) of each built-in + 2.0,
# recorded from the builder before it delegated its preconditions to
# ``counterexample_shift``.
COUNTEREXAMPLES = {
    "gramacy-lee": (3, 2, 0.2287371736044661),
    "rastrigin1d": (3, 2, 8.388688888888892),
    "sin3x2": (3, 2, 0.3870809592866076),
}


class TestCounterexampleBuilder:
    @staticmethod
    def lifted(name):
        fn, (lo, hi) = get_objective(name)
        return (lambda x: fn(x) + 2.0), lo, hi

    @pytest.mark.parametrize("name", sorted(COUNTEREXAMPLES))
    def test_pinned_on_lifted_builtins(self, name):
        objective, lo, hi = self.lifted(name)
        case = build_direct_counterexample(objective=objective, lower=lo, upper=hi)
        assert (case.found_at_iteration, case.interval_index,
                case.delta_f) == COUNTEREXAMPLES[name]

    @pytest.mark.parametrize("name", sorted(COUNTEREXAMPLES))
    def test_one_test_beyond_the_iterations_it_tests(self, name, monkeypatch):
        objective, lo, hi = self.lifted(name)
        calls = []
        test = direct1d.potentially_optimal
        monkeypatch.setattr(direct1d, "potentially_optimal",
                            lambda p, j: calls.append(j) or test(p, j))
        case = build_direct_counterexample(objective=objective, lower=lo, upper=hi)
        tested = len(calls)
        _, trace = direct1d.run_direct(objective, lo, hi, case.epsilon,
                                       case.found_at_iteration)
        sizes = [rec["n_intervals"] - 2 * len(rec["subdivided_indices"])
                 for rec in trace.iterations]
        assert tested == sum(sizes) + 1


class TestSerialization:
    def test_partition_json(self):
        partition, _ = direct1d.run_direct(lambda x: x * x, 0.0, 1.0, budget=2)
        data = json.loads(partition.to_json())
        assert len(data["intervals"]) == len(partition.intervals)
        assert data["intervals"][0].keys() == {"a", "b", "fc"}

    def test_trace_csv(self):
        _, trace = direct1d.run_direct(lambda x: x * x, 0.0, 1.0, budget=3)
        lines = trace.to_csv().strip().split("\n")
        assert lines[0] == "iter,subdivided_indices,f_min,n_intervals"
        assert len(lines) == 4
