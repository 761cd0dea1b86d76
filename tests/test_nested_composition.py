import copy
import hashlib
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from metric_outliers import (
    BourgainParams,
    CompositionInputs,
    PointSet,
    bourgain_embed,
    compose_deterministic,
    compose_once,
    compose_strong,
    distortion_stats,
    estimate_expected_expansion,
    expansion_bound,
    expansion_coefficients,
    from_matrix,
    harmonic_number,
    nearest_anchors,
    restrict,
    sample_transcript,
)
from metric_outliers import nested_composition
from metric_outliers.errors import (
    DomainError,
    EmptyS,
    InconsistentTranscript,
    IndexOutOfRange,
    InvalidCase,
    KappaOutOfRange,
    NotExpanding,
    SizeMismatch,
)
from metric_outliers.lp_geometry import is_l2_isometric, pairwise_distances
from metric_outliers.nested_composition import (
    CompositionTranscript,
    _check_transcript,
    _greedy_clusters,
    close_pair_split_bound,
    pair_distance,
    table_case,
)

from conftest import (
    close_pair_instance,
    composition_instance,
    composition_instance_with_s,
    integer_metric,
    point_metric,
)


def tiny_inputs(d_su=1.0, d_sv=1.0, d_uv=0.5, p=2.0, seed=3):
    m = from_matrix([[0, d_su, d_sv], [d_su, 0, d_uv], [d_sv, d_uv, 0]])
    alpha_s = PointSet(points=np.zeros((1, 1)), p=p)
    alpha_x, _ = bourgain_embed(m, BourgainParams(seed=seed, p=p))
    return CompositionInputs(m=m, s=(0,), p=p, alpha_s=alpha_s, alpha_x=alpha_x)


def reference_clusters(m, gamma, b, pi):
    """The greedy cluster loop written out: the i-th center of pi takes every
    unassigned outlier it grabs, until none is left."""
    remaining = set(pi)
    clusters = []
    i = 0
    while remaining:
        center = pi[i]
        members = tuple(v for v in pi if v in remaining
                        and m.dist[v, center] <= b * m.dist[v, gamma[v]])
        members = tuple(sorted(members))
        clusters.append((center, members))
        remaining.difference_update(members)
        i += 1
    return tuple(clusters)


class TestAnchors:
    def test_unique_nearest(self):
        m = from_matrix([[0, 1, 5], [1, 0, 4], [5, 4, 0]])
        assert nearest_anchors(m, (0, 1)) == {2: 1}

    def test_tie_breaks_to_lowest_index(self):
        m = from_matrix([[0, 2, 1], [2, 0, 1], [1, 1, 0]])
        assert nearest_anchors(m, (0, 1))[2] == 0

    def test_claw_single_candidate(self, claw_metric):
        gamma = nearest_anchors(claw_metric, (0,))
        assert gamma == {1: 0, 2: 0, 3: 0}

    def test_empty_s_rejected(self, claw_metric):
        with pytest.raises(EmptyS):
            nearest_anchors(claw_metric, ())


class TestTranscripts:
    def test_no_outliers_means_no_clusters(self, line_metric):
        alpha, _ = bourgain_embed(line_metric, BourgainParams(seed=0))
        inputs = CompositionInputs(m=line_metric, s=(0, 1, 2), p=2.0,
                                   alpha_s=alpha, alpha_x=alpha)
        tr = sample_transcript(inputs, np.random.default_rng(0))
        assert tr.clusters == () and tr.pi == ()

    def test_forced_single_cluster(self):
        # b = 2.5 grabs both outliers into the first center's cluster
        inputs = tiny_inputs(d_uv=0.5)
        tr = _greedy_clusters(inputs.m, inputs.gamma, b=2.5, pi=(1, 2))
        assert tr.clusters == ((1, (1, 2)),)

    def test_forced_two_clusters(self):
        # d(s,u)=3, d(s,v)=2, d(u,v)=5: at b=2 the pair 5 > 2*2 splits
        inputs = tiny_inputs(d_su=3.0, d_sv=2.0, d_uv=5.0)
        tr = _greedy_clusters(inputs.m, inputs.gamma, b=2.0, pi=(1, 2))
        assert tr.clusters == ((1, (1,)), (2, (2,)))

    def test_b_range_and_partition(self):
        rng = np.random.default_rng(7)
        m = integer_metric(rng, 10)
        inputs = composition_instance(rng, m, k=4, p=2.0, seed=1)
        for _ in range(50):
            tr = sample_transcript(inputs, rng)
            assert 2.0 <= tr.b <= 2.0 + inputs.tau
            members = [v for _, ms in tr.clusters for v in ms]
            assert sorted(members) == sorted(inputs.outliers)
            assert len(set(members)) == len(members)
            centers = tuple(c for c, _ in tr.clusters)
            assert centers == tr.pi[:len(centers)]

    def test_matches_reference_loop(self):
        # integer distances make d(v, u) == b d(v, gamma(v)) hit exactly at b = 2, 3, 4
        empty = ties = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 14))
            m = integer_metric(rng, n)
            for k in (0, 1, int(rng.integers(2, n))):
                s = tuple(sorted(rng.permutation(n)[k:].tolist()))
                gamma = nearest_anchors(m, s)
                for b in (2.0, 3.0, 4.0, 2.0 + 2.0 * float(rng.random())):
                    pi = tuple(rng.permutation(np.asarray(sorted(gamma), dtype=int)).tolist())
                    tr = _greedy_clusters(m, gamma, b, pi)
                    assert tr.to_dict() == CompositionTranscript(
                        b=b, pi=pi, clusters=reference_clusters(m, gamma, b, pi),
                        gamma=gamma).to_dict()
                    _check_transcript(m, gamma, tr)
                    empty += sum(1 for _, members in tr.clusters if not members)
                    ties += sum(m.dist[v, u] == b * m.dist[v, gamma[v]]
                                for v in pi for u in pi if u != v)
        assert empty > 0 and ties > 0

    def test_inconsistent_transcript_rejected(self):
        inputs = tiny_inputs(d_su=3.0, d_sv=2.0, d_uv=5.0)
        bad = CompositionTranscript(b=2.0, pi=(1, 2), clusters=((1, (1, 2)),),
                                    gamma=inputs.gamma)
        with pytest.raises(InconsistentTranscript):
            compose_once(inputs, bad)

    def test_non_expanding_alpha_rejected(self, line_metric):
        shrunk = PointSet(points=0.5 * np.array([[0.0], [1.0], [2.0]]), p=2.0)
        with pytest.raises(NotExpanding):
            CompositionInputs(m=line_metric, s=(0, 1, 2), p=2.0,
                              alpha_s=shrunk, alpha_x=shrunk)


class TestComposeOnce:
    def test_s_pairs_keep_alpha_s_distance(self):
        rng = np.random.default_rng(13)
        m = integer_metric(rng, 9)
        inputs = composition_instance(rng, m, k=3, p=2.0, seed=5)
        tr = sample_transcript(inputs, rng)
        composed = compose_once(inputs, tr)
        full = pairwise_distances(composed.embedding)
        alpha_s_d = pairwise_distances(inputs.alpha_s)
        s = inputs.s
        for i, x in enumerate(s):
            for j in range(i + 1, len(s)):
                assert full[x, s[j]] == pytest.approx(alpha_s_d[i, j], rel=1e-12)

    def test_same_cluster_pairs_get_alpha_x_distance(self):
        inputs = tiny_inputs(d_uv=0.5)
        tr = _greedy_clusters(inputs.m, inputs.gamma, b=2.5, pi=(1, 2))
        composed = compose_once(inputs, tr)
        full = pairwise_distances(composed.embedding)
        ax = pairwise_distances(inputs.alpha_x)
        assert full[1, 2] == pytest.approx(ax[1, 2], rel=1e-12)

    def test_dims_formula(self):
        rng = np.random.default_rng(17)
        m = integer_metric(rng, 8)
        inputs = composition_instance(rng, m, k=4, p=1.5, seed=2)
        tr = sample_transcript(inputs, rng)
        composed = compose_once(inputs, tr)
        assert composed.embedding.dims == inputs.alpha_s.dims + tr.t * inputs.alpha_x.dims

    def test_pair_distance_matches_full_materialization(self):
        rng = np.random.default_rng(19)
        m = integer_metric(rng, 8)
        for p in (1.0, 1.5, 2.0):
            inputs = composition_instance(rng, m, k=3, p=p, seed=4)
            tr = sample_transcript(inputs, rng)
            full = pairwise_distances(compose_once(inputs, tr).embedding)
            for x in range(8):
                for y in range(x + 1, 8):
                    assert pair_distance(inputs, tr, x, y) == pytest.approx(full[x, y], rel=1e-10)


class TestContraction:
    def test_lower_bounds_hold_per_sample(self):
        rng = np.random.default_rng(23)
        for trial in range(12):
            n = int(rng.integers(6, 14))
            k = int(rng.integers(1, min(5, n - 1)))
            p = (1.0, 1.5, 2.0)[trial % 3]
            inputs = composition_instance(rng, integer_metric(rng, n), k, p, seed=trial)
            floor = 3.0 ** (-1.0 + 1.0 / p)
            for _ in range(8):
                tr = sample_transcript(inputs, rng)
                full = pairwise_distances(compose_once(inputs, tr).embedding)
                for x in range(n):
                    for y in range(x + 1, n):
                        d = inputs.m.dist[x, y]
                        assert full[x, y] >= floor * d - 1e-9
                        if x not in inputs.gamma and y not in inputs.gamma:
                            assert full[x, y] >= d - 1e-9


class TestCaseBounds:
    def test_cases_a_to_d_hold_per_sample(self):
        rng = np.random.default_rng(29)
        seen = set()
        for trial in range(12):
            n = int(rng.integers(6, 14))
            k = int(rng.integers(1, min(6, n - 1)))
            p = (1.0, 1.5, 2.0)[trial % 3]
            inputs = composition_instance(rng, integer_metric(rng, n), k, p, seed=100 + trial)
            for _ in range(8):
                tr = sample_transcript(inputs, rng)
                full = pairwise_distances(compose_once(inputs, tr).embedding)
                for x in range(n):
                    for y in range(x + 1, n):
                        case = table_case(inputs, tr, x, y)
                        seen.add(case)
                        if case == "e":
                            continue
                        bound = expansion_bound(case, inputs.c_s, inputs.c_x, k=inputs.k)
                        d = inputs.m.dist[x, y]
                        assert full[x, y] <= bound * d * (1.0 + 1e-9) + 1e-12
        assert {"a", "b", "c"} <= seen

    def test_close_pair_expectation(self):
        rng = np.random.default_rng(31)
        m, s, pair = close_pair_instance(123)
        inputs = composition_instance_with_s(rng, m, s, 2.0, seed=9)
        x, y = pair
        d = m.dist[x, y]
        assert inputs.m.dist[x, inputs.gamma[x]] > 2 * d
        assert inputs.m.dist[y, inputs.gamma[y]] > 2 * d
        mean, stderr = estimate_expected_expansion(inputs, pair, trials=500, rng=rng)
        bound = expansion_bound("e", inputs.c_s, inputs.c_x, k=inputs.k)
        assert mean <= bound * d + 3 * stderr

    def test_split_probability_bound(self):
        rng = np.random.default_rng(37)
        m, s, (x, y) = close_pair_instance(321)
        inputs = composition_instance_with_s(rng, m, s, 2.0, seed=11)
        bound = close_pair_split_bound(inputs, x, y)
        trials = 3000
        splits = 0
        for _ in range(trials):
            tr = sample_transcript(inputs, rng)
            owner = tr.cluster_of()
            splits += owner[x] != owner[y]
        freq = splits / trials
        sigma = np.sqrt(max(freq * (1 - freq), 1.0 / trials) / trials)
        assert freq <= bound + 3 * sigma


class TestEstimate:
    def test_pair_in_s_is_deterministic(self):
        rng = np.random.default_rng(41)
        m = integer_metric(rng, 7)
        inputs = composition_instance(rng, m, k=2, p=2.0, seed=8)
        s = inputs.s
        mean, stderr = estimate_expected_expansion(inputs, (s[0], s[1]), trials=50, rng=rng)
        expected = pairwise_distances(inputs.alpha_s)[0, 1]
        assert stderr == pytest.approx(0.0, abs=1e-12)
        assert mean == pytest.approx(expected, rel=1e-12)

    def test_single_outlier_transcript_is_forced(self):
        # k=1: u always centers its own cluster; distance to its anchor is fixed
        rng = np.random.default_rng(43)
        m = integer_metric(rng, 6)
        inputs = composition_instance(rng, m, k=1, p=2.0, seed=3)
        u = inputs.outliers[0]
        anchor = inputs.gamma[u]
        mean, stderr = estimate_expected_expansion(inputs, (u, anchor), trials=40, rng=rng)
        expected = pairwise_distances(inputs.alpha_x)[u, anchor]
        assert stderr == pytest.approx(0.0, abs=1e-12)
        assert mean == pytest.approx(expected, rel=1e-12)


def reference_estimates(inputs, pair, trials_list, seed):
    """The estimate as a loop of sample_transcript and pair_distance: for each
    trial count, (mean, stderr) and the next draw of the rng after that many
    transcripts; also whether x and y shared a cluster in some draw and were
    split in another."""
    rng = np.random.default_rng(seed)
    x, y = pair
    vals, out, together = [], {}, set()
    for t in range(1, max(trials_list) + 1):
        tr = sample_transcript(inputs, rng)
        vals.append(pair_distance(inputs, tr, x, y))
        owner = tr.cluster_of()
        if x in owner and y in owner:
            together.add(owner[x] == owner[y])
        if t in trials_list:
            v = np.array(vals)
            stderr = float(v.std(ddof=1) / math.sqrt(t)) if t > 1 else 0.0
            out[t] = ((float(v.mean()), stderr), copy.deepcopy(rng).random())
    return out, together


class TestBatchedEstimate:
    """estimate_expected_expansion against the per-trial loop it replaces, bit for bit."""

    @pytest.fixture(scope="class", params=[1.0, 1.5, 2.0])
    def reference(self, request):
        p = request.param
        rng = np.random.default_rng(47)
        m = integer_metric(rng, 10)
        inputs = composition_instance(rng, m, k=4, p=p, seed=12)
        s, k = inputs.s, inputs.outliers
        pairs = [(s[0], s[1]), (s[0], k[0]), (k[0], s[0]), (s[1], s[1]), (k[0], k[0])]
        pairs += [(u, v) for i, u in enumerate(k) for v in k[i + 1:]]
        block = nested_composition.BLOCK
        trials = {1, 2, 3, 4, 5, 9, block - 1, block, block + 1, 2 * block + 3}
        refs = {pair: reference_estimates(inputs, pair, trials, [47, *pair]) for pair in pairs}
        return inputs, refs

    @pytest.mark.parametrize("block", [None, 1, 3])
    def test_matches_per_trial_loop(self, reference, monkeypatch, block):
        inputs, refs = reference
        if block is not None:
            monkeypatch.setattr(nested_composition, "BLOCK", block)
        block = nested_composition.BLOCK
        trials_list = [t for t in (1, 2, block - 1, block, block + 1, 2 * block + 3) if t >= 1]
        together = set()
        for pair, (ref, seen) in refs.items():
            together |= seen
            for trials in trials_list:
                rng = np.random.default_rng([47, *pair])
                got = estimate_expected_expansion(inputs, pair, trials, rng)
                expected, next_draw = ref[trials]
                assert got == expected, (pair, trials)
                assert rng.random() == next_draw, (pair, trials)
        assert together == {True, False}  # same-cluster and split draws both occurred

    def test_estimates_match_pinned_digest(self):
        # the (mean, stderr) floats of the per-trial loop, at p = 1 and 2 where
        # the p-th powers are exact; a change to the draws, owners or formula moves this
        rng = np.random.default_rng(67)
        m = integer_metric(rng, 9)
        results = []
        for p in (1.0, 2.0):
            inputs = composition_instance(rng, m, k=4, p=p, seed=5)
            results += [estimate_expected_expansion(inputs, (x, y), 200, rng)
                        for x in range(9) for y in range(x, 9)]
        assert hashlib.sha256(repr(results).encode()).hexdigest() == (
            "7fd95a767c09ec4139f4e74b882675e0f09ffe0f9ea9cfcad9ab7a96776e346f")

    def test_no_outliers(self, monkeypatch):
        rng = np.random.default_rng(53)
        m = integer_metric(rng, 6)
        alpha, _ = bourgain_embed(m, BourgainParams(seed=2, p=1.5))
        inputs = CompositionInputs(m=m, s=tuple(range(6)), p=1.5, alpha_s=alpha, alpha_x=alpha)
        assert inputs.k == 0
        monkeypatch.setattr(nested_composition, "BLOCK", 3)
        ref, _ = reference_estimates(inputs, (1, 4), {1, 2, 3, 4, 9}, 5)
        for trials, (expected, next_draw) in ref.items():
            rng = np.random.default_rng(5)
            assert estimate_expected_expansion(inputs, (1, 4), trials, rng) == expected
            assert rng.random() == next_draw

    @pytest.mark.parametrize("pair, bad", [((1, 10 ** 6), 10 ** 6), ((-1, 2), -1), ((0, 7), 7)])
    def test_pair_index_out_of_range(self, pair, bad):
        rng = np.random.default_rng(59)
        m = integer_metric(rng, 7)
        inputs = composition_instance(rng, m, k=2, p=2.0, seed=3)
        with pytest.raises(IndexOutOfRange, match=f"index {bad} "):
            estimate_expected_expansion(inputs, pair, 10, rng)
        tr = sample_transcript(inputs, rng)
        with pytest.raises(IndexOutOfRange, match=f"index {bad} "):
            pair_distance(inputs, tr, *pair)
        with pytest.raises(IndexOutOfRange, match=f"index {bad} "):
            table_case(inputs, tr, *pair)

    def test_split_bound_rejects_points_of_s(self):
        rng = np.random.default_rng(61)
        m, s, (x, y) = close_pair_instance(321)
        inputs = composition_instance_with_s(rng, m, s, 2.0, seed=11)
        for pair in ((s[0], y), (x, s[0]), (s[0], s[1])):
            with pytest.raises(DomainError, match="outlier pairs"):
                close_pair_split_bound(inputs, *pair)
        with pytest.raises(IndexOutOfRange):
            close_pair_split_bound(inputs, x, m.n)


class TestDeterministicComposition:
    def test_draws_match_pinned_digest(self):
        # any change to the cluster rule or to the random calls of a draw moves this
        rng = np.random.default_rng(20)
        m = integer_metric(rng, 16)
        inputs = composition_instance(rng, m, k=9, p=2.0, seed=3)
        det = compose_deterministic(inputs, 32, np.random.default_rng(21))
        blob = json.dumps([tr.to_dict() for tr in det.transcripts])
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "d2d5c3f0742d8aa730d5bcc176b57805bea68dbb704ac8fad955b8658ae96266")

    def test_single_sample_is_one_draw(self):
        inputs = tiny_inputs()
        rng = np.random.default_rng(47)
        det = compose_deterministic(inputs, 1, rng)
        assert len(det.transcripts) == 1
        full = pairwise_distances(det.embedding)
        re_once = compose_once(inputs, det.transcripts[0])
        np.testing.assert_allclose(full, pairwise_distances(re_once.embedding), rtol=1e-12)

    def test_s_pairs_exact_for_every_p(self):
        rng = np.random.default_rng(53)
        m = integer_metric(rng, 9)
        for p in (1.0, 1.5, 2.0):
            inputs = composition_instance(rng, m, k=3, p=p, seed=6)
            det = compose_deterministic(inputs, 16, rng)
            full = pairwise_distances(det.embedding)
            alpha_s_d = pairwise_distances(inputs.alpha_s)
            s = inputs.s
            for i, x in enumerate(s):
                for j in range(i + 1, len(s)):
                    assert full[x, s[j]] == pytest.approx(alpha_s_d[i, j], rel=1e-9)
            # each draw keeps every pair above 3^(1/p - 1) d, and so must their concatenation
            iu = np.triu_indices(m.n, k=1)
            assert (full[iu] / m.dist[iu]).min() >= 3.0 ** (1.0 / p - 1.0) * (1.0 - 1e-9)

    def test_l1_distance_equals_sample_mean(self):
        rng = np.random.default_rng(59)
        m = integer_metric(rng, 8)
        inputs = composition_instance(rng, m, k=3, p=1.0, seed=7)
        det = compose_deterministic(inputs, 32, rng)
        full = pairwise_distances(det.embedding)
        for x in range(8):
            for y in range(x + 1, 8):
                mean = np.mean([pair_distance(inputs, tr, x, y) for tr in det.transcripts])
                assert full[x, y] == pytest.approx(mean, abs=1e-9)
                assert full[x, y] >= inputs.m.dist[x, y] - 1e-9

    def test_p_above_one_within_twice_the_mean(self):
        rng = np.random.default_rng(61)
        m = integer_metric(rng, 8)
        for p in (1.5, 2.0):
            inputs = composition_instance(rng, m, k=3, p=p, seed=12)
            det = compose_deterministic(inputs, 32, rng)
            full = pairwise_distances(det.embedding)
            for x in range(8):
                for y in range(x + 1, 8):
                    mean = np.mean([pair_distance(inputs, tr, x, y) for tr in det.transcripts])
                    assert full[x, y] <= 2.0 * mean + 1e-9

    @staticmethod
    def counted_cases():
        """(inputs, rng just before the draws) at p = 1, 1.5, 2 for two
        instances: ten points with four outliers, whose 32 draws repeat
        blocks, and test_dims_formula's, whose first draw has the empty
        cluster (3, ())."""
        for seed, n, k, emb_seed in ((71, 10, 4, 3), (17, 8, 4, 2)):
            for p in (1.0, 1.5, 2.0):
                rng = np.random.default_rng(seed)
                inputs = composition_instance(rng, integer_metric(rng, n), k=k, p=p,
                                              seed=emb_seed)
                yield inputs, rng

    def test_distances_are_the_per_draw_p_mean(self):
        for inputs, rng in self.counted_cases():
            p = inputs.p
            det = compose_deterministic(inputs, 32, rng)
            full = pairwise_distances(det.embedding)
            powers = [pairwise_distances(compose_once(inputs, tr).embedding) ** p
                      for tr in det.transcripts]
            want = np.mean(powers, axis=0) ** (1.0 / p)
            iu = np.triu_indices(inputs.m.n, k=1)
            np.testing.assert_allclose(full[iu], want[iu], rtol=1e-12)

    def test_dims_count_distinct_blocks(self):
        saw_empty = False
        for inputs, rng in self.counted_cases():
            det = compose_deterministic(inputs, 32, rng)
            primes, clusters = set(), set()
            for tr in det.transcripts:
                owner = tr.cluster_of()
                primes.add(tuple(inputs.gamma[tr.clusters[owner[v]][0]] for v in inputs.outliers))
                clusters |= {(inputs.gamma[c], ms) for c, ms in tr.clusters if ms}
            assert det.embedding.dims == (len(primes) * inputs.alpha_s.dims
                                          + len(clusters) * inputs.alpha_x.dims)
            dense = (32 * inputs.alpha_s.dims
                     + sum(tr.t for tr in det.transcripts) * inputs.alpha_x.dims)
            if any(not ms for tr in det.transcripts for _, ms in tr.clusters):
                saw_empty = True
                assert det.embedding.dims < dense
        assert saw_empty

    def test_transcripts_are_the_sampled_draws(self):
        for inputs, rng in self.counted_cases():
            state = rng.bit_generator.state
            det = compose_deterministic(inputs, 32, rng)
            rng.bit_generator.state = state
            assert det.transcripts == tuple(sample_transcript(inputs, rng) for _ in range(32))

    def test_blocks_match_pinned_digest(self):
        # the bytes of both compositions at p = 1, 1.5 and 2, empty clusters
        # included; a change to how blocks are counted, ordered or written moves this
        h = hashlib.sha256()
        for inputs, rng in self.counted_cases():
            det = compose_deterministic(inputs, 32, rng)
            h.update(det.embedding.points.tobytes())
            for tr in det.transcripts[:4]:
                h.update(compose_once(inputs, tr).embedding.points.tobytes())
        assert h.hexdigest() == "c4d99ac2d1ad9a77c20089ed4f5d872c5348894845e44752fc5db827095d26e4"


class TestBoundCalculator:
    def test_case_c_example(self):
        assert expansion_bound("c", 1.0, 2.0) == pytest.approx(25.0)

    def test_case_e_k1_unit_distortions(self):
        value = expansion_bound("e", 1.0, 1.0, k=1)
        assert value == pytest.approx(155.0 / 2.0 + 225.0 / 2.0 + 1.0)

    def test_general_constants_reduce_to_fixed_tau(self):
        assert expansion_coefficients("c", tau=2) == (Fraction(7), Fraction(9))
        assert expansion_coefficients("d", tau=2, kappa=2) == (Fraction(31), Fraction(45))
        coef_s, coef_x = expansion_coefficients("e", k=3, tau=2, kappa=2)
        h3 = harmonic_number(3)
        assert coef_s == Fraction(155, 2) * h3
        assert coef_x == Fraction(225, 2) * h3 + 1

    def test_invalid_case(self):
        with pytest.raises(InvalidCase):
            expansion_bound("z", 1.0, 1.0)

    def test_kappa_out_of_range(self):
        with pytest.raises(KappaOutOfRange):
            expansion_coefficients("e", k=1, kappa=1)

    @pytest.mark.parametrize("tau,kappa", [(float("inf"), 2.0), (float("nan"), 2.0),
                                           (2.0, float("inf")), (2.0, float("nan"))])
    def test_non_finite_tau_or_kappa_rejected(self, tau, kappa):
        with pytest.raises(ValueError, match="must be finite"):
            expansion_coefficients("d", tau=tau, kappa=kappa)

    @pytest.mark.parametrize("c_s,c_x", [(float("nan"), 2.0), (1.0, float("inf")),
                                         (0.5, 2.0), (1.0, -1.0)])
    def test_distortion_outside_one_to_inf_rejected(self, c_s, c_x):
        with pytest.raises(ValueError, match="finite and >= 1"):
            expansion_bound("c", c_s, c_x)

    @pytest.mark.parametrize("c_x,tau", [(1e308, 2.0), (1.0, 1e308)])
    def test_overflowing_multiplier_rejected(self, c_x, tau):
        with pytest.raises(ValueError, match="overflows"):
            expansion_bound("c", 1.0, c_x, tau=tau)

    def test_harmonic(self):
        assert harmonic_number(0) == 0
        assert harmonic_number(3) == Fraction(11, 6)


class TestComposeStrong:
    def test_no_outliers_reduces_to_alpha_s(self, line_metric):
        alpha, _ = bourgain_embed(line_metric, BourgainParams(seed=1))
        rng = np.random.default_rng(2)
        composed = compose_strong(line_metric, (0, 1, 2), 2.0, alpha, rng)
        np.testing.assert_allclose(pairwise_distances(composed.embedding),
                                   pairwise_distances(alpha), rtol=1e-12)

    def test_default_bourgain_callback_obeys_subset_bound(self):
        # expansion over all pairs stays under 382 * H_{k+1} * (max cluster
        # distortion) with Monte Carlo headroom; each cluster's distortion is
        # measured on its block of the output
        rng = np.random.default_rng(71)
        m = integer_metric(rng, 12)
        inputs = composition_instance(rng, m, k=4, p=2.0, seed=15)
        h = float(harmonic_number(5))
        worst_seen = {}
        zeta_max = 1.0
        for _ in range(20):
            twin = copy.deepcopy(rng)
            out = compose_strong(m, inputs.s, 2.0, inputs.alpha_s, rng).embedding
            tr = sample_transcript(inputs, twin)
            col = inputs.alpha_s.dims
            for members, subset, sub in self.cluster_subsets(inputs, tr):
                seed = int(twin.integers(0, 2 ** 63 - 1))
                width = nested_composition._cluster_embedding(sub, 2.0, seed).dims
                if sub.n >= 2:
                    block = PointSet(points=out.points[subset, col:col + width], p=2.0)
                    zeta_max = max(zeta_max, distortion_stats(sub, block).distortion)
                col += width
            assert col == out.dims
            full = pairwise_distances(out)
            for x in range(m.n):
                for y in range(x + 1, m.n):
                    r = full[x, y] / m.dist[x, y]
                    worst_seen[(x, y)] = max(worst_seen.get((x, y), 0.0), r)
        assert max(worst_seen.values()) <= 382.0 * h * zeta_max

    @classmethod
    def bourgain_reference(cls, inputs, rng):
        """compose_strong's draw from rng with the Bourgain embedding for every
        cluster, built here: the transcript, then one seed per cluster.
        Returns the composed points and each cluster's block."""
        tr = sample_transcript(inputs, rng)
        s_row = {v: r for r, v in enumerate(inputs.s)}
        prime = dict(s_row)
        for center, members in tr.clusters:
            prime.update((v, s_row[inputs.gamma[center]]) for v in members)
        columns = [inputs.alpha_s.points[[prime[v] for v in range(inputs.m.n)]]]
        blocks = []
        for members, subset, sub in cls.cluster_subsets(inputs, tr):
            seed = int(rng.integers(0, 2 ** 63 - 1))
            emb, _ = bourgain_embed(sub, BourgainParams(seed=seed, p=inputs.p))
            anchor = next(r for r, v in enumerate(subset) if v not in members)
            rows = [subset.index(v) if v in members else anchor for v in range(inputs.m.n)]
            columns.append(emb.points[rows])
            blocks.append(emb.points)
        return np.hstack(columns), blocks

    @staticmethod
    def cluster_subsets(inputs, tr):
        """(members, cluster plus anchor) per cluster, and the submetric of the latter."""
        for center, members in tr.clusters:
            subset = sorted(set(members) | {inputs.gamma[center]})
            sub, _ = restrict(inputs.m, set(range(inputs.m.n)) - set(subset))
            yield members, subset, sub

    def test_default_factors_euclidean_clusters_isometrically(self):
        # each cluster plus its anchor gets one column per point, and its block
        # keeps every distance; an empty cluster's block is one zero column
        saw_empty = False
        for seed in range(4):
            rng = np.random.default_rng(seed)
            m = point_metric(rng, 14)
            inputs = composition_instance(rng, m, k=8, p=2.0, seed=seed)
            for _ in range(5):
                composed = compose_strong(m, inputs.s, 2.0, inputs.alpha_s, rng)
                out, tr = composed.embedding, composed.transcripts[0]
                col = inputs.alpha_s.dims
                for members, subset, sub in self.cluster_subsets(inputs, tr):
                    block = out.points[subset, col:col + len(subset)]
                    col += len(subset)
                    if not members:
                        saw_empty = True
                        assert block.shape == (1, 1) and block[0, 0] == 0.0
                        continue
                    img = pairwise_distances(PointSet(points=block, p=2.0))
                    iu = np.triu_indices(len(subset), k=1)
                    np.testing.assert_allclose(img[iu], sub.dist[iu], rtol=1e-9)
                assert col == out.dims
        assert saw_empty

    @pytest.mark.parametrize("seed", [2, 159])
    def test_non_euclidean_cluster_gets_the_bourgain_block(self, seed):
        # seed 159 draws clusters that embed, fail, are empty and embed, in that
        # order; a cluster that fails Schoenberg gets the block the Bourgain
        # reference gives it with a twin rng, so the other clusters' exact
        # blocks do not move its seed
        rng = np.random.default_rng(seed)
        m = integer_metric(rng, 12)
        inputs = composition_instance(rng, m, k=7, p=2.0, seed=5)
        twin = copy.deepcopy(rng)
        composed = compose_strong(m, inputs.s, 2.0, inputs.alpha_s, rng)
        out, tr = composed.embedding, composed.transcripts[0]
        _, blocks = self.bourgain_reference(inputs, twin)
        col, paths = inputs.alpha_s.dims, ""
        for (members, subset, sub), bourgain in zip(self.cluster_subsets(inputs, tr), blocks):
            if is_l2_isometric(sub):
                col += len(subset)
                paths += "x"
                continue
            width = bourgain.shape[1]
            np.testing.assert_array_equal(out.points[subset, col:col + width], bourgain)
            col += width
            paths += "B"
        assert col == out.dims
        assert "B" in paths and "x" in paths

    def test_default_leaves_rng_where_bourgain_would(self):
        # the seed is drawn on both paths, so the stream after the call is the same
        for seed, metric in ((159, integer_metric), (3, point_metric)):
            rng = np.random.default_rng(seed)
            m = metric(rng, 12)
            inputs = composition_instance(rng, m, k=7, p=2.0, seed=5)
            twin = copy.deepcopy(rng)
            compose_strong(m, inputs.s, 2.0, inputs.alpha_s, rng)
            self.bourgain_reference(inputs, twin)
            assert rng.random() == twin.random()

    def test_p1_output_is_the_bourgain_composition(self):
        # away from p = 2 every cluster takes the Bourgain path, byte for byte;
        # the digest pins the bytes of the seeded Bourgain default
        h = hashlib.sha256()
        for seed, n, k, emb_seed in ((71, 10, 4, 3), (17, 8, 4, 2)):
            rng = np.random.default_rng(seed)
            inputs = composition_instance(rng, integer_metric(rng, n), k=k, p=1.0, seed=emb_seed)
            for _ in range(4):
                twin = copy.deepcopy(rng)
                out = compose_strong(inputs.m, inputs.s, 1.0, inputs.alpha_s, rng)
                ref, _ = self.bourgain_reference(inputs, twin)
                assert out.embedding.points.tobytes() == ref.tobytes()
                h.update(out.embedding.points.tobytes())
            h.update(np.float64(rng.random()).tobytes())
        assert h.hexdigest() == "d3eec2f08d4c91a404740cb07b49ce8ecb49d77f4e615866ec94716207de2f6a"

    def test_p2_output_matches_pinned_digest(self):
        # the digest pins the bytes of the p = 2 default, factored and Bourgain
        # blocks alike, and where it leaves rng
        h = hashlib.sha256()
        for seed, metric, n, k, emb_seed in ((159, integer_metric, 12, 7, 5),
                                             (3, point_metric, 12, 7, 5),
                                             (41, point_metric, 10, 4, 2)):
            rng = np.random.default_rng(seed)
            inputs = composition_instance(rng, metric(rng, n), k=k, p=2.0, seed=emb_seed)
            for _ in range(4):
                out = compose_strong(inputs.m, inputs.s, 2.0, inputs.alpha_s, rng)
                h.update(out.embedding.points.tobytes())
            h.update(np.float64(rng.random()).tobytes())
        assert h.hexdigest() == "18472bae4d84acdcb1779965e8e1531fa9744efefb7fdf38b2bd21e104d4bb0d"


BAD_TAUS = [-1.0, 0.0, float("nan"), float("inf")]


class TestSubsetAndTauChecks:
    """CompositionInputs and compose_strong run the same S and alpha_S checks;
    CompositionInputs also checks tau, which compose_strong fixes at 2."""

    @pytest.mark.parametrize("tau", BAD_TAUS)
    def test_inputs_reject_bad_tau(self, line_metric, tau):
        alpha, _ = bourgain_embed(line_metric, BourgainParams(seed=0))
        with pytest.raises(ValueError, match="tau must be finite and positive"):
            CompositionInputs(m=line_metric, s=(0, 1), p=2.0, alpha_s=PointSet(
                points=alpha.points[:2], p=2.0), alpha_x=alpha, tau=tau)

    @pytest.mark.parametrize("s", [(0, 1, 7), (-1, 0, 1)])
    def test_strong_rejects_s_out_of_range(self, claw_metric, s):
        alpha_s = PointSet(points=np.array([[0.0], [-1.0], [1.0]]), p=2.0)
        with pytest.raises(SizeMismatch, match=r"S contains indices outside 0\.\.3"):
            compose_strong(claw_metric, s, 2.0, alpha_s, np.random.default_rng(0))

    def test_strong_refuses_an_overflowing_square_without_warnings(self):
        # points on a line, scaled by a power of two so the metric stays exact
        x = np.array([0.0, 1.0, 2.0, 10.0, 10.5, 11.0]) * 2.0 ** 531
        m = from_matrix(np.abs(x[:, None] - x[None, :]))
        alpha_s = PointSet(points=x[:3, None], p=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="its square overflows"):
                compose_strong(m, (0, 1, 2), 2.0, alpha_s, np.random.default_rng(0))


class TestDegenerateSubset:
    def test_s_equals_x_deterministic(self, line_metric):
        alpha, _ = bourgain_embed(line_metric, BourgainParams(seed=0))
        inputs = CompositionInputs(m=line_metric, s=(0, 1, 2), p=2.0,
                                   alpha_s=alpha, alpha_x=alpha)
        det = compose_deterministic(inputs, 4, np.random.default_rng(0))
        assert det.transcripts[0].clusters == ()
        np.testing.assert_allclose(pairwise_distances(det.embedding),
                                   pairwise_distances(alpha), rtol=1e-12)

    def test_mismatched_p_rejected(self, line_metric):
        a2, _ = bourgain_embed(line_metric, BourgainParams(seed=0, p=2.0))
        a1, _ = bourgain_embed(line_metric, BourgainParams(seed=0, p=1.0))
        from metric_outliers.errors import SizeMismatch
        with pytest.raises(SizeMismatch):
            CompositionInputs(m=line_metric, s=(0, 1, 2), p=2.0, alpha_s=a1, alpha_x=a2)
