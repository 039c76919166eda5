import contextlib
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erset import setbuilder
from erset.model import SetConfig
from erset.setbuilder import (
    BadK,
    EmptyInput,
    TooFewPoints,
    elbow_k,
    kmeans,
    next_record_set,
    similarity_chain,
    variation,
)
from erset.synth import planted_embeddings

from .fakes import TableIndex, embedding_index


class TestVariation:
    def test_balanced_is_zero(self):
        assert variation([3, 3, 3]) == 0.0

    def test_population_sigma(self):
        # sigma([2,4]) = 1 (population), mean = 3
        assert variation([2, 4]) == pytest.approx(1 / 3, abs=1e-9)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            variation([])

    @given(st.lists(st.integers(1, 50), min_size=1, max_size=20))
    def test_nonnegative_and_scale_invariant(self, sizes):
        v = variation(sizes)
        assert v >= 0.0
        assert variation([s * 3 for s in sizes]) == pytest.approx(v)


class TestKmeans:
    def test_bad_k(self):
        pts = np.zeros((3, 2))
        with pytest.raises(BadK):
            kmeans(pts, 0)
        with pytest.raises(BadK):
            kmeans(pts, 4)

    def test_separates_obvious_clusters(self):
        pts = np.array([[0.0, 0], [0.1, 0], [10, 10], [10.1, 10]])
        labels = kmeans(pts, 2, seed=0)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((30, 4))
        assert np.array_equal(kmeans(pts, 5, seed=3), kmeans(pts, 5, seed=3))

    def test_no_empty_clusters(self):
        # duplicated points force empty-cluster re-seeding
        pts = np.array([[0.0, 0]] * 5 + [[1.0, 1]] * 5)
        labels = kmeans(pts, 4, seed=1)
        assert len(set(labels.tolist())) == 4


def _reference_kmeans(points, k, seed=0):
    """kmeans as it was before its expanded-distance screen: every Lloyd
    step decides every label from the (n, k, dim) broadcast of differences.
    Kept frozen, as the reference that kmeans must equal bitwise."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    rng = random.Random(seed)
    centers = [points[rng.randrange(n)]]
    dist2 = np.sum((points - centers[0]) ** 2, axis=1)
    while len(centers) < k:
        idx = int(np.argmax(dist2))
        centers.append(points[idx])
        dist2 = np.minimum(dist2, np.sum((points - centers[-1]) ** 2, axis=1))
    centers = np.array(centers)
    labels = np.full(n, -1, dtype=int)
    for _iteration in range(100):
        d = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(d, axis=1)
        for c in range(k):
            if np.any(new_labels == c):
                continue
            counts = np.bincount(new_labels, minlength=k)
            own_dist = d[np.arange(n), new_labels]
            own_dist = np.where(counts[new_labels] > 1, own_dist, -1.0)
            new_labels[int(np.argmax(own_dist))] = c
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
    return labels


def _reference_elbow_k(points, k_max, seed=0):
    """elbow_k as it was with one _reference_kmeans run per k = 1..cap, the
    cap counted by np.unique(axis=0), and each k's SSE summed around the
    means of its clusters. Kept frozen, as the reference that elbow_k must
    equal bitwise."""
    points = np.asarray(points, dtype=float)
    k_cap = min(k_max, len(np.unique(points, axis=0)))
    labels = {k: _reference_kmeans(points, k, seed) for k in range(1, k_cap + 1)}
    sse = {}
    for k, labeled in labels.items():
        sse[k] = 0.0
        for c in np.unique(labeled):
            cluster = points[labeled == c]
            sse[k] += float(np.sum((cluster - cluster.mean(axis=0)) ** 2))
    if sse[1] < 1e-12 or k_cap == 1:
        return 1, labels[1]
    if k_cap == 2:
        k = 2 if sse[2] < sse[1] else 1
        return k, labels[k]
    sse[k_cap + 1] = sse[k_cap]
    best_k, best_d2 = 2, -float("inf")
    for k in range(2, k_cap + 1):
        d2 = sse[k - 1] - 2 * sse[k] + sse[k + 1]
        if d2 > best_d2 + 1e-12:
            best_k, best_d2 = k, d2
    return best_k, labels[best_k]


def _check_elbow(points, k_max, seed):
    k, labels = elbow_k(points, k_max, seed)
    want_k, want_labels = _reference_elbow_k(points, k_max, seed)
    assert k == want_k
    assert np.array_equal(labels, want_labels)


class TestKmeansMatchesReference:
    """kmeans against _reference_kmeans and elbow_k against
    _reference_elbow_k, on inputs whose expanded distances tie or nearly
    tie, so rows are re-decided by the elementwise formula. ``decided``
    counts the rows so re-decided."""

    @pytest.fixture(autouse=True)
    def _count_redecided(self):
        self.decided = 0
        sq_dists = setbuilder._sq_dists

        def counting(points, centers):
            self.decided += len(points)
            return sq_dists(points, centers)

        with mock.patch.object(setbuilder, "_sq_dists", counting):
            yield

    def check(self, points, k, seed, k_max=None):
        assert np.array_equal(
            kmeans(points, k, seed), _reference_kmeans(points, k, seed)
        )
        if k_max is not None and len(points) >= 2:
            _check_elbow(points, k_max, seed)

    def test_integer_grid_with_exact_ties(self):
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 40))
            points = rng.integers(-2, 3, (n, int(rng.integers(1, 6)))).astype(float)
            self.check(points, int(rng.integers(1, n + 1)), seed, k_max=5)
        assert self.decided > 0

    def test_duplicated_points_equidistant_from_two_centers(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            dim = int(rng.integers(1, 5))
            a, b = 2 * rng.integers(-3, 4, (2, dim))
            mid = (a + b) / 2
            copies = int(rng.integers(2, 6))
            points = np.vstack([[a, b], np.repeat([mid], copies, axis=0)])
            points = np.vstack([points, rng.integers(-6, 7, (3, dim))]).astype(float)
            for k in (2, 3):
                self.check(points, k, seed, k_max=4)
        assert self.decided > 0

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_norms_from_1e_minus6_to_1e6(self, scale):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n, dim = int(rng.integers(2, 30)), int(rng.integers(1, 9))
            grid = rng.integers(-2, 3, (n, dim)) * scale
            mixed = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-6, 6, (n, 1))
            for points in (grid, mixed * scale):
                self.check(points, int(rng.integers(1, n + 1)), seed, k_max=4)

    @pytest.mark.parametrize("dim", [1, 2, 3, 16, 255, 512])
    def test_dims_with_k_up_to_n(self, dim):
        rng = np.random.default_rng(dim)
        for n in (1, 2, 5, 12):
            noisy = rng.standard_normal((n, dim))
            grid = rng.integers(0, 2, (n, dim)).astype(float)
            for points in (noisy, grid):
                for k in range(1, n + 1):
                    self.check(points, k, seed=k, k_max=n if k == n else None)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 24),
        st.integers(1, 8),
        st.sampled_from([1e-6, 1.0, 1e6]),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_grids(self, seed, n, dim, scale, data):
        rng = np.random.default_rng(seed)
        points = rng.integers(-1, 2, (n, dim)) * scale
        k = data.draw(st.integers(1, n))
        self.check(points, k, seed % 7, k_max=data.draw(st.integers(1, 6)))

    def test_input_that_empties_a_cluster(self):
        """Two distinct points and k = 4: farthest-point init repeats a
        center, whose cluster empties and is re-seeded (see
        TestKmeans.test_no_empty_clusters)."""
        points = np.array([[0.0, 0.0]] * 5 + [[1.0, 1.0]] * 5)
        for seed in range(4):
            self.check(points, 4, seed, k_max=6)

    def test_reseeds_among_distances_of_a_few_ulps(self):
        """Repeated decimal points and k above their distinct count: the
        mean of a cluster of copies can miss the copy by an ulp, so each
        re-seed picks the farthest point among distances of a few ulps. Many
        of these runs alternate between two labelings up to the iteration
        cap, ending on either one."""
        for seed in range(50):
            rng = np.random.default_rng(seed)
            distinct = int(rng.integers(2, 4))
            values = rng.random((distinct, int(rng.integers(1, 4)))).round(2)
            points = np.repeat(values, rng.integers(2, 6, distinct), axis=0)
            k = int(rng.integers(distinct + 1, len(points) + 1))
            self.check(points, k, seed % 5, k_max=k)


def _cycle_exit_kmeans(points, k, seed=0, cycled=None):
    """kmeans as it was with a second exit for 2-cycles, kept frozen as the
    reference for the one-exit loop. That exit returned at the first
    labeling repeated two steps apart, picking the one of the two that the
    100-step cap would end on. ``cycled`` collects the step it was taken at."""

    def sq_dists(a, b):
        return np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)

    points = np.asarray(points, dtype=float)
    n = len(points)
    rng = random.Random(seed)
    centers = [points[rng.randrange(n)]]
    dist2 = np.sum((points - centers[0]) ** 2, axis=1)
    while len(centers) < k:
        idx = int(np.argmax(dist2))
        centers.append(points[idx])
        dist2 = np.minimum(dist2, np.sum((points - centers[-1]) ** 2, axis=1))
    centers = np.array(centers)
    x2 = np.einsum("ij,ij->i", points, points)
    margin = max(1e-9, (4 * points.shape[1] + 8) * np.finfo(float).eps)
    x2_max = x2.max()
    rows = np.arange(n)
    labels = before = np.full(n, -1, dtype=int)
    for iteration in range(100):
        c2 = np.einsum("ij,ij->i", centers, centers)
        d = x2[:, None] - 2.0 * (points @ centers.T) + c2
        eps = margin * (x2_max + c2.max())
        new_labels = np.argmin(d, axis=1)
        if k > 1:
            gap = np.partition(d, 1, axis=1)[:, 1] - d[rows, new_labels]
            close = np.flatnonzero(gap <= 2 * eps)
            if close.size:
                new_labels[close] = np.argmin(sq_dists(points[close], centers), axis=1)
        for c in np.flatnonzero(np.bincount(new_labels, minlength=k) == 0):
            counts = np.bincount(new_labels, minlength=k)
            own = np.where(counts[new_labels] > 1, d[rows, new_labels], -1.0)
            near = np.flatnonzero(own >= own.max() - 2 * eps)
            mine = new_labels[near]
            exact = sq_dists(points[near], centers)[np.arange(len(near)), mine]
            exact = np.where(counts[mine] > 1, exact, -1.0)
            new_labels[near[int(np.argmax(exact))]] = c
        if np.array_equal(new_labels, labels):
            break
        if np.array_equal(new_labels, before):
            if cycled is not None:
                cycled.append(iteration)
            return new_labels if (99 - iteration) % 2 == 0 else labels
        before, labels = labels, new_labels
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
    return labels


def _jitter(points, ulps):
    """``points`` with each coordinate moved by its count of ulps in ``ulps``."""
    for step in range(int(np.abs(ulps).max(initial=0))):
        points = np.where(ulps > step, np.nextafter(points, np.inf), points)
        points = np.where(-ulps > step, np.nextafter(points, -np.inf), points)
    return points


@st.composite
def _near_tied_points(draw):
    """2-13 points in 1-4 dims, drawn with repeats from a few integer-grid
    rows scaled to magnitudes 1e-8..10, most coordinates then moved by up to
    3 ulps, and maybe one coordinate set to -0.0."""
    n = draw(st.integers(2, 13))
    dim = draw(st.integers(1, 4))
    scale = 10.0 ** draw(st.floats(-8, 1))
    grid = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    values = np.array(draw(st.lists(grid, min_size=1, max_size=n)), dtype=float)
    points = values[draw(st.lists(st.integers(0, len(values) - 1), min_size=n, max_size=n))]
    shift = st.sampled_from([0, 0, 0, -1, 1, -2, 2, -3, 3])
    ulps = np.array(draw(st.lists(shift, min_size=n * dim, max_size=n * dim)))
    points = _jitter(points * scale, ulps.reshape(n, dim))
    if draw(st.booleans()):
        points[draw(st.integers(0, n - 1)), draw(st.integers(0, dim - 1))] = -0.0
    return points


class TestOneExit:
    """kmeans has one exit, convergence or the 100-step cap, and returns
    bitwise what the frozen 2-cycle exit returned."""

    @given(_near_tied_points(), st.data(), st.integers(0, 3))
    @settings(max_examples=600, deadline=None)
    def test_equals_the_cycle_exit(self, points, data, seed):
        k = data.draw(st.integers(1, len(points)))
        assert np.array_equal(
            kmeans(points, k, seed), _cycle_exit_kmeans(points, k, seed)
        )

    @pytest.mark.parametrize(
        "points, k, seed, distinct",
        [
            pytest.param(
                [[0.83], [0.83], [0.36], [0.36], [0.36]], 3, 0, 2,
                id="k-above-distinct-rows",
            ),
            pytest.param(
                [
                    [-0.0],
                    [1.1810594339113711e-07],
                    [1.181059433911371e-07],
                    [1.1810594339113712e-07],
                    [1.1810594339113713e-07],
                ],
                3, 0, 5,
                id="k-below-distinct-rows-1d",
            ),
            pytest.param(
                [[3.775932029291819e-06, 1.7360607031226753e-07, -2.3870834667936794e-07]]
                + [[3.775932029291819e-06, 1.7360607031226755e-07, -2.387083466793679e-07]] * 2
                + [[3.775932029291819e-06, 1.7360607031226763e-07, -2.387083466793679e-07]]
                + [[3.775932029291819e-06, 1.7360607031226755e-07, -2.387083466793679e-07]] * 2
                + [[3.775932029291819e-06, 1.736060703122676e-07, -2.387083466793679e-07]],
                2, 1, 4,
                id="k-below-distinct-rows-3d",
            ),
        ],
    )
    def test_two_cycles_end_on_the_caps_labeling(self, points, k, seed, distinct):
        """Inputs on which the frozen exit fired: the one-exit loop runs the
        cycle to the cap and ends on the same labeling."""
        points = np.array(points)
        assert len(np.unique(points, axis=0)) == distinct
        cycled = []
        want = _cycle_exit_kmeans(points, k, seed, cycled)
        assert cycled == [2]
        assert np.array_equal(kmeans(points, k, seed), want)


@contextlib.contextmanager
def _asked_ks():
    """Collects the k (its count of centers) of every Lloyd run, in call
    order."""
    ks = []
    lloyd = setbuilder._lloyd

    def counting(points, centers):
        ks.append(len(centers))
        return lloyd(points, centers)

    with mock.patch.object(setbuilder, "_lloyd", counting):
        yield ks


@st.composite
def _signed_zero_points(draw):
    """_near_tied_points with any of their coordinates set to 0.0 or -0.0."""
    points = draw(_near_tied_points())
    zero = st.sampled_from([None, None, 0.0, -0.0])
    zeros = st.lists(zero, min_size=points.size, max_size=points.size)
    for i, zero in enumerate(draw(zeros)):
        if zero is not None:
            points.flat[i] = zero
    return points


class TestElbow:
    def test_too_few(self):
        with pytest.raises(TooFewPoints):
            elbow_k(np.zeros((1, 2)), 3)

    @pytest.mark.parametrize("k_max", [0, -1])
    def test_bad_k_max(self, k_max):
        with pytest.raises(BadK):
            elbow_k(np.arange(6.0).reshape(3, 2), k_max)

    def test_identical_points_give_one(self):
        assert elbow_k(np.zeros((10, 2)), 5)[0] == 1

    def test_finds_planted_k(self):
        truth = {f"r{i:02d}": f"e{i % 4}" for i in range(40)}
        emb = planted_embeddings(truth, noise=0.05, seed=7)
        pts = np.array([emb[r] for r in sorted(emb)])
        assert elbow_k(pts, 6, seed=0)[0] == 4

    def test_two_blobs(self):
        rng = np.random.default_rng(7)
        pts = np.vstack(
            [
                0.3 * rng.standard_normal((10, 2)),
                [20.0, 0.0] + 0.3 * rng.standard_normal((10, 2)),
            ]
        )
        assert elbow_k(pts, 4, seed=0)[0] == 2

    def test_k_at_most_distinct_rows(self):
        """11 rows of 4 distinct values, -0.0 and 0.0 being one, and k_max 6:
        k = 1 needs no run and Lloyd runs for k = 2..4 only, so no center
        repeats."""
        points = np.array(
            [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0]]
            + [[1.0, 0.0]] * 3
            + [[0.0, 1.0]] * 3
            + [[3.0, 3.0]] * 2
        )
        with _asked_ks() as asked:
            k, labels = elbow_k(points, 6)
        assert asked == [2, 3, 4]
        assert k <= 4
        assert len(np.unique(labels)) == k

    @given(_signed_zero_points(), st.integers(1, 8), st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_asks_k_up_to_distinct_rows(self, points, k_max, seed):
        with _asked_ks() as asked:
            k, _ = elbow_k(points, k_max, seed)
        cap = min(k_max, len(np.unique(points, axis=0)))
        assert asked == list(range(2, cap + 1))
        assert k <= cap

    @given(_signed_zero_points(), st.integers(1, 8), st.integers(0, 3))
    @settings(max_examples=400, deadline=None)
    def test_equals_the_reference(self, points, k_max, seed):
        _check_elbow(points, k_max, seed)

    @pytest.mark.parametrize("k_max", [1, 2, 6])
    def test_labels_are_the_chosen_k_run(self, k_max):
        truth = {f"r{i:02d}": f"e{i % 4}" for i in range(40)}
        emb = planted_embeddings(truth, noise=0.05, seed=7)
        pts = np.array([emb[r] for r in sorted(emb)])
        k, labels = elbow_k(pts, k_max, seed=3)
        assert np.array_equal(labels, kmeans(pts, k, seed=3))


class TestSequentialOrder:
    """A set drawn whole from a pool of at most set_size records is chained
    by similarity from the lowest id, and comes with its matrix in set
    order."""

    def _drawn(self, pool, index):
        ids, sims = next_record_set(pool, SetConfig(), index)
        assert np.array_equal(sims, index.sims(ids))
        return ids

    def test_chains_by_similarity(self):
        sims = TableIndex({("a", "b"): 0.1, ("a", "c"): 0.9, ("b", "c"): 0.2})
        assert self._drawn(["a", "b", "c"], sims) == ["a", "c", "b"]

    def test_ties_break_to_lower_id(self):
        sims = TableIndex(default=0.5)
        assert self._drawn(["c", "a", "b"], sims) == ["a", "b", "c"]

    def test_empty(self):
        with pytest.raises(EmptyInput):
            next_record_set(set(), SetConfig(), TableIndex(default=0.0))


class TestNextRecordSet:
    def _planted(self, n_clusters, per_cluster, seed=5, noise=0.05):
        truth = {
            f"r{i:03d}": f"e{i % n_clusters}"
            for i in range(n_clusters * per_cluster)
        }
        emb = planted_embeddings(truth, noise=noise, seed=seed)
        return truth, embedding_index(emb)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            next_record_set([], SetConfig(), TableIndex(default=0.0))

    def test_small_block_returned_whole(self):
        truth, index = self._planted(2, 3)
        ids, _ = next_record_set(sorted(truth), SetConfig(), index)
        assert sorted(ids) == sorted(truth)

    def test_target_size_per_precluster(self):
        """On a 40-record block with 4 planted pre-clusters the set has 9
        members with floor(9/4)=2 drawn from each pre-cluster before filling."""
        truth, index = self._planted(4, 10)
        ids, _ = next_record_set(sorted(truth), SetConfig(seed=0), index)
        assert len(ids) == 9
        counts = {}
        for rid in ids:
            counts[truth[rid]] = counts.get(truth[rid], 0) + 1
        assert sorted(counts.values()) == [2, 2, 2, 3]

    def test_sequential_adjacency(self):
        truth, index = self._planted(4, 10)
        ids, _ = next_record_set(sorted(truth), SetConfig(seed=0), index)
        adjacent_same = sum(
            1 for a, b in zip(ids, ids[1:]) if truth[a] == truth[b]
        )
        distinct = len({truth[r] for r in ids})
        achievable = len(ids) - distinct
        assert adjacent_same >= 0.9 * achievable

    def test_kmeans_runs_once_per_k(self):
        """The elbow's run for the chosen k supplies the labels: one Lloyd
        run per k = 2..set_diversity + 2 (k = 1 needs none), none after."""
        truth, index = self._planted(4, 10)
        config = SetConfig(seed=0)
        with _asked_ks() as ks:
            next_record_set(sorted(truth), config, index)
        assert ks == list(range(2, config.set_diversity + 3))

    @pytest.mark.parametrize("turn, second", [(0, 1), (1, 1), (2, 2), (3, 1)])
    def test_largest_pre_cluster_first_ties_rotated_by_turn(self, turn, second):
        """Pre-clusters of 5, 3 and 3 records and room for two pre-clusters of
        two records each: the largest is visited first, and the tie between
        the other two goes to the first label at or after ``turn`` (mod 3)."""
        sizes = {0: 5, 1: 3, 2: 3}
        truth = {
            f"r{c}{i}": f"e{c}" for c, size in sizes.items() for i in range(size)
        }
        index = embedding_index(planted_embeddings(truth, noise=0.05, seed=1))
        cluster_of = {rid: int(rid[1]) for rid in truth}
        config = SetConfig(set_size=4, set_diversity=2)
        ids, _ = next_record_set(sorted(truth), config, index, cluster_of, turn=turn)
        drawn = sorted(cluster_of[rid] for rid in ids)
        assert drawn == sorted([0, 0, second, second])

    def test_deterministic(self):
        truth, index = self._planted(4, 10)
        a, _ = next_record_set(sorted(truth), SetConfig(seed=2), index)
        b, _ = next_record_set(sorted(truth), SetConfig(seed=2), index)
        assert a == b

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 12), st.integers(0, 5))
    def test_returns_subset_of_requested_size(self, n_clusters, per_cluster, seed):
        truth, index = self._planted(n_clusters, per_cluster, seed=seed)
        pool = sorted(truth)
        ids, _ = next_record_set(pool, SetConfig(seed=seed), index)
        assert len(ids) == min(len(pool), 9)
        assert len(set(ids)) == len(ids)
        assert set(ids) <= set(pool)


def _reference_next_record_set(pool, config, index, cluster_of, turn):
    """next_record_set for an oversized block with fillers scored one
    candidate record at a time, kept frozen as the reference for the
    per-pre-cluster scoring."""
    pool = sorted(pool)
    by_cluster = {}
    for rid in pool:
        by_cluster.setdefault(cluster_of[rid], []).append(rid)
    n_labels = max(cluster_of.values()) + 1
    order = sorted(
        by_cluster, key=lambda c: (-len(by_cluster[c]), (c - turn) % n_labels)
    )
    target_size = config.set_size // config.set_diversity
    selected = []
    for c in order:
        members = by_cluster[c]
        room = config.set_size - len(selected)
        if room <= 0 or len(members) < target_size:
            break
        points = index.rows(members)
        seed_pos = int(np.argmin(np.linalg.norm(points - points.mean(axis=0), axis=1)))
        take = [members[seed_pos]]
        candidates = members[:seed_pos] + members[seed_pos + 1 :]
        nearest = np.full(len(candidates), -np.inf)
        while len(take) < min(target_size, room) and candidates:
            np.maximum(nearest, index.sims(candidates, take[-1:])[:, 0], out=nearest)
            k = int(nearest.argmax())
            take.append(candidates.pop(k))
            nearest = np.delete(nearest, k)
        selected.extend(take)

    taken = set(selected)
    remaining = [rid for rid in pool if rid not in taken]
    while len(selected) < config.set_size and remaining:
        profile_base = {}
        for rid in selected:
            profile_base[cluster_of[rid]] = profile_base.get(cluster_of[rid], 0) + 1

        def filler_cost(rid):
            profile = dict(profile_base)
            profile[cluster_of[rid]] = profile.get(cluster_of[rid], 0) + 1
            return variation(profile.values())

        best = min(remaining, key=lambda rid: (filler_cost(rid), rid))
        remaining.remove(best)
        selected.append(best)
    ids = sorted(selected)
    return [ids[k] for k in similarity_chain(index.sims(ids), 0)]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 12),
    st.data(),
    st.integers(0, 5),
    st.integers(0, 10**6),
)
def test_fillers_match_the_per_record_reference(set_size, data, turn, seed):
    """Scoring each pre-cluster once picks the fillers, in the same order, that
    scoring each candidate record picked: on random pre-cluster labels, pool
    sizes and diversities, with ties between equal-cost pre-clusters."""
    diversity = data.draw(st.integers(1, set_size))
    n = data.draw(st.integers(set_size + 1, 40))
    rng = random.Random(seed)
    n_labels = rng.randint(1, 8)
    ids = [f"r{i:02d}" for i in range(n)]
    cluster_of = {rid: rng.randrange(n_labels) for rid in ids}
    emb = {
        rid: np.random.default_rng([seed, i]).normal(size=4)
        for i, rid in enumerate(ids)
    }
    index = embedding_index(emb)
    config = SetConfig(set_size=set_size, set_diversity=diversity)
    drawn, sims = next_record_set(ids, config, index, cluster_of, turn)
    assert drawn == _reference_next_record_set(ids, config, index, cluster_of, turn)
    assert np.array_equal(sims, index.sims(drawn))
