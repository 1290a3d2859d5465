"""Greedy codes, sparse packings, trimming, and their certification."""

import math
import tracemalloc

import numpy as np
import pytest

from conversekit.oracle import CapabilityError, HypercubeDensityFamily, hellinger_sq_distance
from conversekit.packing import (
    BinaryCodebook,
    PackingCertificate,
    PackingIncompleteError,
    PackingSet,
    SparsePacking,
    cs_random_packing,
    gv_greedy,
    operator_norm,
    trim_packing,
    verify_packing,
)

# sizes the lexicographic greedy construction produced on its first run
GOLDEN_GV_SIZES = {(6, 3): 8, (8, 3): 16, (10, 4): 32, (12, 4): 128}


# --- references: the loops the array code in packing.py replaced ---


def reference_gv_greedy(m, d_min, order="lexicographic", seed=0):
    """Codeword bits from the candidate-by-candidate greedy loop."""
    candidates = np.arange(1 << m, dtype=np.uint32)
    if order == "seeded_random":
        candidates = np.random.default_rng(seed).permutation(candidates)
    chosen = []
    chosen_arr = np.empty(0, dtype=np.uint32)
    chunk = 1 << 14
    for start in range(0, candidates.size, chunk):
        block = candidates[start : start + chunk]
        if chosen_arr.size:
            dists = np.bitwise_count(block[:, None] ^ chosen_arr[None, :])
            block = block[dists.min(axis=1) >= d_min]
        fresh = []
        fresh_arr = np.empty(0, dtype=np.uint32)
        for cand in block:
            c = int(cand)
            if fresh_arr.size and int(np.bitwise_count(np.uint32(c) ^ fresh_arr).min()) < d_min:
                continue
            fresh.append(c)
            fresh_arr = np.array(fresh, dtype=np.uint32)
        chosen.extend(fresh)
        chosen_arr = np.array(chosen, dtype=np.uint32)
    shifts = np.arange(m - 1, -1, -1, dtype=np.uint32)
    return ((chosen_arr[:, None] >> shifts) & 1).astype(np.uint8)


def reference_verify(packing):
    """The pair loop over PackingSet.distance; the first strict minimum wins."""
    size = len(packing.elements)
    if size == 1:
        return PackingCertificate(math.inf, None, True)
    best = math.inf
    pair = None
    for i in range(size):
        for j in range(i + 1, size):
            d = packing.distance(i, j)
            if d < best:
                best, pair = d, (i, j)
    return PackingCertificate(best, pair, best >= packing.d_min)


def reference_power_norm(mat, rtol=1e-8, max_iters=50_000):
    """Power iteration on the squared matrix, stopped on the eigen-residual."""
    a = np.asarray(mat, dtype=np.float64)
    sq = a @ a
    n = a.shape[0]
    v = 1.0 + np.arange(n) / max(n - 1, 1)
    v /= np.linalg.norm(v)
    rq = 0.0
    for _ in range(max_iters):
        w = sq @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        bv = sq @ v
        rq = float(v @ bv)
        if float(np.linalg.norm(bv - rq * v)) <= rtol * abs(rq):
            break
    return math.sqrt(max(rq, 0.0))


def reference_cs_random_packing(n, k, m_target, seed=0, max_attempts=None):
    """(message, rows) of the vstack loop with a dense gap row per candidate.

    message is None when m_target rows were placed, else the text of the
    PackingIncompleteError the loop raised.
    """
    if max_attempts is None:
        max_attempts = 1000 * m_target
    rng = np.random.default_rng(seed)
    accepted = np.empty((0, n))
    for _ in range(max_attempts):
        support = rng.choice(n, size=k, replace=False)
        entries = rng.standard_normal(k)
        norm = np.linalg.norm(entries)
        if norm == 0.0:
            continue
        vec = np.zeros(n)
        vec[support] = entries / norm
        if accepted.shape[0]:
            gaps = np.sum((accepted - vec) ** 2, axis=1)
            if gaps.min() < 0.5:
                continue
        accepted = np.vstack([accepted, vec])
        if accepted.shape[0] == m_target:
            return None, accepted
    return f"placed {accepted.shape[0]} of {m_target} vectors in {max_attempts} attempts", accepted


# --- Gilbert-Varshamov greedy codes ---


@pytest.mark.parametrize("m,d_min", sorted(GOLDEN_GV_SIZES))
def test_gv_greedy_golden_sizes_and_floor(m, d_min):
    book = gv_greedy(m, d_min)
    assert book.size == GOLDEN_GV_SIZES[(m, d_min)]
    volume = sum(math.comb(m, j) for j in range(d_min))
    assert book.size >= math.ceil(2**m / volume)
    cert = verify_packing(book.to_packing_set())
    assert cert.passed and cert.min_distance >= d_min


def test_gv_greedy_beats_counting_floor_at_12_4():
    # ceil(4096 / 299) = 14 is the counting floor at (12, 4)
    assert gv_greedy(12, 4).size >= 14


def test_gv_greedy_trivial_distance():
    book = gv_greedy(4, 1)
    assert book.size == 16


def test_gv_greedy_is_maximal():
    book = gv_greedy(8, 3)
    chosen = {tuple(row) for row in book.codewords}
    for x in range(2**8):
        bits = tuple((x >> s) & 1 for s in range(7, -1, -1))
        if bits in chosen:
            continue
        dists = [sum(a != b for a, b in zip(bits, row)) for row in chosen]
        assert min(dists) < 3  # nothing else could have been added


def test_gv_greedy_seeded_random_order(rng):
    a = gv_greedy(8, 3, order="seeded_random", seed=5)
    b = gv_greedy(8, 3, order="seeded_random", seed=5)
    assert np.array_equal(a.codewords, b.codewords)
    assert verify_packing(a.to_packing_set()).passed
    volume = sum(math.comb(8, j) for j in range(3))
    assert a.size >= math.ceil(2**8 / volume)


@pytest.mark.parametrize(
    "m,d_min", [(6, 3), (8, 2), (8, 3), (10, 4), (12, 4), (12, 6), (14, 5), (16, 3), (16, 7)]
)
def test_gv_greedy_matches_reference_loop(m, d_min):
    for order, seed in [("lexicographic", 0), ("seeded_random", 0), ("seeded_random", 1),
                        ("seeded_random", 7)]:
        book = gv_greedy(m, d_min, order=order, seed=seed)
        assert np.array_equal(book.codewords, reference_gv_greedy(m, d_min, order, seed))


def test_gv_greedy_caps_and_domain():
    with pytest.raises(CapabilityError):
        gv_greedy(25, 3)
    with pytest.raises(ValueError):
        gv_greedy(8, 0)
    with pytest.raises(ValueError):
        gv_greedy(8, 9)
    for bad in (2.5, math.inf, math.nan):  # not truncated to a smaller label
        with pytest.raises(ValueError, match="d_min"):
            gv_greedy(8, bad)
    with pytest.raises(ValueError):
        gv_greedy(8, 3, order="sorted")


# --- verification ---


def test_verify_single_element_vacuous():
    cert = verify_packing(PackingSet(elements=(np.zeros(3),), metric="l2", d_min=1.0))
    assert cert.passed and cert.min_distance == math.inf and cert.argmin_pair is None


def test_verify_identical_elements_fail():
    v = np.ones(3) / math.sqrt(3.0)
    cert = verify_packing(PackingSet(elements=(v, v), metric="l2", d_min=0.5))
    assert not cert.passed
    assert cert.min_distance == 0.0
    assert cert.argmin_pair == (0, 1)


def _same_certificate(pset):
    assert verify_packing(pset) == reference_verify(pset)


@pytest.mark.parametrize("m,d_min", [(6, 3), (8, 3), (10, 4), (12, 4)])
def test_verify_hamming_matches_pair_loop(m, d_min):
    for order, seed in [("lexicographic", 0), ("seeded_random", 3)]:
        book = gv_greedy(m, d_min, order=order, seed=seed)
        _same_certificate(book.to_packing_set())
        # duplicates appended: distance 0, first copy pair wins
        rows = tuple(book.codewords) + tuple(book.codewords[[2, 0, 2]])
        _same_certificate(PackingSet(elements=rows, metric="hamming", d_min=float(d_min)))


def test_verify_ties_go_to_first_pair(rng):
    # few symbols on short rows: many pairs tie at the minimum
    for _ in range(20):
        rows = tuple(rng.integers(0, 3, size=(int(rng.integers(2, 40)), 5)))
        _same_certificate(PackingSet(elements=rows, metric="hamming", d_min=2.0))
        # small integer points: squared distances are exact integers, so
        # the Gram screen ties exactly where the pair loop does
        _same_certificate(PackingSet(elements=rows, metric="l2", d_min=1.0))


def test_verify_l2_matches_pair_loop():
    for seed in range(5):
        packing = cs_random_packing(64, 4, 16, seed=seed)
        pset = packing.to_packing_set()
        _same_certificate(pset)
        _same_certificate(PackingSet(elements=np.concatenate((pset.elements, pset.elements[3:5])),
                                     metric="l2", d_min=pset.d_min))
    for seed in range(3):
        _same_certificate(cs_random_packing(256, 4, 64, seed=seed).to_packing_set())


def test_verify_l2_near_ties_inside_screen_slack(rng):
    # tight clusters far from the origin: the Gram screen's rounding (about
    # eps |x|^2) is comparable to the gaps between pairwise distances, so
    # only the exact per-pair recomputation can order them
    for _ in range(20):
        dim = int(rng.integers(1, 12))
        centre = rng.normal(size=dim) * 1e3
        rows = tuple(centre + 1e-4 * rng.normal(size=(int(rng.integers(2, 30)), dim)))
        _same_certificate(PackingSet(elements=rows, metric="l2", d_min=1e-6))
    # two pairs far apart whose offsets round to the same distance: the
    # first pair wins the tie
    base = np.array([1e3, 0.0])
    rows = (base, base + [1e-3, 0.0], -base, -base + [np.nextafter(1e-3, 0.0), 0.0])
    pset = PackingSet(elements=rows, metric="l2", d_min=1e-6)
    _same_certificate(pset)
    assert verify_packing(pset).argmin_pair == (0, 1)
    # the later pair 1 ulp closer than the first: it must win
    rows = (np.zeros(2), np.array([0.1, 0.2]), np.full(2, 5.0),
            np.array([5.1, 5.0 + np.nextafter(0.2, 0.0)]))
    pset = PackingSet(elements=rows, metric="l2", d_min=1e-6)
    assert pset.distance(2, 3) < pset.distance(0, 1)
    _same_certificate(pset)
    assert verify_packing(pset).argmin_pair == (2, 3)


def test_verify_pair_loop_cases_match_reference():
    # scalars as rows of one entry; huge l2 entries are screened scaled
    cases = [
        PackingSet(elements=(3.0, 1.0, 2.5), metric="l2", d_min=0.1),
        PackingSet(elements=(1, 0, 1), metric="hamming", d_min=1.0),
        PackingSet(elements=(np.full(2, 1e200), np.zeros(2), np.array([1.0, 0.0])),
                   metric="l2", d_min=0.5),
    ]
    for pset in cases:
        _same_certificate(pset)
    # a NaN distance compares below nothing, so these would pass unmeasured
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            PackingSet(elements=(np.array([bad, 0.0]), np.zeros(2), np.array([1.0, 0.0])),
                       metric="l2", d_min=0.5)


def test_verify_l2_scaled_past_overflow_and_underflow():
    # squares past the float maximum: the unscaled norm overflowed to inf and
    # the false claim passed
    huge = PackingSet(elements=(np.array([1e200, 0.0]), np.array([0.0, 1e200])),
                      metric="l2", d_min=1e250)
    cert = verify_packing(huge)
    assert not cert.passed and cert.argmin_pair == (0, 1)
    assert cert.min_distance == pytest.approx(math.hypot(1e200, 1e200), rel=1e-15)
    # squares below the smallest float: the unscaled distance underflowed to 0
    tiny = PackingSet(elements=(np.zeros(2), np.array([1e-200, 0.0])), metric="l2", d_min=1e-201)
    assert verify_packing(tiny) == PackingCertificate(1e-200, (0, 1), True)
    # a true distance above the float maximum is inf, with its pair named
    beyond = PackingSet(elements=((1.7e308,), (-1.7e308,)), metric="l2", d_min=1.0)
    assert beyond.distance(0, 1) == math.inf
    assert verify_packing(beyond) == PackingCertificate(math.inf, (0, 1), True)


def test_packing_set_holds_one_read_only_array():
    book = gv_greedy(8, 3)
    sparse = cs_random_packing(64, 4, 16, seed=0)
    for pset, source in ((book.to_packing_set(), book.codewords),
                         (sparse.to_packing_set(), sparse.vectors)):
        assert isinstance(pset.elements, np.ndarray) and not pset.elements.flags.writeable
        assert np.array_equal(pset.elements, source)
    # scalars are rows of one entry; l2 rows are float64
    scalars = PackingSet(elements=(3, 1, 2), metric="l2", d_min=0.5)
    assert scalars.elements.shape == (3, 1) and scalars.elements.dtype == np.float64
    # the caller's array is copied, neither frozen nor aliased
    rows = np.eye(3)
    pset = PackingSet(elements=rows, metric="l2", d_min=1.0)
    rows[0, 0] = 5.0
    assert rows.flags.writeable and pset.elements[0, 0] == 1.0


def test_verify_packing_memory_is_block_bounded():
    book = gv_greedy(16, 3)
    pset = book.to_packing_set()
    tracemalloc.start()
    try:
        cert = verify_packing(pset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the linear (16, 3) lexicode holds the zero word first, so the first
    # pair at distance 3 is (0, first weight-3 word)
    first = int(np.flatnonzero(book.codewords.sum(axis=1) == 3)[0])
    assert cert == PackingCertificate(3.0, (0, first), True)
    # all 2048 x 2048 x 16 element comparisons at once would need 64 MiB
    assert peak < 8 * 2**20


def test_packing_set_validation():
    with pytest.raises(ValueError):
        PackingSet(elements=(), metric="l2", d_min=1.0)
    with pytest.raises(ValueError):
        PackingSet(elements=(1,), metric="euclid", d_min=1.0)
    with pytest.raises(ValueError):
        PackingSet(elements=(1,), metric="hellinger_sq", d_min=1.0)
    with pytest.raises(ValueError):
        PackingSet(elements=(1,), metric="l2", d_min=0.0)
    # elements of different shapes are not measured by broadcasting
    with pytest.raises(ValueError, match="one shape"):
        PackingSet(elements=(np.zeros(2), np.ones(1), np.array([5.0, 5.0])),
                   metric="l2", d_min=1.0)
    with pytest.raises(ValueError, match="one shape"):
        PackingSet(elements=(np.zeros(3), np.ones(5)), metric="hamming", d_min=1.0)
    # codeword entries are checked before the cast, not truncated to bits
    for bad in ([[0.5, 1.7]], [[0, 2]], [[-1, 0]], [[np.nan, 1.0]]):
        with pytest.raises(ValueError, match="bits"):
            BinaryCodebook(m=2, d_min=1, codewords=np.array(bad))


def test_hypercube_embedding_respects_hellinger_floor():
    # codewords at Hamming distance >= m/3 map to densities at squared
    # Hellinger distance >= a c^2 / (3 m^4)
    m, c = 6, 0.1
    fam = HypercubeDensityFamily(m=m, c=c)
    book = gv_greedy(m, 2)
    taus = [2 * row.astype(np.int64) - 1 for row in book.codewords]
    floor = 0.5 * c * c / (3.0 * m**4)
    closest = min(hellinger_sq_distance(fam, ta, tb)
                  for i, ta in enumerate(taus) for tb in taus[i + 1:])
    assert closest >= floor


# --- sparse random packings ---


def test_cs_random_packing_certified():
    packing = cs_random_packing(64, 4, 16, seed=0)
    assert packing.size == 16
    norms = np.linalg.norm(packing.vectors, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    assert int(np.max((packing.vectors != 0.0).sum(axis=1))) <= 4
    assert packing.min_sq_distance >= 0.5
    cert = verify_packing(packing.to_packing_set())
    assert cert.passed
    # regression pin for the measured isotropy deviation
    assert packing.beta_hat == pytest.approx(7.007390192182628, rel=1e-9)


# (n, k, m_target, max_attempts) and seeds; the last two run out of attempts,
# (8, 2, 200) after the buffer has doubled three times
SPARSE_GRID = [
    ((256, 4, 64, None), range(8)),
    ((32, 3, 8, None), range(20)),
    ((64, 4, 16, None), range(10)),
    ((6, 6, 2, None), range(5)),
    ((2, 1, 100, 500), range(5)),
    ((8, 2, 200, 2000), range(5)),
]


@pytest.mark.parametrize("case,seeds", SPARSE_GRID)
def test_cs_random_packing_matches_reference_loop(case, seeds):
    n, k, m_target, max_attempts = case
    for seed in seeds:
        message, rows = reference_cs_random_packing(n, k, m_target, seed, max_attempts)
        if message is None:
            packing = cs_random_packing(n, k, m_target, seed, max_attempts)
        else:
            with pytest.raises(PackingIncompleteError) as info:
                cs_random_packing(n, k, m_target, seed, max_attempts)
            assert str(info.value) == message
            packing = info.value.partial
        assert packing.vectors.tobytes() == rows.tobytes()
        assert packing.min_sq_distance == verify_packing(packing.to_packing_set()).min_distance ** 2


def _dense_beta_hat(vecs):
    size, n = vecs.shape
    return n * operator_norm(vecs.T @ vecs / size - np.eye(n) / n)


def test_beta_hat_from_the_smaller_gram_matches_the_dense_form():
    eight_directions = np.array([[math.cos(t), math.sin(t)] for t in np.arange(8) * math.pi / 4])
    cases = [
        cs_random_packing(256, 4, 64, seed=3),  # M < n, the Gram route
        SparsePacking(4, 1, np.eye(4)[:3]),  # M < n, where the -1/n directions win
        SparsePacking(4, 1, np.eye(4)),  # M = n
        SparsePacking(2, 2, eight_directions),  # M > n
    ]
    for packing in cases:
        dense = _dense_beta_hat(packing.vectors)
        assert packing.beta_hat == pytest.approx(dense, rel=1e-12, abs=0.0)
    assert cases[1].beta_hat == 1.0


def test_cs_random_packing_memory_does_not_scale_with_target():
    tracemalloc.start()
    try:
        with pytest.raises(PackingIncompleteError) as info:
            cs_random_packing(32, 3, 10**6, max_attempts=200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 1 <= info.value.partial.size <= 200
    # 10^6 rows of 32 doubles reserved up front would be 256 MB
    assert peak < 5 * 2**20


def test_cs_random_packing_trivial_target():
    packing = cs_random_packing(6, 6, 2, seed=1)
    assert packing.size == 2
    assert packing.min_sq_distance >= 0.5


def test_cs_random_packing_incomplete_carries_partial():
    # 1-sparse unit vectors in R^2 admit at most 4 points at squared gap 1/2
    with pytest.raises(PackingIncompleteError) as info:
        cs_random_packing(2, 1, 100, seed=0, max_attempts=500)
    partial = info.value.partial
    assert partial is not None
    assert 1 <= partial.size < 100
    assert partial.min_sq_distance >= 0.5


def test_cs_random_packing_caps():
    with pytest.raises(CapabilityError):
        cs_random_packing(1024, 4, 4)
    with pytest.raises(ValueError):
        cs_random_packing(16, 0, 4)
    with pytest.raises(ValueError):
        cs_random_packing(16, 4, 0)


@pytest.mark.parametrize("bad", [2.5, math.inf, math.nan])
def test_counts_must_be_positive_integers(bad):
    # ValueError, not the TypeError or OverflowError of the arithmetic on them
    with pytest.raises(ValueError, match="m_target must be a positive integer"):
        cs_random_packing(32, 3, bad)
    with pytest.raises(ValueError, match="^n must be a positive integer"):
        cs_random_packing(bad, 2, 4)
    with pytest.raises(ValueError, match="k must be a positive integer"):
        cs_random_packing(64, bad, 4)
    # nor is a sparse packing's n or k kept fractional in an int field
    with pytest.raises(ValueError, match="^n must be a positive integer"):
        SparsePacking(n=bad, k=1, vectors=np.eye(4)[:1])
    with pytest.raises(ValueError, match="k must be a positive integer"):
        SparsePacking(n=4, k=bad, vectors=np.eye(4)[:1])
    with pytest.raises(ValueError, match="m must be a positive integer"):
        gv_greedy(bad, 1)
    # a codebook's d_min is a whole number too, not 2.5 kept in an int field
    with pytest.raises(ValueError, match="d_min must be a positive integer"):
        BinaryCodebook(m=3, d_min=bad, codewords=np.zeros((1, 3)))


def test_sparse_min_sq_distance_is_the_certificate():
    for seed in range(10):
        packing = cs_random_packing(32, 3, 12, seed=seed)
        cert = verify_packing(packing.to_packing_set())
        assert packing.min_sq_distance == cert.min_distance**2
    assert SparsePacking(n=4, k=1, vectors=np.eye(4)[:1]).min_sq_distance == math.inf


def test_beta_hat_shrinks_along_design_scale():
    # with M = (n/k)^(k/4) tied to n (k = 8), the empirical second moment
    # approaches isotropic and beta_hat falls; at fixed M it would not
    small = [cs_random_packing(32, 8, 16, seed=s).beta_hat for s in range(20)]
    large = [cs_random_packing(128, 8, 256, seed=s).beta_hat for s in range(20)]
    assert np.mean(large) <= np.mean(small)


def test_sparse_packing_validation():
    with pytest.raises(ValueError):
        SparsePacking(n=4, k=1, vectors=np.array([[0.5, 0.5, 0.5, 0.5]]))  # too dense
    with pytest.raises(ValueError):
        SparsePacking(n=4, k=4, vectors=np.array([[0.5, 0.5, 0.5, 0.4]]))  # not unit
    v = np.zeros((2, 4))
    v[0, 0] = 1.0
    v[1, 0] = 1.0
    with pytest.raises(ValueError):
        SparsePacking(n=4, k=1, vectors=v)  # coincident points


# --- trimming ---


def test_trim_packing_keeps_smallest_half():
    kept = trim_packing([1.0, 2.0, 3.0, 4.0], 0.5)
    assert list(kept) == [0, 1]


def test_trim_packing_constant_list():
    kept = trim_packing([2.0, 2.0, 2.0, 2.0], 0.5)
    assert len(kept) == 2
    # max kept = 2 <= mean / (1 - delta) = 4
    assert max(2.0 for _ in kept) <= 2.0 / 0.5


def test_trim_packing_domain():
    with pytest.raises(ValueError):
        trim_packing([], 0.5)
    with pytest.raises(ValueError):
        trim_packing([1.0, 2.0], 0.05)  # below 1/M
    with pytest.raises(ValueError):
        trim_packing([1.0, 2.0], 0.95)  # above 1 - 1/M
    with pytest.raises(ValueError):
        trim_packing([1.0, -2.0, 3.0], 0.5)


def test_trim_packing_order_statistic_inequality(rng):
    for _ in range(1000):
        size = int(rng.integers(2, 60))
        values = rng.uniform(0.0, 100.0, size=size)
        delta = float(rng.uniform(1.0 / size, 1.0 - 1.0 / size))
        kept = values[trim_packing(values, delta)]
        assert len(kept) == math.ceil(delta * size)
        assert np.max(kept) <= np.mean(values) / (1.0 - delta) + 1e-12


def test_trimmed_energy_chain(rng):
    # Gaussian design rows against a sparse packing: the average energy obeys
    # the psd bound, so the trimmed max obeys the full chain
    packing = cs_random_packing(32, 4, 12, seed=3)
    big_a = rng.normal(size=(24, 32))
    energies = np.array([np.sum((big_a @ u) ** 2) for u in packing.vectors])
    frob_sq = float(np.sum(big_a**2))
    avg_bound = frob_sq * (1.0 + packing.beta_hat) / 32.0
    assert np.mean(energies) <= avg_bound * (1.0 + 1e-12)
    delta = 0.25
    kept = energies[trim_packing(energies, delta)]
    assert np.max(kept) <= avg_bound / (1.0 - delta) + 1e-9


# --- operator norm ---


def test_operator_norm_basic_cases():
    assert operator_norm(np.eye(5)) == pytest.approx(1.0, rel=1e-12)
    assert operator_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, rel=1e-12)
    assert operator_norm(np.zeros((4, 4))) == 0.0
    # +- pair of extreme eigenvalues must not stall the iteration
    assert operator_norm(np.diag([7.0, -7.0, 1.0])) == pytest.approx(7.0, rel=1e-12)


def test_operator_norm_matches_eigensolver(rng):
    for _ in range(20):
        a = rng.normal(size=(8, 8))
        sym = (a + a.T) / 2.0
        exact = float(np.max(np.abs(np.linalg.eigvalsh(sym))))
        assert operator_norm(sym) == pytest.approx(exact, rel=1e-8)


def test_operator_norm_within_power_iteration_tolerance(rng):
    for n in (2, 9, 40):
        a = rng.normal(size=(n, n))
        sym = (a + a.T) / 2.0
        assert operator_norm(sym) == pytest.approx(reference_power_norm(sym), rel=1e-8)


def test_operator_norm_near_degenerate_top_pair():
    # top two |eigenvalues| 1e-5 apart: the power iteration this replaced ran
    # to its 50 000-iteration cap and returned a value 9.8e-7 off
    rng = np.random.default_rng(2024)
    basis, _ = np.linalg.qr(rng.standard_normal((256, 256)))
    spectrum = np.concatenate([[1.0, -(1.0 - 1e-5)], rng.uniform(-0.9, 0.9, size=254)])
    sym = (basis * spectrum) @ basis.T
    sym = (sym + sym.T) / 2.0
    exact = float(np.max(np.abs(np.linalg.eigvalsh(sym))))
    assert operator_norm(sym) == pytest.approx(exact, rel=1e-12)
    assert operator_norm(sym) == pytest.approx(1.0, rel=1e-12)


def test_packing_suite_opnorm_checks_use_known_spectra(monkeypatch):
    from conversekit import suites

    result = suites.packing_suite()
    assert result.passed and result.checks == 37
    # the largest signed eigenvalue is not the norm when a negative one wins
    monkeypatch.setattr(
        suites, "operator_norm", lambda a: float(np.max(np.linalg.eigvalsh(a)))
    )
    broken = suites.packing_suite()
    assert broken.failures > 0
    assert all(detail.startswith("opnorm ") for detail in broken.details)


def test_operator_norm_rejects_bad_input():
    with pytest.raises(ValueError):
        operator_norm(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        operator_norm(np.zeros((2, 3)))


# (matrix of the off-diagonal entry x, largest x that passes, smallest x that fails):
# the rule is |a_ij - a_ji| <= 1e-14 max|a| + 1e-10 min(|a_ij|, |a_ji|), the
# answers of np.allclose(a, a.T) on every pair
SYMMETRY_EDGES = [
    (lambda x: [[0.0, x], [1.0, 0.0]],
     1.0 + 450404 * math.ulp(1.0), 1.0 + 450405 * math.ulp(1.0)),
    (lambda x: [[0.0, 1.0], [x, 0.0]],
     1.0 + 450404 * math.ulp(1.0), 1.0 + 450405 * math.ulp(1.0)),
    # a pair far below the largest entry, where the absolute term rules
    (lambda x: [[1.0, x], [1e-12, 0.0]],
     1.0100000001e-12, math.nextafter(1.0100000001e-12, 1.0)),
]


@pytest.mark.parametrize("make, inside, outside", SYMMETRY_EDGES)
def test_operator_norm_symmetry_tolerance_edge(make, inside, outside):
    mat = np.array(make(inside))
    assert operator_norm(mat) == float(np.max(np.abs(np.linalg.eigvalsh(mat))))
    with pytest.raises(ValueError, match="symmetric"):
        operator_norm(np.array(make(outside)))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_operator_norm_rejects_non_finite_entries(bad):
    # before the symmetry test: its atol of 1e-14 max|a| is not finite here
    mat = np.array([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        operator_norm(mat)
