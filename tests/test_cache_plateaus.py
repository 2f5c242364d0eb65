"""Every bounded cache keeps memory flat in a long loop: after a warm-up
that fills it, 2 x 5,000 distinct inputs leave it with no more entries,
and no more traced bytes outside this file, after the second half than
after the first.  The layers: the psi records and class-group
presentations behind pair queries, and the cached properties of one
shared fan asked about many pairs.
Each loop's inputs have one shape and size (same digit counts, small
ints), so an entry of the second half retains about what one of the first
did.  "About": a freed tuple or int is reused from a free list and keeps
the trace of its first allocation, and a hash is an int of 32 or 36 bytes,
so the halves differ by some tens of bytes with no entry more (from -92
to +12 bytes measured over the first two loops, alone and in the whole
suite, and +32 over the shared fan's, alone).  A
second half may therefore read up to NOISE bytes above the first; one
leaked entry in a thousand inputs would add more than that, and a cache
with no bound adds megabytes."""

import gc
import random
import tracemalloc
from fractions import Fraction

from toriclab import pairs, toric
from toriclab.catalog import cone_over_square_fan
from toriclab.fan import Fan
from toriclab.pairs import ToricPair, index, is_log_cy, log_discrepancy, singularity_type, validate_pair
from toriclab.toric import ToricVariety, class_group

P2 = ([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
NOISE = 1024


def _assert_plateau(run, entries, inputs, bound):
    """Run every input of `inputs` (warm-up, first half, second half) and
    compare what the first and second halves leave behind."""

    def retained(batch):
        for item in batch:
            run(item)
        gc.collect()
        traces = tracemalloc.take_snapshot().filter_traces([tracemalloc.Filter(False, __file__)]).traces
        return entries(), sum(trace.size for trace in traces)

    warm_up, first, second = inputs
    tracemalloc.start()
    try:
        retained(warm_up)
        (keys, size), (more_keys, more_size) = retained(first), retained(second)
    finally:
        tracemalloc.stop()
    assert keys <= bound and more_keys <= keys and more_size <= size + NOISE, (keys, more_keys, size, more_size)


def _halves(inputs):
    """300 warm-up inputs, then two halves of 5,000; all distinct."""
    assert len(set(inputs)) == len(inputs) == 10300
    return inputs[:300], inputs[300:5300], inputs[5300:]


def test_distinct_pairs_keep_the_psi_cache_flat():
    # one live fan; coefficients k/p with p prime, so each pair has A = p
    # and entries of one size
    fan, p, rng = Fan.from_data(*P2), 1000003, random.Random(2727)
    boundaries = [tuple(rng.randrange(1, p) for _ in fan.rays) for _ in range(10300)]

    def run(ks):
        assert validate_pair(ToricPair.from_fan(fan, [Fraction(k, p) for k in ks]))

    pairs._psi.cache_clear()
    _assert_plateau(run, lambda: pairs._psi.cache_info().currsize, _halves(boundaries), 256)


def test_distinct_fans_keep_the_presentation_cache_flat():
    # the complete fans with rays (1,0), (0,1), (-1,-k): P(1,k,1), class
    # group Z for every k
    ks = random.Random(2828).sample(range(10**5, 10**6), 10300)

    def run(k):
        X = ToricVariety(Fan.from_data([(1, 0), (0, 1), (-1, -k)], P2[1]))
        assert class_group(X).free_rank == 1

    toric._presentation.cache_clear()
    _assert_plateau(run, lambda: toric._presentation.cache_info().currsize, _halves(ks), 256)


def test_one_shared_fan_keeps_its_cached_properties_flat():
    # the catalogue's cone over the square, whose one cone triangulates
    # into two simplices, each with a Smith chart; coefficients k/p with p
    # prime, opposite rays summing alike (b_0 + b_3 = b_1 + b_2) so that
    # K+B is Q-Cartier, and each pair has A = p
    fan, p, rng = cone_over_square_fan(), 1000003, random.Random(2929)
    assert fan.rays == ((-1, 0, 1), (0, -1, 1), (0, 1, 1), (1, 0, 1))
    boundaries = {}
    while len(boundaries) < 10300:
        k0, k1, k2 = (rng.randrange(1, p) for _ in range(3))
        if 0 < k1 + k2 - k0 < p:
            boundaries[k0, k1, k2, k1 + k2 - k0] = None

    def run(ks):
        pair = ToricPair.from_fan(fan, [Fraction(k, p) for k in ks])
        assert singularity_type(pair) in ("terminal", "canonical", "klt") and is_log_cy(pair)
        assert index(pair) % p == 0 and log_discrepancy(pair, (0, 0, 1)) > 0

    pairs._psi.cache_clear()
    run(next(iter(boundaries)))
    holders = (fan, fan.cones[0], *(simplex for _, simplex in fan.cones[0].triangulation))
    assert len(holders) == 4
    counts = [len(vars(holder)) for holder in holders]
    _assert_plateau(run, lambda: sum(len(vars(holder)) for holder in holders), _halves(list(boundaries)), sum(counts))
    assert [len(vars(holder)) for holder in holders] == counts
