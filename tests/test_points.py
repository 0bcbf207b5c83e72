import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from kernelkit import points
from kernelkit.points import (
    Box,
    Disc,
    PointSet,
    generate_points,
    halton_sequence,
    pairwise_distances,
    philox_generator,
    philox_uniforms,
    tensor_grid,
)

UNIT_INTERVAL = Box((0.0,), (1.0,))
UNIT_SQUARE = Box((0.0, 0.0), (1.0, 1.0))


class TestDomains:
    def test_box_validation(self):
        with pytest.raises(ValueError):
            Box((0.0, 0.0), (1.0,))
        with pytest.raises(ValueError):
            Box((0.0,), (0.0,))

    def test_box_contains_and_volume(self):
        box = Box((0.25, 0.25), (0.75, 0.75))
        assert box.volume == pytest.approx(0.25)
        inside = box.contains(np.array([[0.5, 0.5], [0.2, 0.5]]))
        assert inside.tolist() == [True, False]

    def test_disc_contains(self):
        disc = Disc(center=(0.0, 0.0), radius=1.0)
        inside = disc.contains(np.array([[0.5, 0.5], [0.9, 0.9]]))
        assert inside.tolist() == [True, False]
        with pytest.raises(ValueError):
            Disc(center=(0.0, 0.0), radius=0.0)


class TestHalton:
    def test_first_points_base_two(self):
        seq = halton_sequence(4, 1)
        assert seq[:, 0].tolist() == [0.5, 0.25, 0.75, 0.125]

    def test_pairwise_distinct(self):
        seq = halton_sequence(500, 2)
        assert len(np.unique(seq, axis=0)) == 500

    @pytest.mark.parametrize("dim", range(1, 7))
    @pytest.mark.parametrize("start", [1, 2, 7, 64, 513, 1000])
    def test_matches_the_scalar_radical_inverse_bit_for_bit(self, dim, start):
        # The scalar reference: each index's radical inverse on its own,
        # its digits summed lowest first.
        def radical_inverse(index, base):
            inverse, scale = 0.0, 1.0
            while index > 0:
                scale /= base
                inverse += scale * (index % base)
                index //= base
            return inverse

        primes = (2, 3, 5, 7, 11, 13)
        for count in (1, 2, 3, 100, 3000):
            indices = range(start, start + count)
            reference = np.array([[radical_inverse(i, p) for p in primes[:dim]] for i in indices])
            assert halton_sequence(count, dim, start).tobytes() == reference.tobytes()


class TestPointSet:
    def test_rejects_points_outside_domain(self):
        with pytest.raises(ValueError):
            PointSet(points=np.array([[1.5]]), domain=UNIT_INTERVAL)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            PointSet(points=np.array([[0.5], [0.5]]), domain=UNIT_INTERVAL)

    @pytest.mark.parametrize(
        "rows",
        [
            [[0.0], [-0.0]],
            [[0.5, 0.0], [0.25, 0.5], [0.5, -0.0]],
            [[0.25, 0.75], [0.25, 0.75]],
        ],
    )
    def test_rejects_duplicates_including_signed_zeros(self, rows):
        domain = Box((-1.0,) * len(rows[0]), (1.0,) * len(rows[0]))
        with pytest.raises(ValueError, match="distinct"):
            PointSet(points=np.array(rows), domain=domain)

    def test_accepts_non_contiguous_points(self):
        pts = np.asfortranarray([[0.0, 0.5], [0.5, 0.0], [1.0, 1.0]])
        ps = PointSet(points=pts, domain=UNIT_SQUARE)
        assert ps.min_separation == pytest.approx(math.sqrt(0.5))

    def test_min_separation(self):
        ps = PointSet(points=np.array([[0.0], [0.25], [1.0]]), domain=UNIT_INTERVAL)
        assert ps.min_separation == pytest.approx(0.25)

    @pytest.mark.parametrize("counts", [(5, 7), (9, 1, 4), (1, 1), (3,)])
    def test_product_derives_what_a_full_check_computes(self, counts):
        domains = [UNIT_INTERVAL, Box((0.0, -1.0), (2.0, 1.0)), Box((-0.5,), (0.5,))]
        factors = [generate_points(d, c) for d, c in zip(domains, counts)]
        grid = PointSet.product(factors)
        checked = PointSet(points=tensor_grid([f.points for f in factors]), domain=grid.domain)
        assert np.array_equal(grid.points, checked.points)
        assert len(grid.factors) == len(factors)
        assert all(kept is f for kept, f in zip(grid.factors, factors))
        assert checked.factors == ()
        assert not grid.points.flags.writeable
        assert np.all(grid.domain.contains(grid.points))
        assert grid.min_separation == checked.min_separation


class TestGeneratePoints:
    def test_single_point_is_deterministic(self):
        a = generate_points(UNIT_INTERVAL, 1)
        b = generate_points(UNIT_INTERVAL, 1)
        assert np.array_equal(a.points, b.points)
        assert len(a) == 1

    @pytest.mark.parametrize("domain", [UNIT_INTERVAL, UNIT_SQUARE])
    def test_nested_prefixes(self, domain):
        small = generate_points(domain, 7)
        large = generate_points(domain, 40)
        assert np.array_equal(small.points, large.points[:7])

    def test_box_is_mapped_affinely(self):
        box = Box((2.0,), (4.0,))
        pts = generate_points(box, 20).points
        assert np.all((pts >= 2.0) & (pts <= 4.0))

    def test_disc_points_inside_and_nested(self):
        disc = Disc(center=(0.0, 0.0), radius=1.0)
        small = generate_points(disc, 30)
        large = generate_points(disc, 90)
        assert np.all(np.linalg.norm(small.points, axis=1) <= 1.0 + 1e-12)
        assert np.array_equal(small.points, large.points[:30])

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            generate_points(UNIT_INTERVAL, 0)

    @pytest.mark.parametrize(
        "domain", [UNIT_SQUARE, Disc(center=(0.0, 0.0), radius=1.0)]
    )
    def test_prefixes_are_shared_and_read_only(self, domain):
        from kernelkit.kernels import MaternKernel
        from kernelkit.uq import interpolation_factor

        shared = generate_points(domain, 12)
        # Equal domains built apart share one set, so every pipeline does.
        rebuilt = type(domain)(**vars(domain))
        assert generate_points(rebuilt, 12) is shared
        factor = interpolation_factor(MaternKernel(beta=2.0, dim=2), rebuilt)
        assert factor.points(12) is shared
        assert not shared.points.flags.writeable
        with pytest.raises(ValueError):
            shared.points[0, 0] = 0.5


class TestPairwiseDistances:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_matches_cdist_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        for scale in (1e-3, 1.0, 37.0):
            x = rng.standard_normal((41, dim)) * scale
            y = rng.uniform(-1.0, 1.0, (29, dim))
            assert pairwise_distances(x, y).tobytes() == cdist(x, y).tobytes()
            assert pairwise_distances(x, x).tobytes() == cdist(x, x).tobytes()

    def test_rejects_mismatched_dimensions(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros((3, 2)), np.zeros((3, 3)))


class TestPhilox:
    def test_philox_generator_is_a_pure_function_of_its_key(self):
        first = philox_generator(11, 2, draw=5).standard_normal(8)
        philox_generator(11, 2, draw=4).standard_normal(1000)
        assert np.array_equal(philox_generator(11, 2, draw=5).standard_normal(8), first)
        for other in ((12, 2, 5), (11, 3, 5), (11, 2, 6)):
            assert not np.array_equal(philox_generator(*other).standard_normal(8), first)

    @pytest.mark.parametrize("seed", [0, 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("stream", [0, 101])
    def test_philox_uniforms_are_the_generators_bit_for_bit(self, seed, stream):
        # Consecutive takes of lengths that are not multiples of 4, so they
        # start and end inside a counter's block of four words, and one take
        # across two chunk boundaries.
        generator = philox_generator(seed, stream)
        start = 0
        chunk = 4 * points._PHILOX_CHUNK
        for shape in [(3,), (5, 2), (1,), (0,), (7, 3), (4,), (2 * chunk + 1,), (6,)]:
            expected = generator.random(shape)
            got = philox_uniforms(seed, stream, start, shape)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
            start += expected.size

    def test_philox_uniforms_keep_temporaries_small(self):
        # 2**16 points, the most a study admits, in 8 dimensions: the
        # blocks are computed a chunk at a time, so the peak stays near the
        # 4 MiB output (all blocks at once peaked at 33 MiB).
        tracemalloc.start()
        try:
            values = philox_uniforms(0, 101, 1, (2**16, 8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < values.nbytes + 2**20

    def test_seeds_above_2_63_key_their_own_streams(self):
        # Their keys are exact uint64 words, not rounded through float64,
        # and the largest admitted seed keys its own stream without a
        # warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            top = philox_generator(2**64 - 1, 0).random(4)
            assert not np.array_equal(top, philox_generator(0, 0).random(4))
            assert np.array_equal(philox_uniforms(2**64 - 1, 0, 0, (4,)), top)
            for make in (lambda s: philox_generator(s, 101).random(4),
                         lambda s: philox_uniforms(s, 101, 0, (4,))):
                assert not np.array_equal(make(2**63), make(2**63 + 1))
