"""Tests for key agreement and cancelling mask schedules."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fedsim.dp import DpSpec, SensitivityParams, perturb_weights
from fedsim.exact import to_exact, to_float
from fedsim.masking import (
    GROUP_GENERATOR,
    GROUP_ORDER,
    GROUP_PRIME,
    MASK_BOUND,
    SECRET_BITS,
    CommonKey,
    DhKeyPair,
    MaskSchedule,
    apply_masks,
    dh_common_key,
    dh_generate,
    mask_tensor,
)


def make_schedules(names, seed=0):
    """Full pairwise key agreement for a set of agent names."""
    rng = np.random.default_rng(seed)
    keypairs = {n: dh_generate(rng) for n in names}
    schedules = {}
    for a in names:
        keys = {
            b: dh_common_key(keypairs[a], keypairs[b].public, (a, b))
            for b in names
            if b != a
        }
        schedules[a] = MaskSchedule(owner=a, keys=keys)
    return schedules


class TestGroupConstants:
    def test_prime_size_and_generator(self):
        assert GROUP_PRIME.bit_length() == 2048
        assert GROUP_GENERATOR == 2

    def test_prime_framing(self):
        # the published constant starts and ends with 64 one-bits
        h = format(GROUP_PRIME, "X")
        assert h.startswith("FFFFFFFFFFFFFFFFC90FDAA2")
        assert h.endswith("FFFFFFFFFFFFFFFF")


class TestKeyGeneration:
    def test_public_value_in_group_range(self):
        for seed in range(20):
            pair = dh_generate(np.random.default_rng(seed))
            assert 1 < pair.public < GROUP_PRIME - 1
            assert pow(GROUP_GENERATOR, pair.secret, GROUP_PRIME) == pair.public

    def test_secret_is_a_short_exponent(self):
        assert SECRET_BITS == 256
        for seed in range(50):
            pair = dh_generate(np.random.default_rng(seed))
            assert 2 <= pair.secret < 2**256
            assert pow(2, pair.secret, GROUP_PRIME) == pair.public

    def test_identical_seeds_identical_pairs(self):
        a = dh_generate(np.random.default_rng(123))
        b = dh_generate(np.random.default_rng(123))
        assert a == b

    def test_distinct_seeds_distinct_secrets(self):
        secrets = {dh_generate(np.random.default_rng(s)).secret for s in range(100)}
        assert len(secrets) == 100


class TestCommonKey:
    def test_symmetry_over_many_pairs(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            a, b = dh_generate(rng), dh_generate(rng)
            k_ab = dh_common_key(a, b.public, ("x", "y"))
            k_ba = dh_common_key(b, a.public, ("y", "x"))
            assert k_ab.key_material == k_ba.key_material

    @pytest.mark.parametrize("bad", [0, 1, GROUP_PRIME - 1, GROUP_PRIME, GROUP_PRIME + 5])
    def test_degenerate_public_values_rejected(self, bad):
        own = dh_generate(np.random.default_rng(1))
        with pytest.raises(ValueError):
            dh_common_key(own, bad)

    @pytest.mark.parametrize(
        "other_public",
        [
            # an honest public value has order q, so its q-th power is 1
            dh_generate(np.random.default_rng(6)).public,
            # p - 2 is a non-residue (p = 7 mod 8), so its q-th power is p - 1
            GROUP_PRIME - 2,
        ],
    )
    def test_degenerate_shared_value_rejected(self, other_public):
        own = DhKeyPair(
            secret=GROUP_ORDER,
            public=pow(GROUP_GENERATOR, GROUP_ORDER, GROUP_PRIME),
        )
        assert pow(other_public, own.secret, GROUP_PRIME) in (1, GROUP_PRIME - 1)
        with pytest.raises(ValueError, match="degenerate shared value"):
            dh_common_key(own, other_public)

    def test_key_material_is_256_bits(self):
        own, other = dh_generate(np.random.default_rng(2)), dh_generate(
            np.random.default_rng(3)
        )
        key = dh_common_key(own, other.public)
        assert len(key.key_material) == 32

    def test_pair_is_sorted(self):
        own, other = dh_generate(np.random.default_rng(4)), dh_generate(
            np.random.default_rng(5)
        )
        key = dh_common_key(own, other.public, ("b_agent", "a_agent"))
        assert key.pair == ("a_agent", "b_agent")


class TestMaskTensor:
    def setup_method(self):
        self.key = CommonKey(pair=("a", "b"), key_material=bytes(range(32)))

    def test_pure_function(self):
        m1 = mask_tensor(self.key, 3, (4, 7))
        m2 = mask_tensor(self.key, 3, (4, 7))
        assert np.array_equal(m1, m2)

    def test_iterations_differ(self):
        for iteration in range(1, 101):
            a = mask_tensor(self.key, iteration, (2, 2))
            b = mask_tensor(self.key, iteration + 1, (2, 2))
            assert np.any(a != b)

    def test_shape_contract(self):
        assert mask_tensor(self.key, 1, (2, 3)).shape == (2, 3)
        assert mask_tensor(self.key, 1, (2, 3)).size == 6

    def test_values_within_bound(self):
        m = mask_tensor(self.key, 5, (100,))
        assert np.all(np.abs(m) <= MASK_BOUND)

    def test_iteration_must_be_positive(self):
        with pytest.raises(ValueError):
            mask_tensor(self.key, 0, (2, 2))

    def test_different_keys_different_masks(self):
        other = CommonKey(pair=("a", "c"), key_material=bytes(range(1, 33)))
        assert np.any(mask_tensor(self.key, 1, (3, 3)) != mask_tensor(other, 1, (3, 3)))


def reference_mask(key, iteration, shape):
    """The documented derivation, element by element with Python ints."""
    count = math.prod(shape)
    seed = key.key_material + iteration.to_bytes(8, "big")
    stream = hashlib.shake_256(seed).digest(8 * count)
    values = [
        (2.0 * (int.from_bytes(stream[8 * e : 8 * e + 8], "big") / 2.0**64) - 1.0)
        * MASK_BOUND
        for e in range(count)
    ]
    return np.array(values, dtype=np.float64).reshape(shape)


def reference_apply_masks(w, schedule, active, iteration):
    """One lift and one exact add or subtract per peer mask."""
    masked = to_exact(w)
    for peer in active:
        if peer == schedule.owner:
            continue
        mask = to_exact(mask_tensor(schedule.key_for(peer), iteration, masked.shape))
        masked = masked + mask if schedule.owner < peer else masked - mask
    return masked


class TestMaskDerivation:
    @pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 4), (10, 51), (2, 3, 4)])
    @pytest.mark.parametrize("iteration", [1, 2, 255, 2**40 + 3])
    def test_known_answer_bit_identical(self, shape, iteration):
        for key in (
            CommonKey(pair=("a", "b"), key_material=bytes(range(32))),
            CommonKey(pair=("a", "c"), key_material=hashlib.sha256(b"c").digest()),
        ):
            got = mask_tensor(key, iteration, shape)
            want = reference_mask(key, iteration, shape)
            assert got.dtype == np.float64 and got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestApplyMasks:
    def test_two_client_scalar_cancellation(self):
        names = ["client_agent0", "client_agent1"]
        schedules = make_schedules(names)
        w0, w1 = np.array([[1.0]]), np.array([[2.0]])
        m0 = apply_masks(w0, schedules[names[0]], names, 1)
        m1 = apply_masks(w1, schedules[names[1]], names, 1)
        mask = to_float(m0 - to_exact(w0))
        assert np.array_equal(to_float(m1 - to_exact(w1)), -mask)
        total = m0 + m1
        assert total[0, 0] == 3
        assert float(total[0, 0]) == 3.0

    def test_three_client_cancellation_bit_exact(self):
        names = ["client_agent0", "client_agent1", "client_agent2"]
        schedules = make_schedules(names, seed=9)
        rng = np.random.default_rng(10)
        ws = {n: rng.standard_normal((4, 6)) for n in names}
        masked = [apply_masks(ws[n], schedules[n], names, 2) for n in names]
        total_masked = masked[0] + masked[1] + masked[2]
        total_raw = to_exact(ws[names[0]]) + to_exact(ws[names[1]]) + to_exact(
            ws[names[2]]
        )
        assert np.all(total_masked == total_raw)

    def test_singleton_active_set_returns_weights_unchanged(self):
        names = ["client_agent0", "client_agent1"]
        schedules = make_schedules(names)
        w = np.array([[1.5, -2.5]])
        out = apply_masks(w, schedules[names[0]], [names[0]], 1)
        assert np.array_equal(to_float(out), w)

    def test_missing_key_raises(self):
        schedules = make_schedules(["client_agent0", "client_agent1"])
        with pytest.raises(KeyError):
            apply_masks(
                np.zeros((2, 2)),
                schedules["client_agent0"],
                ["client_agent0", "client_agent1", "client_agent9"],
                1,
            )

    def test_owner_must_be_active(self):
        schedules = make_schedules(["client_agent0", "client_agent1"])
        with pytest.raises(ValueError):
            apply_masks(np.zeros((2, 2)), schedules["client_agent0"], ["client_agent1"], 1)

    def test_dropout_leaves_no_stale_residue(self):
        # cancellation must hold for the shrunken set on the next iteration
        names = [f"client_agent{i}" for i in range(4)]
        schedules = make_schedules(names, seed=20)
        rng = np.random.default_rng(21)
        ws = {n: rng.standard_normal((2, 3)) for n in names}
        survivors = names[:3]
        masked = [apply_masks(ws[n], schedules[n], survivors, 2) for n in survivors]
        total_masked = masked[0] + masked[1] + masked[2]
        total_raw = sum(to_exact(ws[n]) for n in survivors)
        assert np.all(total_masked == total_raw)

    @settings(max_examples=25, deadline=None)
    @given(
        n_active=st.integers(min_value=1, max_value=5),
        rows=st.integers(min_value=1, max_value=3),
        cols=st.integers(min_value=1, max_value=4),
        iteration=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_cancellation_property(self, n_active, rows, cols, iteration, seed):
        names = [f"client_agent{i}" for i in range(5)]
        schedules = _SCHEDULES_FOR_PROPERTY
        active = names[:n_active]
        rng = np.random.default_rng(seed)
        ws = {n: rng.standard_normal((rows, cols)) for n in active}
        masked = [apply_masks(ws[n], schedules[n], active, iteration) for n in active]
        total_masked = masked[0]
        for m in masked[1:]:
            total_masked = total_masked + m
        total_raw = to_exact(ws[active[0]])
        for n in active[1:]:
            total_raw = total_raw + to_exact(ws[n])
        assert np.all(total_masked == total_raw)

    @settings(max_examples=60, deadline=None)
    @given(
        active=st.lists(
            st.sampled_from([f"client_agent{i}" for i in range(5)]),
            min_size=1, max_size=5, unique=True,
        ),
        w=arrays(
            np.float64,
            st.tuples(st.integers(1, 3), st.integers(1, 4)),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        ),
        exact_w=st.booleans(),
        iteration=st.integers(min_value=1, max_value=50),
        data=st.data(),
    )
    @example(
        active=["client_agent3"], w=np.array([[1.5, -2.5]]), exact_w=False,
        iteration=1, data=None,
    )
    @example(
        active=["client_agent2"], w=np.array([[0.25]]), exact_w=True,
        iteration=4, data=None,
    )
    def test_matches_per_peer_reference(self, active, w, exact_w, iteration, data):
        owner = active[0] if data is None else data.draw(st.sampled_from(active))
        if exact_w:
            # a noisy exact matrix, as the engine hands it to apply_masks
            w, _ = perturb_weights(
                w,
                DpSpec("distributed_laplace", 1.0, placement="distributed"),
                SensitivityParams(n=len(active), k=10, alpha=0.1),
                np.random.default_rng(iteration),
            )
        schedule = _SCHEDULES_FOR_PROPERTY[owner]
        got = apply_masks(w, schedule, active, iteration)
        want = reference_apply_masks(w, schedule, active, iteration)
        assert got.shape == want.shape == w.shape
        assert np.all(got == want)


# key agreement is slow enough to share across hypothesis examples
_SCHEDULES_FOR_PROPERTY = make_schedules([f"client_agent{i}" for i in range(5)], seed=42)
