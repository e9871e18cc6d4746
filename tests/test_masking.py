"""Tests for key agreement and cancelling mask schedules."""

import gc
import hashlib
import math
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

import fedsim.masking as masking_module
from conftest import make_simulation, make_skewed_dropout_simulation
from fedsim.config import build_inputs, load_config
from fedsim.dp import Calibration, perturb_weights
from fedsim.engine import Simulation, SimulationError
from fedsim.exact import GRID_BITS, to_exact, to_float
from fedsim.masking import (
    GROUP_GENERATOR,
    GROUP_ORDER,
    GROUP_PRIME,
    SECRET_BITS,
    TABLE_SIZE,
    CommonKey,
    DhKeyPair,
    MaskSchedule,
    ProtocolError,
    SecureAggregation,
    apply_masks,
    dh_common_key,
    dh_generate,
    fixed_base_pow,
    mask_tensor,
    power_table,
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

    def test_power_table_of_the_public_value(self):
        pair = dh_generate(np.random.default_rng(8))
        powers = power_table(pair.public)
        assert len(powers) == TABLE_SIZE == SECRET_BITS // 4
        for i, power in enumerate(powers):
            assert power == pow(pair.public, 16**i, GROUP_PRIME)

    def test_identical_seeds_identical_pairs(self):
        a = dh_generate(np.random.default_rng(123))
        b = dh_generate(np.random.default_rng(123))
        assert a == b

    def test_distinct_seeds_distinct_secrets(self):
        secrets = {dh_generate(np.random.default_rng(s)).secret for s in range(100)}
        assert len(secrets) == 100


# exponents the digit-bucketing routine handles at its edges: all digits
# zero or fifteen, one nonzero digit, and a few scattered bits
_EXPONENTS = st.one_of(
    st.sampled_from([0, 1, 2**SECRET_BITS - 1]),
    st.builds(
        lambda digit, place: digit << (4 * place),
        st.integers(1, 15),
        st.integers(0, TABLE_SIZE - 1),
    ),
    st.sets(st.integers(0, SECRET_BITS - 1), max_size=4).map(
        lambda bits: sum(1 << b for b in bits)
    ),
    st.integers(0, 2**SECRET_BITS - 1),
)


class TestFixedBasePow:
    @settings(max_examples=40, deadline=None)
    @given(
        base=st.integers(2, GROUP_PRIME - 2),
        exponents=st.lists(_EXPONENTS, min_size=1, max_size=4),
    )
    @example(base=GROUP_GENERATOR, exponents=[0, 1, 2**SECRET_BITS - 1, 15 << 252])
    @example(base=GROUP_PRIME - 2, exponents=[2, 2**SECRET_BITS - 2])
    def test_equals_pow(self, base, exponents):
        powers = power_table(base)
        for exponent in exponents:
            assert fixed_base_pow(powers, exponent) == pow(base, exponent, GROUP_PRIME)

    @pytest.mark.parametrize("exponent", [-1, 2**SECRET_BITS])
    def test_exponent_outside_table_rejected(self, exponent):
        with pytest.raises(ValueError, match="outside the range"):
            fixed_base_pow(power_table(GROUP_GENERATOR), exponent)


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

    @pytest.mark.parametrize("secret", [1, 2**SECRET_BITS])
    def test_secret_outside_range_rejected(self, secret):
        own = DhKeyPair(secret=secret, public=pow(GROUP_GENERATOR, secret, GROUP_PRIME))
        other = dh_generate(np.random.default_rng(6))
        with pytest.raises(ValueError, match="secret outside"):
            dh_common_key(own, other.public)

    def test_key_material_equals_pow_oracle(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            own, other = dh_generate(rng), dh_generate(rng)
            shared = pow(other.public, own.secret, GROUP_PRIME)
            expected = hashlib.sha256(shared.to_bytes(256, "big")).digest()
            key = dh_common_key(own, other.public)
            assert key.key_material == expected

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


# SHA-256 over the pairs a < b in name order of a || 0 || b || 0 || the pair's
# key material, after the offline phase of a shipped config.  Masks cancel,
# so the report hashes cannot see a changed key; this pins the keys, and
# with mask_tensor's known answers every mask.
KEY_DIGESTS = {
    "example.json": "409cf2b25944a8915ca8c6efa92b7757b0251f00a395a991c4ab6553d2a2a4cb",
    "serverless_latency.json": "6ae8466eb33fd29449a5dc5cef70f1d72d7e54bd5a82bef544deceb60ad0ff4b",
}


@pytest.mark.parametrize("name", sorted(KEY_DIGESTS))
def test_key_digest_of_shipped_config(name):
    path = Path(__file__).resolve().parent.parent / "configs" / name
    config = load_config(path)
    sim = Simulation(config, *build_inputs(config, base_dir=path.parent))
    sim.offline_phase()
    digest = hashlib.sha256()
    names = sorted(sim.client_names)
    for a in names:
        for b in names:
            if a < b:
                material = sim.secagg.schedules[a].key_for(b).key_material
                digest.update(a.encode() + b"\0" + b.encode() + b"\0" + material)
    assert digest.hexdigest() == KEY_DIGESTS[name]


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

    def test_words_span_z_2_64(self):
        m = mask_tensor(self.key, 5, (1000,))
        assert m.dtype == np.uint64
        # the top and the bottom of the range are both reached
        assert int(m.max()) >= 2**64 - 2**60 and int(m.min()) < 2**60

    def test_iteration_must_be_positive(self):
        with pytest.raises(ValueError):
            mask_tensor(self.key, 0, (2, 2))

    def test_different_keys_different_masks(self):
        other = CommonKey(pair=("a", "c"), key_material=bytes(range(1, 33)))
        assert np.any(mask_tensor(self.key, 1, (3, 3)) != mask_tensor(other, 1, (3, 3)))


def reference_mask(key, iteration, shape):
    """The documented derivation, element by element, as Python ints."""
    count = math.prod(shape)
    seed = key.key_material + iteration.to_bytes(8, "big")
    stream = hashlib.shake_256(seed).digest(8 * count)
    return [int.from_bytes(stream[8 * e : 8 * e + 8], "big") for e in range(count)]


def reference_apply_masks(w, schedule, active, iteration):
    """The body's grid integers, each peer's words added or subtracted
    modulo 2^64 one at a time, read back as signed Python ints."""
    body = to_exact(w)
    words = [int(q) % 2**64 for q in body.total.ravel()]
    for peer in active:
        if peer == schedule.owner:
            continue
        mask = reference_mask(schedule.key_for(peer), iteration, body.shape)
        sign = 1 if schedule.owner < peer else -1
        words = [(v + sign * m) % 2**64 for v, m in zip(words, mask)]
    return [v - 2**64 if v >= 2**63 else v for v in words]


class TestMaskDerivation:
    @pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 4), (10, 51), (2, 3, 4)])
    @pytest.mark.parametrize("iteration", [1, 2, 255, 2**40 + 3])
    def test_known_answer_bit_identical(self, shape, iteration):
        for key in (
            CommonKey(pair=("a", "b"), key_material=bytes(range(32))),
            CommonKey(pair=("a", "c"), key_material=hashlib.sha256(b"c").digest()),
        ):
            got = mask_tensor(key, iteration, shape)
            assert got.dtype == np.uint64 and got.shape == shape
            assert [int(v) for v in got.ravel()] == reference_mask(key, iteration, shape)


class TestApplyMasks:
    def test_two_client_scalar_cancellation(self):
        names = ["client_agent0", "client_agent1"]
        schedules = make_schedules(names)
        w0, w1 = np.array([[1.0]]), np.array([[2.0]])
        m0 = apply_masks(w0, schedules[names[0]], names, 1)
        m1 = apply_masks(w1, schedules[names[1]], names, 1)
        # the owner that sorts first adds the pair's word, the other subtracts it
        (word,) = reference_mask(schedules[names[0]].key_for(names[1]), 1, (1, 1))
        assert int(m0.total[0, 0]) % 2**64 == (2**GRID_BITS + word) % 2**64
        assert int(m1.total[0, 0]) % 2**64 == (2 * 2**GRID_BITS - word) % 2**64
        total = m0 + m1
        assert total.count == 1 and int(total.total[0, 0]) == 3 * 2**GRID_BITS
        assert np.array_equal(to_float(total), [[3.0]])

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
            elements=st.floats(-(2.0**30), 2.0**30),
        ),        exact_w=st.booleans(),
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
                Calibration("distributed_laplace", 1.0, 0.0, n=len(active), k=10, alpha=0.1),
                np.random.default_rng(iteration),
            )
        schedule = _SCHEDULES_FOR_PROPERTY[owner]
        got = apply_masks(w, schedule, active, iteration)
        want = reference_apply_masks(w, schedule, active, iteration)
        assert got.shape == w.shape and got.count == 1 and got.total.dtype == np.int64
        assert [int(v) for v in got.total.ravel()] == want


# key agreement is slow enough to share across hypothesis examples
_SCHEDULES_FOR_PROPERTY = make_schedules([f"client_agent{i}" for i in range(5)], seed=42)


class TestHiding:
    """A masked body is uniform in Z_2^64 elementwise, whatever grid values
    it carries."""

    PEERS = ["client_agent0", "client_agent1"]

    def _masked(self, w, iteration=1):
        return apply_masks(w, _SCHEDULES_FOR_PROPERTY[self.PEERS[0]], self.PEERS, iteration)

    def test_bits_below_the_mask_grain_do_not_survive(self):
        # Float masks in [-1e6, 1e6], added exactly, had a grain of 2^-33 or
        # finer, so w + m kept w modulo 2^-33 wherever m was a multiple of
        # 2^-33: about two thirds of a 10 x 51 matrix.  The same words are
        # used for that earlier mapping here.
        w = np.random.default_rng(3).standard_normal((10, 51))
        words = mask_tensor(_SCHEDULES_FOR_PROPERTY[self.PEERS[0]].key_for(self.PEERS[1]), 1, w.shape)
        float_masks = (2.0 * (words / 2.0**64) - 1.0) * 1e6
        grain = 2.0**-33
        kept = np.mean(np.fmod(float_masks, grain) == 0)
        assert 0.6 < kept < 0.75
        # Now the body carries no bits below 2^-32 at all, so the masked
        # value matches w modulo 2^-33 only where w sits on that grid.
        masked = self._masked(w).total.ravel()
        unit, grain = Fraction(1, 2**GRID_BITS), Fraction(grain)
        same = [(int(q) * unit - Fraction(v)) % grain == 0 for q, v in zip(masked, w.ravel())]
        on_grain = [Fraction(v) % grain == 0 for v in w.ravel()]
        assert sum(same) == sum(on_grain) == 0

    @pytest.mark.parametrize("bits", [1, 2, 8, 16])
    def test_low_grid_bits_match_w_at_chance(self, bits):
        # for w on the grid, the masked words agree with w's grid integers
        # modulo 2^bits about as often as uniform words would
        q = to_exact(np.random.default_rng(4).standard_normal((10, 51)))
        masked = self._masked(q)
        same = (masked.total.view(np.uint64) - q.total.view(np.uint64)) % np.uint64(2**bits) == 0
        assert stats.binomtest(int(same.sum()), same.size, 2.0**-bits).pvalue > 1e-3

    @pytest.mark.parametrize("value", [0.75, -3.0, 0.0])
    def test_top_byte_is_uniform_for_a_fixed_w(self, value):
        w = to_exact(np.full((10, 51), value))
        top = np.concatenate([
            (self._masked(w, iteration).total.view(np.uint64) >> np.uint64(56)).ravel()
            for iteration in range(1, 21)
        ])
        counts = np.bincount(top.astype(np.int64), minlength=256)
        assert stats.chisquare(counts).pvalue > 0.01
        # unmasked, the top byte of a fixed w is one value: the test has power
        unmasked = np.bincount((w.total.view(np.uint64) >> np.uint64(56)).ravel().astype(np.int64), minlength=256)
        assert stats.chisquare(np.tile(unmasked, 20)).pvalue < 1e-6


def secure_simulation(n, **overrides):
    """An n-client simulation with security on, before its offline phase."""
    base = dict(
        use_security=True, num_clients=n, epsilons=[None] * n,
        seeds=[11 * (i + 1) for i in range(n)], dataset_sizes=[[20, 20, 20]] * n,
    )
    return make_simulation(**{**base, **overrides})


def distributed_dp(n):
    return dict(
        use_dp_privacy=True, mechanism="distributed_laplace", dp_placement="distributed",
        epsilons=[1.0] * n,
    )


def spy_expansions(monkeypatch):
    """Record the pair and iteration of every mask expanded from now on."""
    expanded = []
    expand = masking_module.mask_tensor

    def spy(key, iteration, shape):
        expanded.append((key.pair, iteration))
        return expand(key, iteration, shape)

    monkeypatch.setattr(masking_module, "mask_tensor", spy)
    return expanded


def spy_masked_bodies(monkeypatch):
    """Record the client, body, view, iteration and result of every mask
    the protocol applies from now on."""
    seen = []
    mask = SecureAggregation.mask

    def spy(self, client, body, view, iteration):
        masked = mask(self, client, body, view, iteration)
        seen.append((client, body, list(view), iteration, masked))
        return masked

    monkeypatch.setattr(SecureAggregation, "mask", spy)
    return seen


def assert_per_end(sim, seen):
    """Each masked body equals the one its end makes expanding its own masks."""
    for client, body, view, iteration, masked in seen:
        want = reference_apply_masks(body, sim.secagg.schedules[client], view, iteration)
        assert [int(v) for v in masked.total.ravel()] == want


class TestRoundMasks:
    """Within a round the host expands each pair's mask once, and every
    masked body is still the one its end would have made alone."""

    @pytest.mark.parametrize("topology", ["centralized", "serverless"])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_each_pair_expanded_once_per_round(self, monkeypatch, n, topology):
        sim = secure_simulation(n, topology=topology)
        sim.offline_phase()
        names = sim.client_names
        expanded = spy_expansions(monkeypatch)
        for iteration in (1, 2):
            expanded.clear()
            sim.run_round(iteration)
            pairs = [(a, b) for a in names for b in names if a < b]
            assert len(expanded) == n * (n - 1) // 2
            assert sorted(expanded) == [(pair, iteration) for pair in pairs]

    @pytest.mark.parametrize("topology", ["centralized", "serverless"])
    def test_each_pair_expanded_once_after_a_dropout(self, monkeypatch, topology):
        sim = make_skewed_dropout_simulation(topology, use_security=True)
        sim.offline_phase()
        assert sim.run_round(1).dropouts == ["client_agent2"]
        expanded = spy_expansions(monkeypatch)
        sim.run_round(2)
        assert expanded == [(("client_agent0", "client_agent1"), 2)]

    @pytest.mark.parametrize("topology", ["centralized", "serverless"])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_masked_bodies_equal_the_per_end_reference(self, monkeypatch, n, topology):
        sim = secure_simulation(n, topology=topology, **distributed_dp(n))
        sim.offline_phase()
        seen = spy_masked_bodies(monkeypatch)
        for iteration in (1, 2):
            sim.run_round(iteration)
        assert len(seen) == 2 * n
        assert_per_end(sim, seen)

    def test_masked_bodies_equal_the_per_end_reference_after_a_dropout(self, monkeypatch):
        sim = make_skewed_dropout_simulation(use_security=True)
        sim.offline_phase()
        seen = spy_masked_bodies(monkeypatch)
        sim.run_round(1)
        sim.run_round(2)
        assert [(c, len(view), it) for c, _, view, it, _ in seen] == [
            ("client_agent0", 3, 1), ("client_agent1", 3, 1), ("client_agent2", 3, 1),
            ("client_agent0", 2, 2), ("client_agent1", 2, 2),
        ]
        assert_per_end(sim, seen)

    @staticmethod
    def _track(monkeypatch):
        """Weak references to every expanded mask and every pending sum, and
        the round stores the masks went through."""
        refs, stores = [], []
        expand, apply = masking_module.mask_tensor, masking_module.apply_masks

        def spy_expand(key, iteration, shape):
            mask = expand(key, iteration, shape)
            refs.append(weakref.ref(mask))
            return mask

        def spy_apply(w, schedule, active, iteration, masks=None):
            stores.append(masks)
            try:
                return apply(w, schedule, active, iteration, masks)
            finally:
                refs.extend(weakref.ref(pending) for pending in masks.pending.values())

        monkeypatch.setattr(masking_module, "mask_tensor", spy_expand)
        monkeypatch.setattr(masking_module, "apply_masks", spy_apply)
        return refs, stores

    def test_no_mask_outlives_a_round(self, monkeypatch):
        sim = secure_simulation(5)
        sim.offline_phase()
        refs, stores = self._track(monkeypatch)
        sim.run_round(1)
        gc.collect()
        assert len(refs) == 10 + 4 + 3 + 2 + 1  # the masks, then the pending sums
        assert all(ref() is None for ref in refs)
        assert len(stores) == 5 and len({id(s) for s in stores}) == 1
        assert stores[0].pending == {} and stores[0].views == {}
        assert sim.secagg._round is None

    def test_no_mask_outlives_a_failed_round(self, monkeypatch):
        sim = secure_simulation(5)
        sim.offline_phase()
        refs, stores = self._track(monkeypatch)
        expand, expanded = masking_module.mask_tensor, []

        def fail_sixth(key, iteration, shape):
            # client_agent0 expands 4 masks, client_agent1 fails on its second
            expanded.append(key.pair)
            if len(expanded) == 6:
                raise RuntimeError("expansion failed")
            return expand(key, iteration, shape)

        monkeypatch.setattr(masking_module, "mask_tensor", fail_sixth)
        with pytest.raises(SimulationError, match="client_agent1.*iteration 1: expansion failed"):
            sim.run_round(1)
        gc.collect()
        # 5 masks, client_agent0's 4 pending sums, then the 3 left at the failure
        assert len(refs) == 5 + 4 + 3
        assert all(ref() is None for ref in refs)
        assert stores[-1].pending == {} and stores[-1].views == {}
        assert sim.secagg._round is None


class TestDisagreeingViews:
    """A round in which two clients disagree on whether they mask toward
    each other would leave a mask uncancelled in the aggregate: refused."""

    @pytest.mark.parametrize("topology", ["centralized", "serverless"])
    @pytest.mark.parametrize("holder, dropped, message", [
        ("client_agent0", "client_agent2",
         "client_agent2 masks toward client_agent0, but the active view of "
         "client_agent0 lacks client_agent2"),
        ("client_agent2", "client_agent0",
         "client_agent0 masks toward client_agent2, but the active view of "
         "client_agent2 lacks client_agent0"),
        ("client_agent1", "client_agent2",
         "client_agent2 masks toward client_agent1, but the active view of "
         "client_agent1 lacks client_agent2"),
    ])
    def test_peer_missing_from_one_view(self, topology, holder, dropped, message):
        # before the round refused, client_agent0 dropping client_agent2 was
        # accepted with federated |w| up to 7.1e8 and accuracy 0.3
        sim = secure_simulation(3, topology=topology)
        sim.offline_phase()
        view = [c for c in sim.client_names if c != dropped]
        sim.directory[holder].sync_active_view(view)
        with pytest.raises(ProtocolError, match=f"iteration 1: {message}"):
            sim.run_round(1)
        assert sim.secagg._round is None

    def test_mask_toward_a_client_outside_the_round(self):
        # every view still holds client_agent2, which sends nothing
        sim = secure_simulation(3)
        sim.offline_phase()
        sim.active = ["client_agent0", "client_agent1"]
        with pytest.raises(
            ProtocolError,
            match="iteration 1: client_agent0 masks toward client_agent2, which masked no body",
        ):
            sim.run_round(1)
        assert sim.secagg._round is None

    def test_second_mask_in_one_round(self):
        names = ["client_agent0", "client_agent1"]
        masks = masking_module.RoundMasks(1)
        apply_masks(np.zeros((2, 2)), _SCHEDULES_FOR_PROPERTY[names[0]], names, 1, masks)
        with pytest.raises(ProtocolError, match="client_agent0 already masked iteration 1"):
            apply_masks(np.zeros((2, 2)), _SCHEDULES_FOR_PROPERTY[names[0]], names, 1, masks)
