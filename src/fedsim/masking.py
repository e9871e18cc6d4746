"""One-shot Diffie-Hellman key agreement and cancelling mask schedules.

Clients agree on pairwise common keys once, offline, in the 2048-bit MODP
group 14 of RFC 3526.  Its prime is safe, p = 2q + 1 with q prime, and the
generator 2 has order q.  Secrets are short exponents of ``SECRET_BITS``
bits, inside the 220-320-bit range RFC 3526 section 8 gives for this group:
p - 1 = 2q has no small factor for the short-exponent attacks of van
Oorschot and Wiener to use, and Pollard's lambda method needs about
2^(SECRET_BITS / 2) steps, more than the ~110-bit strength of the group.

Every exponentiation is fixed-base (Yao's method, Brickell, Gordon,
McCurley & Wilson, EUROCRYPT '92; HAC Algorithm 14.109): the base's table
``T[i] = base^(16^i) mod p``, ``i < SECRET_BITS / 4``, turns a power into
about 80 modular multiplications instead of the ~300 of square-and-multiply.
A table costs ``SECRET_BITS - 4`` squarings, about one plain exponentiation,
so it pays only for a base raised more than once.  The generator's table is
a group constant built at import.  Each client builds the table of its own
public value in ``dh_generate`` and sends it with the value, so each of its
n - 1 peers pays only the cheap half.

The peer's table is trusted like the rest of its messages: the simulator
models honest-but-curious clients.  ``dh_common_key`` checks that the table
has the right length and starts with the peer's public value, but not the
entries after that.  A wrong table gives its receiver a key its sender does
not hold, so it breaks only that pair's mask cancellation, which the mask
cancellation acceptance test and the benchmark's report digest check catch.
Against clients that are not honest a forged table could probe digits of
the receiver's secret; such a deployment must build peer tables itself.

``dh_common_key`` also checks its own secret, the peer's public value,
which must lie in (1, p - 1), and the shared value, which must not be 1 or
p - 1, the elements of the only small subgroup (order 2).  The shared value
is hashed to a 256-bit key.

For every later iteration each pair derives an identical mask tensor from
one SHAKE-256 stream of key || iteration, one mask per pair per iteration,
so no further client-client communication is ever needed.  One endpoint
adds the mask, the other subtracts it, and the pair's contribution
vanishes from any aggregate.  A client lifts its signed masks to one exact
matrix and adds their sum once; exact arithmetic is what makes the
cancellation bit-exact rather than approximate.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .exact import ExactMatrix, to_exact

# 2048-bit MODP group 14 from RFC 3526 (safe prime, generator 2), fixed for
# every simulation so no parameter negotiation is needed.
GROUP_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
GROUP_GENERATOR = 2
GROUP_ORDER = (GROUP_PRIME - 1) // 2  # prime order of the quadratic-residue subgroup

#: Bit length bound of a Diffie-Hellman secret: secrets lie in [2, 2**SECRET_BITS).
SECRET_BITS = 256

#: Half-width of the uniform mask range [-MASK_BOUND, MASK_BOUND].
MASK_BOUND = 1e6

_GROUP_BYTES = (GROUP_PRIME.bit_length() + 7) // 8

#: Exponent bits per table entry of a fixed-base power table.
WINDOW_BITS = 4

#: Entries of a fixed-base power table: one per digit of a secret.
TABLE_SIZE = SECRET_BITS // WINDOW_BITS


def power_table(base: int) -> tuple[int, ...]:
    """The fixed-base table ``T[i] = base^(16^i) mod p`` for i < TABLE_SIZE.

    Costs ``SECRET_BITS - WINDOW_BITS`` modular squarings.
    """
    table = [base]
    for _ in range(TABLE_SIZE - 1):
        x = table[-1]
        for _ in range(WINDOW_BITS):
            x = x * x % GROUP_PRIME
        table.append(x)
    return tuple(table)


def fixed_base_pow(powers: tuple[int, ...], exponent: int) -> int:
    """``powers[0]^exponent mod p`` from the base's ``power_table``.

    Writes the exponent in base 16, ``e = sum(e_i * 16^i)``, so the power
    is ``prod(T[i]^e_i) = prod over d of (prod of T[i] with e_i = d)^d``.
    Running products from the top digit down give that with one
    multiplication per nonzero digit and one per digit value: at most
    TABLE_SIZE + 15 modular multiplications.
    """
    if not 0 <= exponent < 1 << (WINDOW_BITS * len(powers)):
        raise ValueError("exponent outside the range of the power table")
    top = (1 << WINDOW_BITS) - 1  # the largest digit
    by_digit: list[list[int]] = [[] for _ in range(top + 1)]
    for i, power in enumerate(powers):
        by_digit[(exponent >> (WINDOW_BITS * i)) & top].append(power)
    acc = result = 1
    for digit in range(top, 0, -1):
        for power in by_digit[digit]:
            acc = acc * power % GROUP_PRIME
        result = result * acc % GROUP_PRIME
    return result


_GENERATOR_POWERS = power_table(GROUP_GENERATOR)


@dataclass(frozen=True)
class DhKeyPair:
    """A Diffie-Hellman secret, its public value g^secret mod p and the
    public value's ``power_table``, which travels with the value to peers.

    ``dh_generate`` always fills ``powers``; only a pair that never sends
    its public value may leave it empty.
    """

    secret: int
    public: int
    powers: tuple[int, ...] = field(default=(), repr=False)


@dataclass(frozen=True)
class CommonKey:
    """256-bit key material shared by an unordered pair of agents."""

    pair: tuple[str, str]
    key_material: bytes

    def __post_init__(self) -> None:
        if len(self.key_material) != 32:
            raise ValueError("key material must be exactly 32 bytes")


@dataclass
class MaskSchedule:
    """An agent's pairwise common keys, fixed after the offline phase."""

    owner: str
    keys: dict[str, CommonKey]

    def key_for(self, peer: str) -> CommonKey:
        try:
            return self.keys[peer]
        except KeyError:
            raise KeyError(
                f"agent {self.owner!r} holds no common key for peer {peer!r}"
            ) from None


def dh_generate(rng: np.random.Generator) -> DhKeyPair:
    """Generate a key pair with the secret uniform over [2, 2**SECRET_BITS),
    and the power table of its public value."""
    while True:
        secret = int.from_bytes(rng.bytes(SECRET_BITS // 8), "big")
        if secret >= 2:
            break
    public = fixed_base_pow(_GENERATOR_POWERS, secret)
    return DhKeyPair(secret=secret, public=public, powers=power_table(public))


def dh_common_key(
    own: DhKeyPair,
    other_public: int,
    pair: tuple[str, str] = ("", ""),
    *,
    powers: tuple[int, ...] = (),
) -> CommonKey:
    """Derive the shared 256-bit key from our secret and a peer's public
    value, exponentiating over ``powers``, the peer's table of its value.

    Symmetric by construction: both endpoints hash the same g^(a*b) mod p.
    Raises ValueError for a secret that is a multiple of q or outside
    [2, 2**SECRET_BITS), a public value outside (1, p-1), a table that is
    not TABLE_SIZE long or does not start with the public value, and a
    degenerate shared value (outside (1, p-1)).
    """
    # The group has order 2q, and only 1 and p-1 have order 1 or 2, so every
    # y in (1, p-1) has order q or 2q.  y^s is 1 or p-1 exactly when
    # y^(2s) = 1, that is when the order of y divides 2s: when q divides s.
    if own.secret % GROUP_ORDER == 0:
        raise ValueError("degenerate shared value: key agreement yields no secret")
    if not 2 <= own.secret < 1 << SECRET_BITS:
        raise ValueError("own secret outside [2, 2**SECRET_BITS)")
    if not 1 < other_public < GROUP_PRIME - 1:
        raise ValueError("peer public value outside the valid group range")
    if len(powers) != TABLE_SIZE:
        raise ValueError(f"peer power table has {len(powers)} entries, not {TABLE_SIZE}")
    if powers[0] != other_public:
        raise ValueError("peer power table does not start with its public value")
    shared = fixed_base_pow(powers, own.secret)
    if not 1 < shared < GROUP_PRIME - 1:
        raise ValueError("degenerate shared value: key agreement yields no secret")
    material = hashlib.sha256(shared.to_bytes(_GROUP_BYTES, "big")).digest()
    return CommonKey(pair=tuple(sorted(pair)), key_material=material)


def mask_tensor(key: CommonKey, iteration: int, shape: tuple[int, ...]) -> np.ndarray:
    """Deterministic mask tensor for one pair and one iteration.

    One call ``shake_256(key || iteration)`` (iteration as 8 big-endian
    bytes) gives element ``e``, in C order, the big-endian 64-bit word ``k``
    at bytes ``8e .. 8e+7``, mapped to ``(2 * (k / 2**64) - 1) * MASK_BOUND``
    in [-MASK_BOUND, MASK_BOUND].  Both endpoints of the pair compute
    bit-identical tensors; distinct iterations give fresh, statistically
    independent tensors.  A pair draws one tensor per iteration.
    """
    if iteration < 1:
        raise ValueError(f"iteration must be >= 1, got {iteration}")
    seed = key.key_material + int(iteration).to_bytes(8, "big")
    stream = hashlib.shake_256(seed).digest(8 * math.prod(shape))
    words = np.frombuffer(stream, dtype=">u8")
    return ((2.0 * (words / 2.0**64) - 1.0) * MASK_BOUND).reshape(shape)


def apply_masks(
    w: np.ndarray | ExactMatrix,
    schedule: MaskSchedule,
    active: list[str],
    iteration: int,
) -> ExactMatrix:
    """Add the owner's signed pairwise masks for the current active set.

    The sign convention is +1 toward peers that sort after the owner and
    -1 toward peers that sort before it, so each mask appears exactly once
    with each sign across the active set and cancels from the sum.  Only
    current pairs contribute; departed clients leave no residue.  ``w``
    may be a float array or an exact matrix; the result is exact.
    """
    if schedule.owner not in active:
        raise ValueError(f"schedule owner {schedule.owner!r} not in the active set")
    masked = to_exact(w)
    peers = [peer for peer in active if peer != schedule.owner]
    if not peers:
        return masked
    stack = to_exact(np.stack([
        (1.0 if schedule.owner < peer else -1.0)
        * mask_tensor(schedule.key_for(peer), iteration, masked.shape)
        for peer in peers
    ]))
    return masked + ExactMatrix(stack.num.sum(axis=0), stack.den)
