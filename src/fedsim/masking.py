"""Secure aggregation by pairwise masks: key agreement and mask schedules.

``SecureAggregation`` is the whole protocol over the complete graph of
clients, in the shape of Bonawitz et al., *Practical Secure Aggregation*
(CCS 2017, section 4): an offline setup whose messages the engine
delivers, then a pairwise mask on every body a client sends.

Clients agree in the 2048-bit MODP group 14 of RFC 3526.  Its prime is
safe, p = 2q + 1 with q prime, and the generator 2 has order q.  Secrets
are short exponents of ``SECRET_BITS`` bits, inside the 220-320-bit range
RFC 3526 section 8 gives for this group: p - 1 = 2q has no small factor
for the short-exponent attacks of van Oorschot and Wiener to use, and
Pollard's lambda method needs about 2^(SECRET_BITS / 2) steps, more than
the ~110-bit strength of the group.

Every exponentiation is fixed-base (Yao's method, Brickell, Gordon,
McCurley & Wilson, EUROCRYPT '92; HAC Algorithm 14.109): the base's table
``T[i] = base^(16^i) mod p``, ``i < SECRET_BITS / 4``, turns a power into
about 80 modular multiplications instead of the ~300 of square-and-multiply.
A table costs ``SECRET_BITS - 4`` squarings, about one plain exponentiation,
so it pays only for a base raised more than once.  The generator's table is
a group constant built at import.  The table of a peer's public value is
built by the host from the value alone, once per value, in a memo that
``dh_common_key`` shares across the offline phase: n - 1 tables at n
clients, as the value of the first-sorting client is never raised.

Both ends of a pair would hash the same g^(ab), so only one derives it: of
the pair's two names, the end whose name sorts first calls
``dh_common_key`` with its own secret and the peer's value, and the
protocol hands the resulting ``CommonKey`` to the other end.  That halves
the offline phase's exponentiations, n(n - 1)/2 instead of n(n - 1);
every client still sends its public value to every peer.  Each end runs
``dh_check`` on each public value it received (the deriving end through
``dh_common_key``): its own secret must not be a multiple of q and must
lie in [2, 2**SECRET_BITS), and the peer's public value must lie in
(1, p - 1).  The deriving end also refuses a shared value of 1 or p - 1,
the elements of the only small subgroup (order 2).  The shared value is
hashed to a 256-bit key.

For every later iteration each pair derives an identical mask tensor from
one SHAKE-256 stream of key || iteration, one uniform 64-bit word per
element, so no further client-client communication is ever needed.  A
client reads its body's int64 grid integers (see ``exact``) as words of
Z_2^64 and, modulo 2^64, adds the mask toward each peer that sorts after it
and subtracts the one toward each peer that sorts before it.  The masks
cancel from any sum of the bodies bit for bit, and with one honest peer a
masked body is uniform in Z_2^64 whatever it carries: hiding holds for any
weights on the grid.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .exact import GridMatrix, to_exact

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


class ProtocolError(RuntimeError):
    """An agent was driven outside the lifecycle contract."""


@dataclass(frozen=True)
class DhKeyPair:
    """A Diffie-Hellman secret and its public value g^secret mod p."""

    secret: int
    public: int


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
    """Generate a key pair with the secret uniform over [2, 2**SECRET_BITS)."""
    while True:
        secret = int.from_bytes(rng.bytes(SECRET_BITS // 8), "big")
        if secret >= 2:
            break
    return DhKeyPair(secret=secret, public=fixed_base_pow(_GENERATOR_POWERS, secret))


def dh_check(own: DhKeyPair, other_public: int) -> None:
    """Check our side of an agreement with a peer without deriving the key.

    Raises ValueError for a secret that is a multiple of q or outside
    [2, 2**SECRET_BITS) and for a public value outside (1, p-1).
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


def dh_common_key(
    own: DhKeyPair,
    other_public: int,
    pair: tuple[str, str] = ("", ""),
    tables: dict[int, tuple[int, ...]] | None = None,
) -> CommonKey:
    """Derive the shared 256-bit key from our secret and a peer's public value.

    The power is fixed-base over the value's ``power_table``, taken from
    ``tables``, a memo keyed by value, or built into it on first use;
    without a memo the table serves this call alone.  Symmetric by
    construction: both endpoints would hash the same g^(a*b) mod p, so one
    derivation per pair serves both.  Raises ValueError where ``dh_check``
    does and for a degenerate shared value (outside (1, p-1)).
    """
    dh_check(own, other_public)
    tables = {} if tables is None else tables
    powers = tables.get(other_public)
    if powers is None:
        powers = tables[other_public] = power_table(other_public)
    shared = fixed_base_pow(powers, own.secret)
    if not 1 < shared < GROUP_PRIME - 1:
        raise ValueError("degenerate shared value: key agreement yields no secret")
    material = hashlib.sha256(shared.to_bytes(_GROUP_BYTES, "big")).digest()
    return CommonKey(pair=tuple(sorted(pair)), key_material=material)


def mask_tensor(key: CommonKey, iteration: int, shape: tuple[int, ...]) -> np.ndarray:
    """Deterministic uint64 mask tensor for one pair and one iteration.

    One call ``shake_256(key || iteration)`` (iteration as 8 big-endian
    bytes) gives element ``e``, in C order, the big-endian 64-bit word at
    bytes ``8e .. 8e+7``.  Both endpoints of the pair compute identical
    tensors; distinct iterations give fresh, statistically independent
    tensors.  A pair draws one tensor per iteration.
    """
    if iteration < 1:
        raise ValueError(f"iteration must be >= 1, got {iteration}")
    seed = key.key_material + int(iteration).to_bytes(8, "big")
    stream = hashlib.shake_256(seed).digest(8 * math.prod(shape))
    return np.frombuffer(stream, dtype=">u8").astype(np.uint64).reshape(shape)


def apply_masks(
    w: np.ndarray | GridMatrix,
    schedule: MaskSchedule,
    active: list[str],
    iteration: int,
) -> GridMatrix:
    """Add the owner's signed pairwise masks for the current active set.

    ``w`` is a body, a grid matrix of count 1, or a float array lifted by
    ``to_exact``.  Toward a peer that sorts after the owner the mask is
    added, toward one that sorts before it subtracted, modulo 2^64, so
    each mask appears once with each sign across the active set and
    cancels from the sum; departed clients leave no residue.  Returns the
    masked words read as int64, a body of count 1.
    """
    if schedule.owner not in active:
        raise ValueError(f"schedule owner {schedule.owner!r} not in the active set")
    body = to_exact(w)
    if body.count != 1:
        raise ValueError(f"only a body of count 1 is masked, not count {body.count}")
    peers = [peer for peer in active if peer != schedule.owner]
    if not peers:
        return body
    words = body.total.view(np.uint64).copy()
    for peer in peers:
        mask = mask_tensor(schedule.key_for(peer), iteration, words.shape)
        if schedule.owner < peer:
            words += mask
        else:
            words -= mask
    return GridMatrix(words.view(np.int64))


class SecureAggregation:
    """Pairwise-mask secure aggregation for the clients named in ``seeds``.

    Offline, each client ``advertise``s its public value, the engine hands
    every delivered ``public_key`` envelope to ``receive``, and each client
    ``agree``s, in name order; ``schedules`` then holds its mask schedule.
    A client's key pair is drawn, in ``advertise``, from the third child
    stream of its seed (the client spawns the first two).
    """

    def __init__(self, seeds: Mapping[str, int]):
        self.names = sorted(seeds)
        self._seeds = dict(seeds)
        self._keypairs: dict[str, DhKeyPair] = {}
        self._received: dict[str, dict[str, int]] = {name: {} for name in self.names}
        self._handed: dict[str, dict[str, CommonKey]] = {name: {} for name in self.names}
        self._tables: dict[int, tuple[int, ...]] = {}
        self.schedules: dict[str, MaskSchedule] = {}

    def advertise(self, client: str) -> tuple[dict[str, Any], list[str]]:
        """Generate ``client``'s key pair; return its ``public_key`` body,
        which carries the public value only, and the peers to send it to."""
        if client in self._keypairs or client in self.schedules:
            raise ProtocolError(f"{client} already advertised its public value")
        key_stream = np.random.SeedSequence(self._seeds[client], spawn_key=(2,))
        keypair = self._keypairs[client] = dh_generate(np.random.default_rng(key_stream))
        peers = [peer for peer in self.names if peer != client]
        return {"kind": "public_key", "value": keypair.public}, peers

    def receive(self, env: Any) -> None:
        """Hold a delivered ``public_key`` envelope's value for its recipient."""
        received = self._received[env.recipient]
        if env.sender in received:
            raise ProtocolError(f"{env.recipient} got a duplicate public key from {env.sender!r}")
        received[env.sender] = env.body["value"]

    def agree(self, client: str) -> None:
        """Fix ``client``'s common key with every peer, then drop its key
        pair and the peers' values (and, after the last client, the tables).

        ``client`` derives the keys of the peers that sort after it and
        hands them over; it takes the keys handed by the peers that sort
        before it, each naming exactly that pair, and checks their values.
        """
        keypair = self._keypairs.pop(client, None)
        if keypair is None:
            raise ProtocolError(f"{client} has no key pair")
        received, handed = self._received.pop(client), self._handed.pop(client)
        missing = set(self.names) - {client} - set(received)
        if missing:
            raise ProtocolError(f"{client} is missing public keys from {sorted(missing)}")
        earlier = sorted(peer for peer in received if peer < client)
        if sorted(handed) != earlier:
            raise ProtocolError(
                f"{client} was handed common keys for {sorted(handed)}, not {earlier}"
            )
        keys = {}
        for peer, public in received.items():
            if peer < client:
                dh_check(keypair, public)
                keys[peer] = handed[peer]
                if keys[peer].pair != (peer, client):
                    raise ProtocolError(
                        f"{client} was handed a common key for {keys[peer].pair}, "
                        f"not {(peer, client)}"
                    )
            else:
                keys[peer] = dh_common_key(keypair, public, (client, peer), self._tables)
                self._handed[peer][client] = keys[peer]
        self.schedules[client] = MaskSchedule(owner=client, keys=keys)
        if not self._keypairs:
            self._tables = {}

    def mask(self, client: str, body: GridMatrix, view: list[str], iteration: int) -> GridMatrix:
        """``client``'s body with its signed pairwise masks toward the other
        clients of its active ``view`` (see ``apply_masks``)."""
        schedule = self.schedules.get(client)
        if schedule is None:
            raise ProtocolError(f"{client} has no mask schedule for iteration {iteration}")
        return apply_masks(body, schedule, view, iteration)
