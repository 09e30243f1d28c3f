"""The hybrid locked PUF (HLPUF): quantum encoding of classical responses and the lock.

The device evaluates its classical PUF once per challenge and encodes the
response bits block-by-block into non-orthogonal states; the response splits
into two halves (first/second). The lock releases the second half only after
verifying incoming first-half states by measuring each block in the basis
dictated by its own response bits; any failure yields the distinguished abort
value ABORT and releases nothing.

A half has two forms: its bits, which only the device and the server's CRP
database hold, and on the wire a list of fresh block states.

Block layout: a block of ``bits_per_block`` bits is value bits first (most
significant first), then basis bits selecting one of the scheme's bases.
With 2^b basis bits addressing a family of 2^b + 1 bases, the last basis is
never emitted by devices; attacks may still assume the full-family prior.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import qstate
from .cpuf import CpufModel


class _AbortType:
    """Singleton abort/garbage output of the lock on failed verification."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ABORT"

    def __bool__(self):
        return False


ABORT = _AbortType()


@dataclass(frozen=True)
class EncodingScheme:
    """How classical bits map to block states; ``family()`` gives the block bases."""

    kind: str
    bits_per_block: int
    qubits_per_block: int
    block_dim: int
    value_bits: int
    basis_bits: int
    family: Callable[[], qstate.MubFamily] = field(repr=False)

    @property
    def bases_used(self) -> int:
        return 2 ** self.basis_bits

    @cached_property
    def _place_values(self) -> np.ndarray:
        """(bits_per_block, 2) weights: a block's bits @ this = its (value, theta)."""
        weights = np.zeros((self.bits_per_block, 2), dtype=np.int64)
        weights[:self.value_bits, 0] = 1 << np.arange(self.value_bits - 1, -1, -1)
        weights[self.value_bits:, 1] = 1 << np.arange(self.basis_bits - 1, -1, -1)
        return weights

    def blocks(self, m: int) -> int:
        """Blocks of an m-qubit half."""
        if m < 1 or m % self.qubits_per_block:
            raise ValueError(f"m must be a positive multiple of {self.qubits_per_block} "
                             f"for {self.kind}, not {m}")
        return m // self.qubits_per_block

    def half_bits(self, out_bits: int) -> int:
        """Bits per half of an out_bits-bit response; both halves must be whole blocks."""
        if out_bits % (2 * self.bits_per_block):
            raise ValueError(f"a {out_bits}-bit response does not split into two halves "
                             f"of whole {self.kind} blocks")
        return out_bits // 2

    def out_bits(self, m: int) -> int:
        """Response bits of a device with m-qubit halves."""
        return 2 * self.blocks(m) * self.bits_per_block


BB84 = EncodingScheme("bb84", bits_per_block=2, qubits_per_block=1, block_dim=2,
                      value_bits=1, basis_bits=1, family=qstate.bb84_family)
MUB4 = EncodingScheme("mub4", bits_per_block=4, qubits_per_block=2, block_dim=4,
                      value_bits=2, basis_bits=2, family=qstate.mub4_family)
MUB8 = EncodingScheme("mub8", bits_per_block=6, qubits_per_block=3, block_dim=8,
                      value_bits=3, basis_bits=3, family=qstate.mub8_family)

SCHEMES = {s.kind: s for s in (BB84, MUB4, MUB8)}


def int_to_bits(values, width: int) -> np.ndarray:
    """Most-significant-first bits of each integer, as a trailing axis of length width."""
    return (np.asarray(values)[..., None] >> np.arange(width - 1, -1, -1)) & 1


def block_indices(bits, scheme: EncodingScheme) -> np.ndarray:
    """(..., blocks, 2) array of every block's (value, theta) for bits of shape
    (..., blocks * bits_per_block): a block is its value bits, then its basis bits,
    each most significant first."""
    bits = np.asarray(bits, dtype=np.int64)
    step = scheme.bits_per_block
    if bits.shape[-1] % step != 0:
        raise ValueError("bit count is not a whole number of blocks")
    return bits.reshape(bits.shape[:-1] + (bits.shape[-1] // step, step)) @ scheme._place_values


def encode_half(bits, scheme: EncodingScheme) -> list:
    """Block states of a half's bits: the wire form, one fresh PureState per block."""
    family = scheme.family()
    blocks = block_indices(bits, scheme).tolist()
    return [family.basis_state(theta, value) for value, theta in blocks]


def _verify_blocks(bits, received, scheme: EncodingScheme, rng: np.random.Generator) -> bool:
    """Measure each received block in the basis named by ``bits``; all values must match."""
    blocks = block_indices(bits, scheme).tolist()
    if len(received) != len(blocks):
        return False
    family = scheme.family()
    for state, (value, theta) in zip(received, blocks):
        if not isinstance(state, qstate.PureState) or state.dim != scheme.block_dim:
            return False
        if family.measure(state, theta, rng) != value:
            return False
    return True


class HlpufDevice:
    """A CPUF, its block encoding, and the lock: verify incoming first-half states,
    then release the second half (``encode_half`` of each half gives its states).

    ``query_log`` counts lock-passing evaluations and is the device's only
    mutable field.
    """

    def __init__(self, cpuf: CpufModel, scheme: EncodingScheme):
        self.cpuf = cpuf
        self.scheme = scheme
        self.half_bits = scheme.half_bits(cpuf.out_bits)
        self.query_log = 0

    def lock_query(self, x, incoming, rng: np.random.Generator):
        """Second-half states if the incoming first half verifies, else ABORT.

        Wrong arity or wrong block dimension counts as failed verification.
        """
        y = self.cpuf.eval(x)
        if not _verify_blocks(y[:self.half_bits], incoming, self.scheme, rng):
            return ABORT
        self.query_log += 1
        return encode_half(y[self.half_bits:], self.scheme)


def server_verify(bits, received, scheme: EncodingScheme, rng: np.random.Generator) -> bool:
    """The server's measurement check of a returned half against its stored bits."""
    return _verify_blocks(bits, received, scheme, rng)
