"""Hybrid PUF devices: quantum encoding of classical responses and the lock.

An HPUF evaluates its classical PUF once per challenge and encodes the
response bits block-by-block into non-orthogonal states; the response splits
into two halves (first/second). The locked variant (HLPUF) releases the
second half only after verifying incoming first-half states by measuring each
block in the basis dictated by its own response bits; any failure yields the
distinguished abort value ABORT and releases nothing.

Block layout: a block of ``bits_per_block`` bits is value bits first (most
significant first), then basis bits selecting one of the scheme's bases.
With 2^b basis bits addressing a family of 2^b + 1 bases, the last basis is
never emitted by devices; attacks may still assume the full-family prior.
"""

from dataclasses import dataclass

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

ROLE_FIRST = "first"
ROLE_SECOND = "second"


@dataclass(frozen=True)
class EncodingScheme:
    """How classical bits map to block states."""

    kind: str
    bits_per_block: int
    qubits_per_block: int
    block_dim: int
    value_bits: int
    basis_bits: int

    @property
    def bases_used(self) -> int:
        return 2 ** self.basis_bits

    def family(self) -> qstate.MubFamily:
        if self.kind == "bb84":
            return qstate.bb84_family()
        if self.kind == "mub4":
            return qstate.mub4_family()
        if self.kind == "mub8":
            return qstate.mub8_family()
        raise ValueError(f"unknown scheme kind {self.kind!r}")


BB84 = EncodingScheme("bb84", bits_per_block=2, qubits_per_block=1, block_dim=2,
                      value_bits=1, basis_bits=1)
MUB4 = EncodingScheme("mub4", bits_per_block=4, qubits_per_block=2, block_dim=4,
                      value_bits=2, basis_bits=2)
MUB8 = EncodingScheme("mub8", bits_per_block=6, qubits_per_block=3, block_dim=8,
                      value_bits=3, basis_bits=3)

SCHEMES = {s.kind: s for s in (BB84, MUB4, MUB8)}


def bits_to_int(bits) -> int:
    """Most-significant-bit-first packing."""
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def int_to_bits(value: int, width: int) -> tuple:
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def _block_indices(bits, scheme: EncodingScheme) -> list:
    """(value, theta) of every block of ``bits``, read as one most-significant-first code."""
    step = scheme.bits_per_block
    if len(bits) % step != 0:
        raise ValueError("bit count is not a whole number of blocks")
    codes = np.asarray(bits, dtype=np.int64).reshape(-1, step) @ (1 << np.arange(step - 1, -1, -1))
    # value bits come first, so the basis bits are the code's low basis_bits bits
    return [divmod(code, scheme.bases_used) for code in codes.tolist()]


def encode_block(bits, scheme: EncodingScheme) -> qstate.PureState:
    """One block of classical bits -> one block state (fresh object)."""
    bits = tuple(int(b) for b in bits)
    if len(bits) != scheme.bits_per_block:
        raise ValueError(f"expected {scheme.bits_per_block} bits, got {len(bits)}")
    [(value, theta)] = _block_indices(bits, scheme)
    return scheme.family().basis_state(theta, value)


def decode_block(state: qstate.PureState, theta: int, scheme: EncodingScheme) -> tuple:
    """Recover a block's bits given its basis index (bijectivity helper)."""
    column_overlaps = np.abs(scheme.family().bases[theta].conj().T @ state.amplitudes) ** 2
    value = int(np.argmax(column_overlaps))
    return int_to_bits(value, scheme.value_bits) + int_to_bits(theta, scheme.basis_bits)


@dataclass
class HalfResponse:
    """One half of an encoded response: block states plus, server-side, the bits."""

    role: str
    states: list
    classical_bits: tuple | None = None

    def __post_init__(self):
        if self.role not in (ROLE_FIRST, ROLE_SECOND):
            raise ValueError("role must be 'first' or 'second'")


def encode_half(bits, role: str, scheme: EncodingScheme, keep_bits: bool = True) -> HalfResponse:
    family = scheme.family()
    states = [family.basis_state(theta, value) for value, theta in _block_indices(bits, scheme)]
    return HalfResponse(role=role, states=states,
                        classical_bits=tuple(int(b) for b in bits) if keep_bits else None)


class HpufDevice:
    """Classical PUF plus block encoder; evaluation returns fresh state copies."""

    def __init__(self, cpuf: CpufModel, scheme: EncodingScheme):
        if cpuf.out_bits % (2 * scheme.bits_per_block) != 0:
            raise ValueError("CPUF output width must be divisible by 2 * bits_per_block")
        self.cpuf = cpuf
        self.scheme = scheme

    @property
    def half_bit_count(self) -> int:
        return self.cpuf.out_bits // 2

    @property
    def blocks_per_half(self) -> int:
        return self.half_bit_count // self.scheme.bits_per_block

    def half_bits(self, x, role: str) -> tuple:
        y = self.cpuf.eval(x)
        half = self.half_bit_count
        sl = y[:half] if role == ROLE_FIRST else y[half:]
        return tuple(int(b) for b in sl)

    def hpuf_eval(self, x) -> tuple:
        """(first HalfResponse, second HalfResponse); one CPUF evaluation."""
        y = self.cpuf.eval(x)
        half = self.half_bit_count
        first = encode_half(y[:half], ROLE_FIRST, self.scheme)
        second = encode_half(y[half:], ROLE_SECOND, self.scheme)
        return first, second


def _verify_blocks(bits, received, scheme: EncodingScheme, rng: np.random.Generator) -> bool:
    """Measure each received block in the basis named by ``bits``; all values must match."""
    blocks = _block_indices(bits, scheme)
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
    """Lock-gated HPUF: verify incoming first-half states, then release the second half.

    ``query_log`` counts lock-passing evaluations and is the device's only
    mutable field.
    """

    def __init__(self, hpuf: HpufDevice):
        self.hpuf = hpuf
        self.query_log = 0

    @property
    def scheme(self) -> EncodingScheme:
        return self.hpuf.scheme

    def lock_query(self, x, incoming, rng: np.random.Generator):
        """Second HalfResponse if the incoming first half verifies, else ABORT.

        Wrong arity or wrong block dimension counts as failed verification.
        The returned half carries no classical bits (wire object).
        """
        y = self.hpuf.cpuf.eval(x)
        half = self.hpuf.half_bit_count
        if not _verify_blocks(y[:half], incoming, self.scheme, rng):
            return ABORT
        self.query_log += 1
        return encode_half(y[half:], ROLE_SECOND, self.scheme, keep_bits=False)


def server_encode(db_entry, role: str, scheme: EncodingScheme):
    """Encode one database entry's half: (x, y) -> (x, HalfResponse with bits retained)."""
    x, y = db_entry
    y = np.asarray(y, dtype=np.uint8)
    if len(y) % 2 != 0:
        raise ValueError("response width must be even")
    half = len(y) // 2
    bits = y[:half] if role == ROLE_FIRST else y[half:]
    return x, encode_half(bits, role, scheme)


def server_verify(expected: HalfResponse, received, scheme: EncodingScheme,
                  rng: np.random.Generator) -> bool:
    """Measurement verification of a received half against the expected classical bits."""
    if expected.classical_bits is None:
        raise ValueError("expected half must carry classical bits")
    return _verify_blocks(expected.classical_bits, received, scheme, rng)
