"""Signed information-trading rounds between the authority and vehicles.

One round walks the eight-step exchange: the authority publishes its task
list, vehicles answer with encrypted bid requests, the auction picks
winners, each winner gets an order, delivers sensed data, is paid exactly
once, and confirms, after which the confirmed trades are sealed into a
hash-chained block. Balances are Fractions so money is conserved exactly;
every verification failure aborts only the session it happened in, and so
does a request or delivery that is signed correctly but does not parse to
the fields its leg expects (``"<leg>: malformed payload"``).

Request, order, delivery and confirm are one leg each, run by one helper.
Its send half makes the message, lets ``tamper`` alter a request or a
delivery, and appends it to the transcript; its receive half verifies it
and either aborts the session with ``"<leg>: <reason>"`` or advances the
session's clock and returns the plaintext. Every request is sent before
any is received, so the authority vets them together.

Message security rides on a pluggable scheme from :mod:`trafficmarket.crypto`.
Randomness for each participant's key material and ciphertexts comes from
generators derived from (seed, role, vehicle id), which keeps a round's
bytes independent of processing order and reproducible end to end.

A round repeats no crypto work whose answer it already has, and every check
still runs in full on anything new:

* A certificate is verified once per world. ``CertificateAuthority.check``
  remembers the certificates that verified, keyed by their exact content
  (CA public key, subject, public key, signature). A certificate that
  differs in any byte misses the set and is verified in full, so a
  corrupted or foreign certificate still fails closed. Only successes are
  kept, and Ed25519 and HMAC signatures are unique per message, so the set
  holds at most one entry per issued certificate. Certificate revocation,
  if it is ever added, must clear the set.
* The broadcast is verified once per round. Every vehicle receives the
  same ``publish`` message against the same authority certificate, so its
  certificate and signature are checked once before the vehicles' loop;
  only the freshness check runs per session. Abort reasons are unchanged.
* Parsed private keys are reused (see :mod:`trafficmarket.crypto`).

Every request, order, delivery and confirm is unique, so their signatures
are always verified afresh.
"""

from __future__ import annotations

import ast
import enum
import hashlib
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from trafficmarket.auction import tbsap
from trafficmarket.crypto import (
    DecryptionError,
    KeyPair,
    SignatureScheme,
)
from trafficmarket.model import AuctionInstance, AuctionOutcome, write_rows

__all__ = [
    "ProtocolError",
    "MessageKind",
    "ProtocolMessage",
    "Certificate",
    "CertificateAuthority",
    "Account",
    "Participant",
    "TradingWorld",
    "SessionState",
    "TradingSession",
    "TransactionRecord",
    "TradeBlock",
    "RoundResult",
    "build_world",
    "verify_message",
    "pay_winner",
    "run_trading_round",
    "write_ledger_csv",
]

GENESIS_HASH = "0" * 64


class ProtocolError(Exception):
    """A party tried a step its session state does not allow."""


class MessageKind(enum.Enum):
    PUBLISH = "PUB"
    REQUEST = "REQ"
    ORDER = "ORD"
    DATA = "RES"
    CONFIRM = "CON"


@dataclass(frozen=True)
class ProtocolMessage:
    kind: MessageKind
    sender: str
    session_id: str
    timestamp: int
    body: bytes  # ciphertext when encrypted, plaintext for broadcasts
    signature: bytes
    encrypted: bool


@dataclass(frozen=True)
class Certificate:
    subject: str
    public_key: bytes
    signature: bytes


def _certificate_bytes(subject: str, public_key: bytes) -> bytes:
    return b"cert:" + subject.encode() + b":" + public_key


class CertificateAuthority:
    def __init__(self, scheme: SignatureScheme, rng: np.random.Generator):
        self.scheme = scheme
        self.keys = scheme.generate_keypair(rng)
        #: (CA public key, subject, public key, signature) of every
        #: certificate that has verified; see the module docstring
        self._valid: set[tuple[bytes, str, bytes, bytes]] = set()

    def issue(self, subject: str, public_key: bytes) -> Certificate:
        signature = self.scheme.sign(
            self.keys.private, _certificate_bytes(subject, public_key)
        )
        return Certificate(subject=subject, public_key=public_key, signature=signature)

    def check(self, certificate: Certificate) -> bool:
        key = (
            self.keys.public,
            certificate.subject,
            certificate.public_key,
            certificate.signature,
        )
        if key in self._valid:
            return True
        if not self.scheme.verify(
            self.keys.public,
            _certificate_bytes(certificate.subject, certificate.public_key),
            certificate.signature,
        ):
            return False
        self._valid.add(key)
        return True


@dataclass
class Account:
    owner: str
    balance: Fraction


@dataclass
class Participant:
    name: str
    keys: KeyPair
    certificate: Certificate
    account: Account


@dataclass(frozen=True)
class TransactionRecord:
    session_id: str
    authority: str
    vehicle_id: int
    amount: str  # exact fraction, stringified for hashing
    data_digest: str
    confirmed_at: int

    def canonical(self) -> str:
        return (
            f"{self.session_id}:{self.authority}:{self.vehicle_id}:"
            f"{self.amount}:{self.data_digest}:{self.confirmed_at}"
        )


@dataclass(frozen=True)
class TradeBlock:
    index: int
    previous_hash: str
    records: tuple[TransactionRecord, ...]
    hash: str


def _block_hash(index: int, previous_hash: str, records) -> str:
    payload = f"{index}|{previous_hash}|" + "|".join(r.canonical() for r in records)
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class TradingWorld:
    scheme: SignatureScheme
    ca: CertificateAuthority
    authority: Participant
    vehicles: dict[int, Participant]
    seed: int
    clock: int = 0
    ledger: list[TradeBlock] = field(default_factory=list)

    def next_timestamp(self) -> int:
        self.clock += 1
        return self.clock

    def append_block(self, records: Sequence[TransactionRecord]) -> TradeBlock:
        previous = self.ledger[-1].hash if self.ledger else GENESIS_HASH
        index = len(self.ledger)
        block = TradeBlock(
            index=index,
            previous_hash=previous,
            records=tuple(records),
            hash=_block_hash(index, previous, records),
        )
        self.ledger.append(block)
        return block

    def total_balance(self) -> Fraction:
        total = self.authority.account.balance
        for participant in self.vehicles.values():
            total += participant.account.balance
        return total


def build_world(
    instance: AuctionInstance,
    scheme: SignatureScheme,
    seed: int = 0,
    authority_balance: Fraction | float | None = None,
) -> TradingWorld:
    """Mint keys, certificates, and accounts for one authority and all vehicles.

    The authority's account is funded with the auction budget unless told
    otherwise; vehicles start empty.
    """
    ca = CertificateAuthority(scheme, np.random.default_rng([seed, 0]))
    authority_keys = scheme.generate_keypair(np.random.default_rng([seed, 1]))
    if authority_balance is None:
        authority_balance = instance.budget
    authority = Participant(
        name="authority",
        keys=authority_keys,
        certificate=ca.issue("authority", authority_keys.public),
        account=Account(owner="authority", balance=Fraction(authority_balance)),
    )
    vehicles = {}
    for vehicle in instance.vehicles:
        name = f"vehicle-{vehicle.id}"
        keys = scheme.generate_keypair(np.random.default_rng([seed, 2, vehicle.id]))
        vehicles[vehicle.id] = Participant(
            name=name,
            keys=keys,
            certificate=ca.issue(name, keys.public),
            account=Account(owner=name, balance=Fraction(0)),
        )
    return TradingWorld(
        scheme=scheme, ca=ca, authority=authority, vehicles=vehicles, seed=seed
    )


class SessionState(enum.Enum):
    PUBLISHED = "published"
    REQUESTED = "requested"
    ALLOCATED = "allocated"
    ORDERED = "ordered"
    DATA_DELIVERED = "data-delivered"
    PAID = "paid"
    CONFIRMED = "confirmed"
    ABORTED = "aborted"


@dataclass
class TradingSession:
    vehicle_id: int
    state: SessionState = SessionState.PUBLISHED
    transcript: list[ProtocolMessage] = field(default_factory=list)
    last_timestamp: int = 0
    failure: str | None = None
    paid_amount: Fraction | None = None
    data_digest: str | None = None
    confirmed_at: int | None = None

    def abort(self, reason: str) -> None:
        self.state = SessionState.ABORTED
        self.failure = reason


def _signing_bytes(
    kind: MessageKind, sender: str, session_id: str, timestamp: int, body: bytes
) -> bytes:
    header = f"{kind.value}|{sender}|{session_id}|{timestamp}|".encode()
    return header + hashlib.sha256(body).digest()


def _make_message(
    world: TradingWorld,
    kind: MessageKind,
    sender: Participant,
    session_id: str,
    payload: tuple,
    recipient: Participant | None = None,
    rng: np.random.Generator | None = None,
) -> ProtocolMessage:
    """Sign the ``repr`` of ``payload``, encrypted for ``recipient`` if one is given."""
    plaintext = repr(payload).encode()
    if recipient is not None:
        body = world.scheme.encrypt(recipient.keys.public, plaintext, rng)
    else:
        body = plaintext
    timestamp = world.next_timestamp()
    signature = world.scheme.sign(
        sender.keys.private,
        _signing_bytes(kind, sender.name, session_id, timestamp, body),
    )
    return ProtocolMessage(
        kind=kind,
        sender=sender.name,
        session_id=session_id,
        timestamp=timestamp,
        body=body,
        signature=signature,
        encrypted=recipient is not None,
    )


def verify_message(
    world: TradingWorld,
    message: ProtocolMessage,
    sender_certificate: Certificate,
    recipient_private: bytes | None = None,
    last_timestamp: int = 0,
) -> tuple[bytes | None, str | None]:
    """Check certificate, signature, decryptability, and freshness, in that
    order, stopping at the first failure. Returns (plaintext, None) on
    success and (None, reason) otherwise.
    """
    plaintext, reason = _authenticate(
        world, message, sender_certificate, recipient_private
    )
    if reason is None:
        reason = _staleness(message, last_timestamp)
    return (None, reason) if reason else (plaintext, None)


def _staleness(message: ProtocolMessage, last_timestamp: int) -> str | None:
    return "stale timestamp" if message.timestamp <= last_timestamp else None


def _authenticate(
    world: TradingWorld,
    message: ProtocolMessage,
    sender_certificate: Certificate,
    recipient_private: bytes | None,
) -> tuple[bytes | None, str | None]:
    """``verify_message`` without the freshness check."""
    if not world.ca.check(sender_certificate):
        return None, "bad certificate"
    if sender_certificate.subject != message.sender:
        return None, "certificate subject mismatch"
    signed = _signing_bytes(
        message.kind, message.sender, message.session_id, message.timestamp,
        message.body,
    )
    if not world.scheme.verify(
        sender_certificate.public_key, signed, message.signature
    ):
        return None, "bad signature"
    if message.encrypted:
        if recipient_private is None:
            return None, "no decryption key"
        try:
            plaintext = world.scheme.decrypt(recipient_private, message.body)
        except DecryptionError:
            return None, "undecryptable"
        return plaintext, None
    return message.body, None


def pay_winner(world: TradingWorld, session: TradingSession, amount: Fraction) -> None:
    """Move the payment to the vehicle, exactly once per session."""
    if session.state is not SessionState.DATA_DELIVERED:
        raise ProtocolError(
            f"vehicle {session.vehicle_id}: cannot pay from state {session.state.value}"
        )
    payer = world.authority.account
    if payer.balance < amount:
        raise ProtocolError("authority balance insufficient")
    payer.balance -= amount
    world.vehicles[session.vehicle_id].account.balance += amount
    session.paid_amount = amount
    session.state = SessionState.PAID


def _sensor_readings(vehicle_id: int, task_ids) -> tuple:
    """Deterministic stand-in for sensed data, one digest per covered task."""
    return tuple(
        (t, hashlib.sha256(f"reading:{vehicle_id}:{t}".encode()).hexdigest())
        for t in task_ids
    )


def _default_data_check(vehicle_id: int, task_ids, readings) -> bool:
    return tuple(readings) == _sensor_readings(vehicle_id, task_ids)


def _literal(plaintext: bytes):
    """The Python literal a plaintext spells, or None if it spells none."""
    try:
        return ast.literal_eval(plaintext.decode())
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        return None


def _parse_request(plaintext: bytes) -> tuple | None:
    """``(tag, vehicle id, task ids, bid)`` from a request's plaintext, the
    ``repr`` its sender signs: a tuple of a str, an int, a tuple of ints and
    an int or float; else None."""
    fields = _literal(plaintext)
    if type(fields) is not tuple or len(fields) != 4:
        return None
    tag, vid, tasks, bid = fields
    if type(tag) is str and type(vid) is int and type(bid) in (int, float):
        return fields if type(tasks) is tuple and all(type(t) is int for t in tasks) else None
    return None


def _parse_data(plaintext: bytes) -> tuple | None:
    """``(tag, vehicle id, readings)`` from a delivery's plaintext: a tuple
    of a str, an int and a tuple; else None."""
    fields = _literal(plaintext)
    return fields if type(fields) is tuple and [*map(type, fields)] == [str, int, tuple] else None


def _surviving_instance(
    instance: AuctionInstance, excluded: frozenset[int]
) -> tuple[AuctionInstance, dict[int, int]]:
    """Re-index the non-excluded vehicles densely; map new ids back to old."""
    kept = [v for v in instance.vehicles if v.id not in excluded]
    vehicles = tuple(replace(v, id=new) for new, v in enumerate(kept))
    return replace(instance, vehicles=vehicles), {new: v.id for new, v in enumerate(kept)}


@dataclass
class RoundResult:
    outcome: AuctionOutcome
    sessions: dict[int, TradingSession]
    excluded: frozenset[int]
    records: tuple[TransactionRecord, ...]
    block: TradeBlock | None


def run_trading_round(
    world: TradingWorld,
    instance: AuctionInstance,
    mechanism: Callable[[AuctionInstance], AuctionOutcome] = tbsap,
    data_check: Callable[[int, tuple, tuple], bool] | None = None,
    tamper: Callable[[ProtocolMessage], ProtocolMessage] | None = None,
) -> RoundResult:
    """Run one complete trading round over ``instance``.

    Vehicles whose request leg fails verification are excluded and the
    auction runs on the survivors. ``tamper`` intercepts requests and data
    deliveries in flight (it receives every such message and returns the
    possibly altered one). If the authority cannot cover all payments the
    round aborts before any transfer.
    """
    if data_check is None:
        data_check = _default_data_check
    authority = world.authority
    round_index = len(world.ledger)
    sessions = {v.id: TradingSession(v.id) for v in instance.vehicles}
    subset_of = {v.id: tuple(sorted(v.task_subset)) for v in instance.vehicles}
    vehicle_rng = {
        v.id: np.random.default_rng([world.seed, 3, round_index, v.id])
        for v in instance.vehicles
    }

    def send(session, kind, sender, recipient, payload, rng) -> ProtocolMessage:
        # the send half of a leg: make the message, let tamper see requests
        # and deliveries in flight, append it to the transcript
        message = _make_message(
            world,
            kind,
            sender,
            f"round-{round_index}/vehicle-{session.vehicle_id}",
            payload,
            recipient=recipient,
            rng=rng,
        )
        if tamper is not None and kind in (MessageKind.REQUEST, MessageKind.DATA):
            message = tamper(message)
        session.transcript.append(message)
        return message

    def receive(session, kind, message, sender, recipient) -> bytes | None:
        # the receive half: verify, then abort or advance the session's clock
        plaintext, reason = verify_message(
            world, message, sender.certificate, recipient.keys.private,
            session.last_timestamp,
        )
        if reason:
            session.abort(f"{kind.name.lower()}: {reason}")
            return None
        session.last_timestamp = message.timestamp
        return plaintext

    def leg(session, kind, sender, recipient, payload, rng) -> bytes | None:
        message = send(session, kind, sender, recipient, payload, rng)
        return receive(session, kind, message, sender, recipient)

    # step 1: signed broadcast of the task catalogue
    catalogue = tuple((t.id, t.x, t.y, t.appraisement) for t in instance.tasks)
    publish = _make_message(
        world, MessageKind.PUBLISH, authority, f"round-{round_index}",
        ("publish", catalogue, instance.budget),
    )

    # step 2: vehicles validate the broadcast and submit encrypted requests;
    # every vehicle gets the same message, so it is authenticated once
    _, broadcast_failure = _authenticate(world, publish, authority.certificate, None)
    requests: dict[int, ProtocolMessage] = {}
    for vid in sorted(sessions):
        session = sessions[vid]
        reason = broadcast_failure or _staleness(publish, session.last_timestamp)
        if reason:
            session.abort(f"broadcast: {reason}")
            continue
        session.last_timestamp = publish.timestamp
        session.transcript.append(publish)
        requests[vid] = send(
            session,
            MessageKind.REQUEST,
            world.vehicles[vid],
            authority,
            ("request", vid, subset_of[vid], instance.vehicle(vid).bid),
            vehicle_rng[vid],
        )
        session.state = SessionState.REQUESTED

    # step 3: the authority vets every request before allocating
    for vid in sorted(requests):
        session = sessions[vid]
        plaintext = receive(
            session, MessageKind.REQUEST, requests[vid], world.vehicles[vid], authority
        )
        if plaintext is None:
            continue
        request = _parse_request(plaintext)
        if request is None:
            session.abort("request: malformed payload")
        elif request[:3] != ("request", vid, subset_of[vid]):
            session.abort("request: inconsistent payload")

    excluded = frozenset(
        vid for vid, s in sessions.items() if s.state is SessionState.ABORTED
    )
    survivors, remap = _surviving_instance(instance, excluded)
    sub_outcome = mechanism(survivors)
    winners = tuple(remap[w] for w in sub_outcome.winners)
    payments = {remap[w]: p for w, p in sub_outcome.payments.items()}
    outcome = replace(sub_outcome, winners=winners, payments=payments)
    for vid, session in sessions.items():
        if session.state is SessionState.REQUESTED:
            if vid in payments:
                session.state = SessionState.ALLOCATED
            else:
                session.abort("lost auction")

    # the authority must be able to cover every quoted payment before
    # anything moves
    served = sorted(winners)
    total_due = sum((Fraction(payments[w]) for w in winners), Fraction(0))
    if authority.account.balance < total_due:
        for vid in served:
            sessions[vid].abort("authority balance insufficient")
        served = []

    # steps 4-8 per winner: order, deliver, check, pay, confirm
    records = []
    for vid in served:
        session = sessions[vid]
        vehicle = world.vehicles[vid]
        rng = vehicle_rng[vid]
        order = ("order", vid, subset_of[vid], repr(payments[vid]))
        authority_rng = np.random.default_rng([world.seed, 4, round_index, vid])
        if leg(session, MessageKind.ORDER, authority, vehicle, order, authority_rng) is None:
            continue
        session.state = SessionState.ORDERED

        delivery = ("data", vid, _sensor_readings(vid, subset_of[vid]))
        plaintext = leg(session, MessageKind.DATA, vehicle, authority, delivery, rng)
        if plaintext is None:
            continue
        delivered = _parse_data(plaintext)
        if delivered is None:
            session.abort("data: malformed payload")
            continue
        if not data_check(vid, subset_of[vid], delivered[2]):
            session.abort("data rejected")
            continue
        session.data_digest = hashlib.sha256(plaintext).hexdigest()
        session.state = SessionState.DATA_DELIVERED

        pay_winner(world, session, Fraction(payments[vid]))

        confirm = ("confirm", vid, str(session.paid_amount))
        if leg(session, MessageKind.CONFIRM, vehicle, authority, confirm, rng) is None:
            continue
        confirmed = session.transcript[-1]
        session.state = SessionState.CONFIRMED
        session.confirmed_at = confirmed.timestamp
        records.append(
            TransactionRecord(
                session_id=confirmed.session_id,
                authority=authority.name,
                vehicle_id=vid,
                amount=str(session.paid_amount),
                data_digest=session.data_digest,
                confirmed_at=confirmed.timestamp,
            )
        )

    block = world.append_block(records) if records else None
    return RoundResult(
        outcome=outcome,
        sessions=sessions,
        excluded=excluded,
        records=tuple(records),
        block=block,
    )


def write_ledger_csv(world: TradingWorld, path) -> None:
    """Append-only view of confirmed trades, one record per line."""
    write_rows(
        path,
        ("session_id", "ta_id", "vehicle_id", "payment", "block_id"),
        (
            (r.session_id, r.authority, r.vehicle_id, r.amount, block.index)
            for block in world.ledger
            for r in block.records
        ),
    )
