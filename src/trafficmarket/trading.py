"""Signed information-trading rounds between the authority and vehicles.

One round walks the eight-step exchange: the authority publishes its task
list, vehicles answer with encrypted bid requests, the auction picks
winners, each winner gets an order, delivers sensed data, is paid exactly
once, and confirms, after which the confirmed trades are sealed into a
hash-chained block. Balances are Fractions so money is conserved exactly.
The authority's balance is a nonnegative ``Fraction`` or real
(``model.as_real``), and anything else is refused by name.

``run_trading_round`` drives one round context (``_Round``) through five
steps, each run in full before the next starts:

1. publish and request: the signed broadcast, then one encrypted request
   from each vehicle that accepts it;
2. vet: the authority verifies and parses every request;
3. allocate: the mechanism runs on the vehicles still in the round;
4. fund: the quoted total is checked against the authority's balance
   before anything moves;
5. serve, per funded winner in id order: order, delivery, data check,
   payment and confirm, which yields the trade's record.

A failure aborts only its own session, with one ``(stage, cause)`` pair
from the closed set ``FAILURES``, and ``TradingSession.failure`` reads that
pair's text. The stages are, in round order, ``broadcast``, ``request``,
``auction``, ``funding``, ``order``, ``data`` and ``confirm``. A broadcast
or leg that fails verification aborts with the ``verify_message`` reason
as its cause (``"<stage>: <reason>"``), and so does a request or delivery
that is signed correctly but does not parse to the fields its leg expects
(``"<stage>: malformed payload"``).

Request, order, delivery and confirm are one leg each. Its send half makes
the message, lets ``tamper`` alter a request or a delivery, and appends it
to the transcript; its receive half verifies it and either aborts the
session or advances the session's clock and returns the plaintext, so a
message that fails is the last on its transcript. Every request is sent
before any is received, so the authority vets them together.

Message security rides on a pluggable scheme from :mod:`trafficmarket.crypto`.
Randomness for each participant's key material and ciphertexts comes from
generators derived from (seed, role, vehicle id), which keeps a round's
bytes independent of processing order and reproducible end to end. The
seed is a count (``model.validate_count``): a ``bool`` or a float is
refused.

A round repeats no work whose answer it already has, and every check still
runs in full on anything new:

* A certificate is verified once per world. ``CertificateAuthority.check``
  remembers the certificates that verified, keyed by their exact content
  (CA public key, subject, public key, signature). A certificate that
  differs in any byte misses the set and is verified in full, so a
  corrupted or foreign certificate still fails closed. Only successes are
  kept, and Ed25519 and HMAC signatures are unique per message, so the set
  holds at most one entry per issued certificate. Certificate revocation,
  if it is ever added, must clear the set.
* The broadcast is verified once per round. Every vehicle receives the
  same ``publish`` message against the same authority certificate, so one
  ``verify_message`` call judges it before the vehicles' loop, freshness
  included: every session starts at ``last_timestamp`` 0.
* Parsed keys are reused, private and public (see :mod:`trafficmarket.crypto`).
* An honest request or delivery is not parsed again: the plaintext that
  its leg decrypts is compared byte for byte with the one the round sent
  (``_Round.read``).
* With no vehicle excluded, the mechanism runs on the round's own
  instance: no re-indexed copy is built, and the auction's cache finds its
  ``vehicles`` tuple by identity.

Every request, order, delivery and confirm is unique, so their signatures
are always verified, and their ciphertexts decrypted, afresh.
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
from trafficmarket.crypto import DecryptionError, KeyPair, SignatureScheme
from trafficmarket.model import (
    AuctionInstance, AuctionOutcome, as_id, as_real, validate_count, write_rows
)

__all__ = [
    "ProtocolError",
    "FAILURES",
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
    otherwise; vehicles start empty. A balance is a nonnegative ``Fraction``,
    or a nonnegative real (``model.as_real``) taken as its plain float; a
    ``bool``, a string, NaN, an infinity or a negative value is refused with
    a ``ValueError`` that names ``authority_balance``. The seed goes through
    ``model.validate_count`` and is kept as a plain ``int``.
    """
    seed = validate_count(seed, "seed")
    balance = instance.budget if authority_balance is None else authority_balance
    if not isinstance(balance, Fraction):
        balance = as_real(balance)
    if balance is None or balance < 0:
        raise ValueError(f"authority_balance {authority_balance!r} is not a nonnegative real")
    ca = CertificateAuthority(scheme, np.random.default_rng([seed, 0]))
    authority_keys = scheme.generate_keypair(np.random.default_rng([seed, 1]))
    authority = Participant(
        name="authority",
        keys=authority_keys,
        certificate=ca.issue("authority", authority_keys.public),
        account=Account(owner="authority", balance=Fraction(balance)),
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


#: What ``verify_message`` can report, in the order it checks.
_VERIFY_REASONS = ("bad certificate", "certificate subject mismatch", "bad signature",
                   "no decryption key", "undecryptable", "stale timestamp")

#: Every way a session can abort: ``(stage, cause)`` to the text that
#: ``TradingSession.failure`` reads. The broadcast and each leg fail with a
#: ``verify_message`` reason; three failures keep a bare text of their own.
FAILURES: dict[tuple[str, str], str] = {
    **{(stage, cause): f"{stage}: {cause}"
       for stage in ("broadcast", "request", "order", "data", "confirm")
       for cause in _VERIFY_REASONS},
    ("request", "malformed payload"): "request: malformed payload",
    ("request", "inconsistent payload"): "request: inconsistent payload",
    ("data", "malformed payload"): "data: malformed payload",
    ("auction", "lost"): "lost auction",
    ("funding", "insufficient"): "authority balance insufficient",
    ("data", "rejected"): "data rejected",
}


@dataclass
class TradingSession:
    vehicle_id: int
    state: SessionState = SessionState.PUBLISHED
    transcript: list[ProtocolMessage] = field(default_factory=list)
    last_timestamp: int = 0
    cause: tuple[str, str] | None = None  # a key of FAILURES once aborted
    paid_amount: Fraction | None = None
    data_digest: str | None = None
    confirmed_at: int | None = None

    @property
    def failure(self) -> str | None:
        """The text of the session's failure (``FAILURES``), or None."""
        return None if self.cause is None else FAILURES[self.cause]

    def abort(self, stage: str, cause: str) -> None:
        """End the session with a pair from ``FAILURES``. Any other pair
        raises ``ValueError`` and leaves the session as it was."""
        if (stage, cause) not in FAILURES:
            raise ValueError(f"no failure {cause!r} at stage {stage!r}")
        self.state = SessionState.ABORTED
        self.cause = (stage, cause)


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
    plaintext: bytes,
    recipient: Participant | None = None,
    rng: np.random.Generator | None = None,
) -> ProtocolMessage:
    """Sign ``plaintext``, encrypted for ``recipient`` if one is given."""
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
    plaintext = message.body
    if message.encrypted:
        if recipient_private is None:
            return None, "no decryption key"
        try:
            plaintext = world.scheme.decrypt(recipient_private, message.body)
        except DecryptionError:
            return None, "undecryptable"
    if message.timestamp <= last_timestamp:
        return None, "stale timestamp"
    return plaintext, None


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
    a nonnegative real bid; else None. Ids follow ``model.as_id`` and the
    bid ``model.as_real``, the rules an instance's own vehicles obey, so
    ``inf``, a negative bid or an int beyond the float range is refused."""
    fields = _literal(plaintext)
    if type(fields) is not tuple or len(fields) != 4:
        return None
    tag, vid, tasks, bid = fields
    bid_ok = (real := as_real(bid)) is not None and real >= 0
    if type(tag) is str and as_id(vid) is not None and bid_ok:
        return fields if type(tasks) is tuple and None not in map(as_id, tasks) else None
    return None


def _parse_data(plaintext: bytes) -> tuple | None:
    """``(tag, vehicle id, readings)`` from a delivery's plaintext: a tuple
    of a str, an id (``model.as_id``) and a tuple; else None."""
    fields = _literal(plaintext)
    if type(fields) is not tuple or len(fields) != 3 or as_id(fields[1]) is None:
        return None
    return fields if type(fields[0]) is str and type(fields[2]) is tuple else None


def _surviving_instance(
    instance: AuctionInstance, excluded: frozenset[int]
) -> tuple[AuctionInstance, dict[int, int]]:
    """Re-index the non-excluded vehicles densely; map new ids back to old.
    With none excluded, the very instance and the identity map: ids are
    dense already, and the mechanism sees the same ``vehicles`` tuple."""
    if not excluded:
        return instance, {v.id: v.id for v in instance.vehicles}
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


class _Round:
    """One round's context: the world, the instance, ``tamper``, the round
    index, the sessions, each vehicle's sorted subset and generator, what
    each session last sent, and the steps that ``run_trading_round``
    drives."""

    def __init__(self, world: TradingWorld, instance: AuctionInstance, tamper) -> None:
        self.world, self.instance, self.tamper = world, instance, tamper
        self.index = len(world.ledger)
        self.sessions = {v.id: TradingSession(v.id) for v in instance.vehicles}
        self.subset_of = {v.id: tuple(sorted(v.task_subset)) for v in instance.vehicles}
        self.rng = {v.id: np.random.default_rng([world.seed, 3, self.index, v.id])
                    for v in instance.vehicles}
        #: each session's last sent (plaintext, payload), for ``read``
        self.sent: dict[int, tuple[bytes, tuple]] = {}

    def ends(self, vid: int, kind: MessageKind) -> tuple[Participant, Participant]:
        """A leg's sender and recipient: the authority sends the order, and
        the vehicle every other leg."""
        vehicle, authority = self.world.vehicles[vid], self.world.authority
        return (authority, vehicle) if kind is MessageKind.ORDER else (vehicle, authority)

    def send(self, session: TradingSession, kind: MessageKind, payload: tuple) -> ProtocolMessage:
        """A leg's send half: make the message, let ``tamper`` see a request
        or a delivery in flight, and append it to the transcript."""
        vid = session.vehicle_id
        sender, recipient = self.ends(vid, kind)
        rng = self.rng[vid]
        if kind is MessageKind.ORDER:  # the authority encrypts each order afresh
            rng = np.random.default_rng([self.world.seed, 4, self.index, vid])
        plaintext = repr(payload).encode()
        message = _make_message(self.world, kind, sender, f"round-{self.index}/vehicle-{vid}",
                                plaintext, recipient=recipient, rng=rng)
        if self.tamper is not None and kind in (MessageKind.REQUEST, MessageKind.DATA):
            message = self.tamper(message)
        session.transcript.append(message)
        self.sent[vid] = plaintext, payload
        return message

    def receive(self, session: TradingSession, kind: MessageKind, message) -> bytes | None:
        """A leg's receive half: verify, then abort the session or advance
        its clock and return the plaintext."""
        sender, recipient = self.ends(session.vehicle_id, kind)
        plaintext, reason = verify_message(self.world, message, sender.certificate,
                                           recipient.keys.private, session.last_timestamp)
        if reason:
            session.abort(kind.name.lower(), reason)
            return None
        session.last_timestamp = message.timestamp
        return plaintext

    def leg(self, session: TradingSession, kind: MessageKind, payload: tuple) -> bytes | None:
        return self.receive(session, kind, self.send(session, kind, payload))

    def read(self, vid: int, plaintext: bytes, parse: Callable[[bytes], tuple | None]):
        """The fields a received request or delivery spells: ``parse`` of
        its plaintext, or, when the plaintext is byte for byte the one this
        round sent on the leg, the very tuple it sent. That is exact: a
        round sends tuples of ``str``, ``int``, finite ``float`` and tuples
        of those, whose ``repr`` ``ast.literal_eval`` reads back equal, and
        whose fields obey the instance's rules, which are the parser's own.
        Any other plaintext, tampered or foreign, is parsed in full, and
        either way the leg's signature and decryption were checked first."""
        sent_plaintext, sent = self.sent[vid]
        return sent if plaintext == sent_plaintext else parse(plaintext)

    def publish_and_request(self) -> dict[int, ProtocolMessage]:
        """Steps 1-2: the signed broadcast of the task catalogue, then an
        encrypted request from each vehicle that accepts it. Every vehicle
        gets the same broadcast, and every session starts with
        ``last_timestamp`` 0, so one ``verify_message`` call judges it for
        all of them."""
        world, instance, authority = self.world, self.instance, self.world.authority
        catalogue = tuple((t.id, t.x, t.y, t.appraisement) for t in instance.tasks)
        publish = _make_message(world, MessageKind.PUBLISH, authority, f"round-{self.index}",
                                repr(("publish", catalogue, instance.budget)).encode())
        _, broadcast_failure = verify_message(world, publish, authority.certificate)
        requests = {}
        for vid in sorted(self.sessions):
            session = self.sessions[vid]
            if broadcast_failure:
                session.abort("broadcast", broadcast_failure)
                continue
            session.last_timestamp = publish.timestamp
            session.transcript.append(publish)
            request = ("request", vid, self.subset_of[vid], instance.vehicle(vid).bid)
            requests[vid] = self.send(session, MessageKind.REQUEST, request)
            session.state = SessionState.REQUESTED
        return requests

    def vet(self, requests: dict[int, ProtocolMessage]) -> None:
        """Step 3: the authority verifies and parses every request."""
        for vid in sorted(requests):
            session = self.sessions[vid]
            plaintext = self.receive(session, MessageKind.REQUEST, requests[vid])
            if plaintext is None:
                continue
            request = self.read(vid, plaintext, _parse_request)
            if request is None:
                session.abort("request", "malformed payload")
            elif request[:3] != ("request", vid, self.subset_of[vid]):
                session.abort("request", "inconsistent payload")

    def allocate(self, mechanism) -> tuple[AuctionOutcome, frozenset[int]]:
        """The mechanism's outcome on the vehicles no request excluded, in
        the round's ids, and the excluded ids. A requester without a
        payment lost the auction."""
        excluded = frozenset(vid for vid, s in self.sessions.items()
                             if s.state is SessionState.ABORTED)
        survivors, remap = _surviving_instance(self.instance, excluded)
        sub_outcome = mechanism(survivors)
        winners = tuple(remap[w] for w in sub_outcome.winners)
        payments = {remap[w]: p for w, p in sub_outcome.payments.items()}
        for vid, session in self.sessions.items():
            if session.state is SessionState.REQUESTED:
                if vid in payments:
                    session.state = SessionState.ALLOCATED
                else:
                    session.abort("auction", "lost")
        return replace(sub_outcome, winners=winners, payments=payments), excluded

    def fund(self, outcome: AuctionOutcome) -> list[int]:
        """The winners to serve, in id order: all of them if the authority
        can cover every quoted payment, else none, each aborted before
        anything moves."""
        served = sorted(outcome.winners)
        total_due = sum((Fraction(outcome.payments[w]) for w in served), Fraction(0))
        if self.world.authority.account.balance >= total_due:
            return served
        for vid in served:
            self.sessions[vid].abort("funding", "insufficient")
        return []

    def serve(self, vid: int, payment, data_check) -> TransactionRecord | None:
        """Steps 4-8 for one funded winner: order, delivery, data check,
        payment and confirm. The confirmed trade's record, or None if the
        session aborted."""
        session, subset = self.sessions[vid], self.subset_of[vid]
        if self.leg(session, MessageKind.ORDER, ("order", vid, subset, repr(payment))) is None:
            return None
        session.state = SessionState.ORDERED
        plaintext = self.leg(session, MessageKind.DATA,
                             ("data", vid, _sensor_readings(vid, subset)))
        if plaintext is None:
            return None
        delivered = self.read(vid, plaintext, _parse_data)
        if delivered is None or not data_check(vid, subset, delivered[2]):
            session.abort("data", "rejected" if delivered else "malformed payload")
            return None
        session.data_digest = hashlib.sha256(plaintext).hexdigest()
        session.state = SessionState.DATA_DELIVERED

        pay_winner(self.world, session, Fraction(payment))

        confirm = ("confirm", vid, str(session.paid_amount))
        if self.leg(session, MessageKind.CONFIRM, confirm) is None:
            return None
        confirmed = session.transcript[-1]
        session.state = SessionState.CONFIRMED
        session.confirmed_at = confirmed.timestamp
        return TransactionRecord(confirmed.session_id, self.world.authority.name, vid,
                                 str(session.paid_amount), session.data_digest,
                                 confirmed.timestamp)


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
    round_ = _Round(world, instance, tamper)
    round_.vet(round_.publish_and_request())
    outcome, excluded = round_.allocate(mechanism)
    trades = (round_.serve(vid, outcome.payments[vid], data_check) for vid in round_.fund(outcome))
    records = tuple(record for record in trades if record is not None)
    block = world.append_block(records) if records else None
    return RoundResult(outcome, round_.sessions, excluded, records, block)


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
