"""End-to-end tests for the signed trading protocol."""

import hashlib
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from trafficmarket import crypto, trading
from trafficmarket.auction import BRUTE_FORCE_MAX_VEHICLES, tbsap
from trafficmarket.cli import MECHANISMS
from trafficmarket.crypto import (
    DecryptionError,
    Ed25519X25519Scheme,
    HashStubScheme,
)
from trafficmarket.model import ScenarioConfig, as_real, generate_scenario, paper_example
from trafficmarket.trading import (
    FAILURES,
    Certificate,
    CertificateAuthority,
    MessageKind,
    ProtocolError,
    SessionState,
    TradingSession,
    build_world,
    pay_winner,
    run_trading_round,
    verify_message,
    write_ledger_csv,
)

from conftest import dense_scenario

SCHEMES = [HashStubScheme, Ed25519X25519Scheme]


class _RejectingStub(HashStubScheme):
    """The stub scheme, rejecting every signature over bytes with ``prefix``."""

    def __init__(self, prefix: bytes):
        super().__init__()
        self.prefix = prefix

    def verify(self, public, data, signature):
        return not data.startswith(self.prefix) and super().verify(public, data, signature)


class _DeafStub(HashStubScheme):
    """The stub scheme, failing to decrypt every plaintext that starts with
    ``prefix``."""

    def __init__(self, prefix: bytes):
        super().__init__()
        self.prefix = prefix

    def decrypt(self, private, ciphertext):
        plaintext = super().decrypt(private, ciphertext)
        if plaintext.startswith(self.prefix):
            raise DecryptionError("refused")
        return plaintext


def _zero_signature(kind, vid=0):
    """A tamper: vehicle ``vid``'s ``kind`` message with its signature zeroed;
    any other message as it is."""
    def tamper(message):
        if message.kind is kind and message.sender == f"vehicle-{vid}":
            return replace(message, signature=bytes(len(message.signature)))
        return message
    return tamper


_zero_request_signature = _zero_signature(MessageKind.REQUEST)


def _vid(name):
    return int(name.removeprefix("vehicle-"))


def _signed_by(world, message, vid):
    """``message`` as it stands, signed again with vehicle ``vid``'s own key."""
    signed = trading._signing_bytes(message.kind, message.sender, message.session_id,
                                    message.timestamp, message.body)
    return replace(message, signature=world.scheme.sign(world.vehicles[vid].keys.private, signed))


@pytest.fixture
def world():
    instance = paper_example()
    return build_world(instance, HashStubScheme(), seed=7), instance


class TestFullRound:
    def test_winners_confirm_and_loser_aborts(self, world):
        world, instance = world
        result = run_trading_round(world, instance)
        assert result.outcome.winners == (0, 1)
        assert result.sessions[0].state is SessionState.CONFIRMED
        assert result.sessions[1].state is SessionState.CONFIRMED
        assert result.sessions[2].state is SessionState.ABORTED
        assert result.sessions[2].failure == "lost auction"
        assert world.vehicles[0].account.balance == Fraction(2)
        assert world.vehicles[1].account.balance == Fraction(3)
        assert world.authority.account.balance == Fraction(0)

    def test_money_is_conserved_exactly(self, world):
        world, instance = world
        start = world.total_balance()
        run_trading_round(world, instance)
        assert world.total_balance() == start

    def test_block_records_confirmed_trades(self, world):
        world, instance = world
        result = run_trading_round(world, instance)
        assert result.block is not None
        assert result.block.index == 0
        assert result.block.previous_hash == "0" * 64
        assert [r.vehicle_id for r in result.block.records] == [0, 1]
        assert [r.amount for r in result.block.records] == ["2", "3"]
        # a second round chains onto the first
        second = run_trading_round(
            build_world(instance, HashStubScheme(), seed=8), instance
        )
        assert second.block.previous_hash == "0" * 64
        world2, instance2 = build_world(instance, HashStubScheme(), seed=9), instance
        world2.authority.account.balance = Fraction(20)
        first = run_trading_round(world2, instance2)
        follow = run_trading_round(world2, instance2)
        assert follow.block.index == 1
        assert follow.block.previous_hash == first.block.hash

    def test_transcript_walks_the_protocol(self, world):
        world, instance = world
        result = run_trading_round(world, instance)
        kinds = [m.kind for m in result.sessions[0].transcript]
        assert kinds == [
            MessageKind.PUBLISH,
            MessageKind.REQUEST,
            MessageKind.ORDER,
            MessageKind.DATA,
            MessageKind.CONFIRM,
        ]
        stamps = [m.timestamp for m in result.sessions[0].transcript]
        assert stamps == sorted(stamps)

    def test_ledger_csv(self, world, tmp_path):
        world, instance = world
        run_trading_round(world, instance)
        out = tmp_path / "ledger.csv"
        write_ledger_csv(world, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "session_id,ta_id,vehicle_id,payment,block_id"
        assert lines[1] == "round-0/vehicle-0,authority,0,2,0"
        assert lines[2] == "round-0/vehicle-1,authority,1,3,0"

    def test_zero_vehicles_is_an_empty_round(self):
        instance = paper_example()
        empty = replace(instance, vehicles=())
        world = build_world(empty, HashStubScheme(), seed=1)
        result = run_trading_round(world, empty)
        assert result.sessions == {}
        assert result.outcome.winners == ()
        assert result.records == () and result.block is None
        assert world.authority.account.balance == Fraction(5)


class TestFailureModes:
    def test_replayed_message_is_stale(self, world):
        world, instance = world
        result = run_trading_round(world, instance)
        session = result.sessions[0]
        delivery = next(
            m for m in session.transcript if m.kind is MessageKind.DATA
        )
        plaintext, reason = verify_message(
            world,
            delivery,
            world.vehicles[0].certificate,
            world.authority.keys.private,
            session.last_timestamp,
        )
        assert plaintext is None
        assert reason == "stale timestamp"

    def test_payment_happens_exactly_once(self, world):
        world, instance = world
        result = run_trading_round(world, instance)
        session = result.sessions[0]
        with pytest.raises(ProtocolError, match="cannot pay"):
            pay_winner(world, session, Fraction(2))
        assert world.vehicles[0].account.balance == Fraction(2)

    def test_payment_beyond_the_balance_is_refused(self, world):
        # a round checks the quoted total first; a direct call is checked too
        world, _ = world
        session = TradingSession(vehicle_id=0, state=SessionState.DATA_DELIVERED)
        with pytest.raises(ProtocolError, match="authority balance insufficient"):
            pay_winner(world, session, Fraction(6))
        assert session.state is SessionState.DATA_DELIVERED and session.paid_amount is None
        assert world.authority.account.balance == 5 and world.vehicles[0].account.balance == 0

    def test_corrupted_certificate_excludes_vehicle(self):
        instance = paper_example()
        world = build_world(
            instance, HashStubScheme(), seed=7, authority_balance=Fraction(50)
        )
        honest = world.vehicles[0].certificate
        world.vehicles[0].certificate = Certificate(
            subject=honest.subject,
            public_key=honest.public_key,
            signature=b"\x00" * len(honest.signature),
        )
        start = world.total_balance()
        result = run_trading_round(world, instance)
        assert result.excluded == frozenset({0})
        assert result.sessions[0].failure == "request: bad certificate"
        # the auction re-ran on the survivors and both won, vehicle 2 first
        # because its unit gain is higher once vehicle 0 is gone
        assert result.outcome.winners == (2, 1)
        assert result.sessions[1].state is SessionState.CONFIRMED
        assert result.sessions[2].state is SessionState.CONFIRMED
        assert world.vehicles[0].account.balance == Fraction(0)
        assert world.total_balance() == start

    def test_corrupted_request_signature_excludes_vehicle(self):
        instance = paper_example()
        world = build_world(
            instance, HashStubScheme(), seed=7, authority_balance=Fraction(50)
        )
        result = run_trading_round(world, instance, tamper=_zero_request_signature)
        assert result.excluded == frozenset({0})
        assert result.sessions[0].failure == "request: bad signature"
        assert result.sessions[1].state is SessionState.CONFIRMED
        assert result.sessions[2].state is SessionState.CONFIRMED

    @pytest.mark.parametrize("state", list(SessionState))
    def test_payment_only_flows_from_delivered_state(self, world, state):
        # every state but the delivery checkpoint refuses to pay, so the
        # machine cannot skip forward to the transfer
        world, instance = world
        session = TradingSession(vehicle_id=0)
        session.state = state
        if state is SessionState.DATA_DELIVERED:
            pay_winner(world, session, Fraction(1))
            assert session.state is SessionState.PAID
        else:
            with pytest.raises(ProtocolError):
                pay_winner(world, session, Fraction(1))

    def test_tampered_delivery_rejected_before_payment(self, world):
        world, instance = world
        start = world.total_balance()

        def flip_last_byte(message):
            if message.kind is not MessageKind.DATA:
                return message
            if message.sender != "vehicle-0":
                return message
            body = message.body[:-1] + bytes([message.body[-1] ^ 1])
            return replace(message, body=body)

        result = run_trading_round(world, instance, tamper=flip_last_byte)
        assert result.sessions[0].state is SessionState.ABORTED
        assert result.sessions[0].failure == "data: bad signature"
        assert result.sessions[0].paid_amount is None
        assert world.vehicles[0].account.balance == Fraction(0)
        # the untouched winner still completed
        assert result.sessions[1].state is SessionState.CONFIRMED
        assert world.total_balance() == start

    def test_bad_data_rejected(self, world):
        world, instance = world
        result = run_trading_round(
            world, instance, data_check=lambda vid, tasks, readings: False
        )
        assert result.sessions[0].failure == "data rejected"
        assert result.sessions[1].failure == "data rejected"
        assert world.authority.account.balance == Fraction(5)
        assert result.block is None

    @pytest.mark.parametrize(
        "kind, affected",
        [
            (MessageKind.REQUEST, {0, 1, 2}),
            (MessageKind.ORDER, {0, 1}),
            (MessageKind.DATA, {0, 1}),
            (MessageKind.CONFIRM, {0, 1}),
        ],
        ids=["request", "order", "data", "confirm"],
    )
    def test_every_leg_aborts_on_a_bad_signature(self, kind, affected):
        # every leg appends its message, verifies it, and aborts with
        # "<leg>: <reason>"; only the leg's own sessions are touched
        instance = paper_example()
        world = build_world(instance, _RejectingStub(f"{kind.value}|".encode()), seed=7)
        start = world.total_balance()
        result = run_trading_round(world, instance)
        for vid, session in result.sessions.items():
            if vid not in affected:
                assert session.failure == "lost auction"
                continue
            assert session.state is SessionState.ABORTED
            assert session.failure == f"{kind.name.lower()}: bad signature"
            assert session.transcript[-1].kind is kind
            paid = kind is MessageKind.CONFIRM  # paid before the confirm leg
            assert (session.paid_amount is not None) is paid
            assert (world.vehicles[vid].account.balance > 0) is paid
        assert result.records == () and result.block is None and world.ledger == []
        assert world.total_balance() == start

    def test_underfunded_authority_aborts_before_any_transfer(self):
        instance = paper_example()
        world = build_world(
            instance, HashStubScheme(), seed=7, authority_balance=Fraction(1)
        )
        result = run_trading_round(world, instance)
        assert result.records == ()
        assert result.block is None
        for vid in result.outcome.winners:
            assert result.sessions[vid].failure == "authority balance insufficient"
        assert world.authority.account.balance == Fraction(1)
        assert all(
            p.account.balance == Fraction(0) for p in world.vehicles.values()
        )


# What verify_message can report, in the order it checks.
VERIFY_REASONS = ("malformed message", "bad certificate", "certificate subject mismatch",
                  "bad signature", "no decryption key", "undecryptable", "stale timestamp",
                  "future timestamp")
# The text of every way a session can abort in a round, and of no other.
# Each broadcast and leg failure reads "<stage>: <cause>"; the round never
# withholds a decryption key, never encrypts or tampers with the broadcast,
# and checks it against timestamp 0, stamps each order and confirm with the
# world's next timestamp, and only requests and deliveries pass through
# tamper.
_CHECKED = ("bad certificate", "certificate subject mismatch", "bad signature")
_DECRYPTED = (*_CHECKED, "undecryptable")
_TAMPERED = ("wrong kind", "wrong session", "malformed message", *_DECRYPTED,
             "stale timestamp", "future timestamp", "malformed payload")
FAILURE_TEXTS = {
    **{("broadcast", cause): f"broadcast: {cause}" for cause in _CHECKED},
    **{(stage, cause): f"{stage}: {cause}" for stage in ("order", "confirm")
       for cause in _DECRYPTED},
    **{(stage, cause): f"{stage}: {cause}" for stage in ("request", "data")
       for cause in _TAMPERED},
    ("request", "inconsistent payload"): "request: inconsistent payload",
    ("auction", "lost"): "lost auction",
    ("funding", "insufficient"): "authority balance insufficient",
    ("data", "rejected"): "data rejected",
}

# One pair per abort site of the round, with the text each site wrote
# before sessions kept the pair: the broadcast, a leg's verification, the
# request's parse and its consistency check, the auction, the funding
# check, the delivery's parse and the data check.
SITE_TEXTS = [
    (("broadcast", "bad certificate"), "broadcast: bad certificate"),
    (("data", "stale timestamp"), "data: stale timestamp"),
    (("request", "malformed payload"), "request: malformed payload"),
    (("request", "inconsistent payload"), "request: inconsistent payload"),
    (("auction", "lost"), "lost auction"),
    (("funding", "insufficient"), "authority balance insufficient"),
    (("data", "malformed payload"), "data: malformed payload"),
    (("data", "rejected"), "data rejected"),
]


class TestClosedFailureSet:
    def test_every_pair_reads_its_text(self):
        assert FAILURES == FAILURE_TEXTS
        assert {type(text) for text in FAILURES.values()} == {str}

    @pytest.mark.parametrize("pair, text", SITE_TEXTS, ids=[t for _, t in SITE_TEXTS])
    def test_a_site_reads_as_it_did(self, pair, text):
        session = TradingSession(vehicle_id=0)
        session.abort(*pair)
        assert session.state is SessionState.ABORTED and session.cause == pair
        # the CLI prints it inside an f-string, which test_10 hashes
        assert f"({session.failure})" == f"({text})" and type(session.failure) is str

    @pytest.mark.parametrize("pair", [
        ("auction", "rejected"), ("data", "data rejected"), ("lost auction", ""),
        ("broadcast", "malformed payload"), ("Data", "rejected"), ("data", ("rejected",)),
    ])
    @pytest.mark.parametrize("before", [None, ("auction", "lost")])
    def test_abort_refuses_a_pair_outside_the_set(self, pair, before):
        session = TradingSession(vehicle_id=0)
        if before:
            session.abort(*before)
        state, failure = session.state, session.failure
        with pytest.raises(ValueError, match="no failure"):
            session.abort(*pair)
        assert (session.state, session.cause, session.failure) == (state, before, failure)

    def test_a_session_starts_without_a_failure(self):
        session = TradingSession(vehicle_id=0)
        assert session.cause is None and session.failure is None


# Payloads no leg accepts, each spelled as its sender's ``repr`` would be
# or as raw bytes: a literal of the wrong shape, a right-shaped tuple with
# one field of the wrong type (nested literals included), text that is no
# literal, and bytes that are no UTF-8. The fields a leg expects are
# (str, int, tuple of ints, nonnegative real) for a request and (str, int,
# tuple) for a delivery.
_LITERALS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(st.integers(), inner, max_size=2)
    ),
    max_leaves=6,
)
_FIELD_OK = {
    MessageKind.REQUEST: (
        lambda v: type(v) is str,
        lambda v: type(v) is int,
        lambda v: type(v) is tuple and all(type(t) is int for t in v),
        lambda v: type(v) in (int, float) and as_real(v) is not None and v >= 0,
    ),
    MessageKind.DATA: (
        lambda v: type(v) is str,
        lambda v: type(v) is int,
        lambda v: type(v) is tuple,
    ),
}
_NOT_LITERALS = [
    b"", b"\x00", b"(", b"nan", b"print(1)", b"('data', 1, readings)", b"__import__('os')",
    b"[" * 300 + b"]" * 300, b"1" * 5000, b"('data', 1, ())[0]", b"{[1]: 2}",
    b"-" * 3000 + b"1", b"-" * 20000 + b"1",  # too deep: RecursionError, MemoryError
]


@st.composite
def malformed_payloads(draw):
    """(leg, plaintext) of a request or a delivery that no leg accepts."""
    kind = draw(st.sampled_from([MessageKind.REQUEST, MessageKind.DATA]))
    checks = _FIELD_OK[kind]
    honest = (kind.name.lower(), 1, (0, 1), 3.0)[: len(checks)]
    form = draw(st.sampled_from(["arity", "type", "not a literal", "not utf-8"]))
    if form == "arity":
        fields = draw(st.lists(_LITERALS, max_size=6).filter(lambda f: len(f) != len(checks)))
        value = draw(st.sampled_from([tuple(fields), fields, draw(_LITERALS)]))
        if type(value) is tuple and len(value) == len(checks):
            value = (*value, None)
        return kind, repr(value).encode()
    if form == "type":
        i = draw(st.integers(0, len(checks) - 1))
        wrong = draw(_LITERALS.filter(lambda v: not checks[i](v)))
        return kind, repr((*honest[:i], wrong, *honest[i + 1 :])).encode()
    if form == "not a literal":
        return kind, draw(st.sampled_from(_NOT_LITERALS))
    return kind, draw(st.binary(max_size=8)) + b"\xff" + draw(st.binary(max_size=8))


def _signed_as_sent(world, message, plaintext):
    """``message`` carrying ``plaintext``, encrypted for the authority and
    signed by its own sender, so only the payload is wrong."""
    body = world.scheme.encrypt(world.authority.keys.public, plaintext, np.random.default_rng(0))
    return _signed_by(world, replace(message, body=body), _vid(message.sender))


@settings(max_examples=150)
@given(case=malformed_payloads())
def test_a_malformed_payload_aborts_only_its_session(case):
    kind, plaintext = case
    instance = paper_example()
    world = build_world(instance, HashStubScheme(), seed=7, authority_balance=Fraction(50))
    start = world.total_balance()

    def tamper(message):
        if message.kind is kind and message.sender == "vehicle-1":
            return _signed_as_sent(world, message, plaintext)
        return message

    result = run_trading_round(world, instance, tamper=tamper)
    bad = result.sessions[1]
    assert bad.state is SessionState.ABORTED
    assert bad.failure == f"{kind.name.lower()}: malformed payload"
    assert bad.transcript[-1].kind is kind and bad.paid_amount is None
    assert world.vehicles[1].account.balance == 0
    assert (1 in result.excluded) is (kind is MessageKind.REQUEST)
    for vid, session in result.sessions.items():
        if vid == 1:
            continue
        won = vid in result.outcome.winners
        assert session.failure == (None if won else "lost auction")
        assert (session.state is SessionState.CONFIRMED) is won
    confirmed = [v for v, s in result.sessions.items() if s.state is SessionState.CONFIRMED]
    assert confirmed  # vehicle 0 wins with or without vehicle 1
    assert [r.vehicle_id for r in result.block.records] == confirmed
    assert world.total_balance() == start


@pytest.mark.parametrize("bid", ["1e999", "-1e999", "-5.0", str(10**400)],
                         ids=["1e999", "-1e999", "-5.0", "10**400"])
def test_a_request_whose_bid_is_no_nonnegative_real_is_malformed(bid):
    # the bid as the plaintext spells it: 1e999 reads as inf, and 10**400
    # is an int beyond the float range
    instance = paper_example()
    subset = tuple(sorted(instance.vehicles[1].task_subset))
    plaintext = f"('request', 1, {subset!r}, {bid})".encode()
    world = build_world(instance, HashStubScheme(), seed=7, authority_balance=Fraction(50))
    start = world.total_balance()

    def tamper(message):
        if message.kind is MessageKind.REQUEST and message.sender == "vehicle-1":
            return _signed_as_sent(world, message, plaintext)
        return message

    result = run_trading_round(world, instance, tamper=tamper)
    assert result.sessions[1].failure == "request: malformed payload"
    assert result.excluded == frozenset({1})
    assert world.vehicles[1].account.balance == 0
    assert result.sessions[0].state is SessionState.CONFIRMED
    assert world.total_balance() == start


# Bids that an instance holds and whose repr reads back only if written
# exactly: a negative zero, the least subnormal, a bid near the float
# maximum, and integral floats, beside any finite nonnegative float.
_EDGE_BIDS = [-0.0, 0.0, 5e-324, 1e308, 3.0, 2.0**53, 1e16]
_BIDS = st.sampled_from(_EDGE_BIDS) | st.floats(0.0, allow_nan=False, allow_infinity=False)


@st.composite
def maps_with_bids(draw):
    instance = generate_scenario(ScenarioConfig(
        n_tasks=draw(st.integers(1, 30)), n_vehicles=draw(st.integers(1, 40)),
        budget=10.0, rng_seed=draw(st.integers(0, 2**32 - 1)), city_side=80.0,
    ))
    bids = draw(st.lists(_BIDS, min_size=len(instance.vehicles),
                         max_size=len(instance.vehicles)))
    vehicles = tuple(replace(v, bid=bid) for v, bid in zip(instance.vehicles, bids))
    return replace(instance, vehicles=vehicles)


@given(instance=maps_with_bids())
def test_an_honest_payload_parses_to_the_tuple_sent(instance):
    # the slow parsers are the oracle of _Round.read's byte comparison:
    # on every plaintext a round sends, they must return the very fields
    # sent, compared by repr because -0.0 == 0.0
    world = build_world(instance, HashStubScheme(), seed=1)
    round_ = trading._Round(world, instance, None)
    requests = round_.publish_and_request()
    for vid in requests:
        plaintext, sent = round_.sent[vid]
        assert plaintext == repr(sent).encode()
        assert repr(trading._parse_request(plaintext)) == repr(sent)
        data = ("data", vid, trading._sensor_readings(vid, round_.subset_of[vid]))
        assert repr(trading._parse_data(repr(data).encode())) == repr(data)
    round_.vet(requests)
    assert all(s.state is SessionState.REQUESTED for s in round_.sessions.values())


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("kind", [MessageKind.REQUEST, MessageKind.DATA])
def test_an_honest_plaintext_encrypted_again_still_confirms(scheme, kind):
    # new ciphertext bytes around the same plaintext: the leg verifies and
    # decrypts them in full, and the payload is the one that was sent
    instance = paper_example()

    def play(reencrypt):
        world = build_world(instance, scheme(), seed=7, authority_balance=Fraction(50))
        bodies = []

        def tamper(message):
            if not reencrypt or message.kind is not kind or message.sender != "vehicle-0":
                return message
            plaintext = world.scheme.decrypt(world.authority.keys.private, message.body)
            forged = _signed_as_sent(world, message, plaintext)
            bodies.append((message.body, forged.body))
            return forged

        return run_trading_round(world, instance, tamper=tamper), bodies

    honest, _ = play(False)
    result, bodies = play(True)
    assert len(bodies) == 1 and bodies[0][0] != bodies[0][1]
    assert [s.state for s in result.sessions.values()] == \
        [s.state for s in honest.sessions.values()]
    assert result.sessions[0].state is SessionState.CONFIRMED
    assert result.block.hash == honest.block.hash


def test_the_mechanism_sees_the_round_instance_unless_a_vehicle_is_excluded():
    instance = paper_example()
    seen = []

    def mechanism(survivors):
        seen.append(survivors)
        return MECHANISMS["tbsap"](survivors)

    world = build_world(instance, HashStubScheme(), seed=7, authority_balance=Fraction(50))
    run_trading_round(world, instance, mechanism=mechanism)
    run_trading_round(world, instance, mechanism=mechanism, tamper=_zero_request_signature)
    assert seen[0] is instance
    assert seen[1].vehicles == tuple(replace(v, id=v.id - 1) for v in instance.vehicles[1:])


def test_a_vehicle_the_world_holds_no_keys_for_is_refused_before_anything_is_signed():
    world = build_world(paper_example(), HashStubScheme())
    instance = dense_scenario(0, n_vehicles=40)
    missing = next(v.id for v in instance.vehicles if v.id not in world.vehicles)
    with pytest.raises(ValueError, match=f"^vehicle {missing} has no keys in this world$"):
        run_trading_round(world, instance)
    assert (world.clock, world.ledger, world.total_balance()) == (0, [], Fraction(5))


@pytest.mark.parametrize("scheme, instance", [
    (HashStubScheme, paper_example()),
    (Ed25519X25519Scheme, dense_scenario(3)),
], ids=["paper example, stub", "generated map, real"])
def test_a_record_holds_its_delivery_digest_and_confirm_time(scheme, instance):
    # the record is the one home of both: the session keeps no copy
    world = build_world(instance, scheme(), seed=5, authority_balance=Fraction(10**6))
    result = run_trading_round(world, instance)
    assert len(result.records) == len(result.outcome.winners) > 0
    for record in result.records:
        *_, delivery, confirm = result.sessions[record.vehicle_id].transcript
        assert (delivery.kind, confirm.kind) == (MessageKind.DATA, MessageKind.CONFIRM)
        plaintext = world.scheme.decrypt(world.authority.keys.private, delivery.body)
        assert record.data_digest == hashlib.sha256(plaintext).hexdigest()
        assert record.confirmed_at == confirm.timestamp
    assert {"data_digest", "confirmed_at"}.isdisjoint(f.name for f in fields(TradingSession))


# A leg accepts only the message that its send half makes. The set-ups
# below run on the paper's example at seed 7 with a balance of 50, where
# vehicles 0 and 1 win and vehicle 2 loses. Each is a function of the world
# that returns run_trading_round's keywords.
_LOW_ORDER = (bytes(32), (1).to_bytes(32, "little"))  # X25519 points with no shared key


def _plain(world):
    return {}


def _example_round(setup=_plain, scheme=HashStubScheme):
    instance = paper_example()
    world = build_world(instance, scheme(), seed=7, authority_balance=Fraction(50))
    return world, run_trading_round(world, instance, **setup(world))


def _altered(leg, resign=True, **fields):
    """A set-up whose tamper replaces ``fields`` of vehicle 0's message on
    ``leg``, each by a value or by a function of the world and the message,
    and then signs it again with vehicle 0's key, unless ``resign`` is
    false."""
    def setup(world):
        def tamper(message):
            if message.kind is not leg or message.sender != "vehicle-0":
                return message
            message = replace(message, **{name: value(world, message) if callable(value) else value
                                          for name, value in fields.items()})
            return _signed_by(world, message, 0) if resign else message
        return {"tamper": tamper}
    return setup


def _in_clear(world, message):
    return world.scheme.decrypt(world.authority.keys.private, message.body)


def _sealed(plaintext):
    """A body: ``plaintext`` encrypted for the authority."""
    return lambda world, message: world.scheme.encrypt(
        world.authority.keys.public, plaintext, np.random.default_rng(0))


def _recertify(name, subject=None):
    """A change to the world: the certificate of ``name`` replaced by one the
    CA did not sign or, given ``subject``, by a valid one naming ``subject``."""
    def change(world):
        owner = world.authority if name == "authority" else world.vehicles[_vid(name)]
        cert = owner.certificate
        owner.certificate = (world.ca.issue(subject, cert.public_key) if subject
                             else replace(cert, signature=bytes(len(cert.signature))))
    return change


def _now(change):
    """A set-up that changes the world before the round."""
    return lambda world: change(world) or {}


def _before_serving(change):
    """A set-up whose mechanism changes the world after vetting, before the
    first order."""
    def setup(world):
        return {"mechanism": lambda instance: change(world) or tbsap(instance)}
    return setup


def _before_confirm(change):
    """A set-up whose data check changes the world after vehicle 0's data leg,
    before its confirm."""
    def setup(world):
        def data_check(vid, tasks, readings):
            if vid == 0:
                change(world)
            return trading._default_data_check(vid, tasks, readings)
        return {"data_check": data_check}
    return setup


def _assert_same_but(vid, world, result, ref_world, ref):
    """Two rounds alike but for session ``vid``'s cause and last message."""
    mine, theirs = result.sessions[vid], ref.sessions[vid]
    assert mine.transcript[:-1] == theirs.transcript[:-1]
    assert replace(mine, transcript=[], cause=None) == replace(theirs, transcript=[], cause=None)
    assert {v: s for v, s in result.sessions.items() if v != vid} == \
        {v: s for v, s in ref.sessions.items() if v != vid}
    assert (result.outcome, result.excluded, result.records, result.block) == \
        (ref.outcome, ref.excluded, ref.records, ref.block)
    assert world.ledger == ref_world.ledger
    assert world.authority.account == ref_world.authority.account
    assert [p.account for p in world.vehicles.values()] == \
        [p.account for p in ref_world.vehicles.values()]


REQ, DAT = MessageKind.REQUEST, MessageKind.DATA

# Requests and deliveries that vehicle 0 signs with its own key and that
# were paid, or crashed the round, before legs checked their kind, session
# and field types: sent in the clear, sent as a confirm, sent in another
# session, a body whose ephemeral key is a low-order point (it crashed the
# real scheme), and a timestamp, body or signature of the wrong type (each
# crashed the round, but for 2.5, which was paid). Text cannot be signed.
# Then two stamped later than the world's clock, before legs bounded a
# timestamp from above: such a delivery was paid and made its own confirm
# stale, and such a request won the auction, made vehicle 2 lose, and made
# its own order stale.
REPROS = {
    "request from the future": (HashStubScheme, REQ, {"timestamp": 10**6}, "future timestamp"),
    "delivery from the future": (HashStubScheme, DAT, {"timestamp": 10**6}, "future timestamp"),
    "request in clear": (HashStubScheme, REQ, {"body": _in_clear}, "undecryptable"),
    "request in clear, real": (Ed25519X25519Scheme, REQ, {"body": _in_clear}, "undecryptable"),
    "request as confirm": (HashStubScheme, REQ, {"kind": MessageKind.CONFIRM}, "wrong kind"),
    "delivery as confirm": (HashStubScheme, DAT, {"kind": MessageKind.CONFIRM}, "wrong kind"),
    "request, other session": (HashStubScheme, REQ, {"session_id": "round-9/vehicle-3"},
                               "wrong session"),
    "delivery, other session": (HashStubScheme, DAT, {"session_id": "round-9/vehicle-3"},
                                "wrong session"),
    **{f"request, low-order key {i}": (Ed25519X25519Scheme, REQ, {"body": point + bytes(48)},
                                       "undecryptable")
       for i, point in enumerate(_LOW_ORDER)},
    **{f"{field}={value!r}, {scheme.__name__}": (scheme, REQ, {field: value}, "malformed message")
       for scheme in SCHEMES
       for field, value in (("timestamp", "99"), ("timestamp", 2.5), ("body", "text"),
                            ("signature", "text"))},
}


@pytest.mark.parametrize("scheme, kind, fields, cause", REPROS.values(), ids=REPROS)
def test_a_leg_refuses_a_message_its_send_half_did_not_make(scheme, kind, fields, cause):
    world, result = _example_round(_altered(kind, "text" not in fields.values(), **fields), scheme)
    session = result.sessions[0]
    assert session.cause == (kind.name.lower(), cause)
    assert session.paid_amount is None and world.vehicles[0].account.balance == 0
    # the rest of the round is the round where that leg's signature is zeroed
    ref_world, ref = _example_round(lambda w: {"tamper": _zero_signature(kind)}, scheme)
    _assert_same_but(0, world, result, ref_world, ref)
    assert result.sessions[1].state is SessionState.CONFIRMED


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_request_in_the_clear_is_too_short_to_decrypt(scheme):
    world, result = _example_round(_altered(REQ, body=_in_clear), scheme)
    request = result.sessions[0].transcript[-1]
    assert result.sessions[0].failure == "request: undecryptable"
    with pytest.raises(DecryptionError, match="ciphertext too short"):
        world.scheme.decrypt(world.authority.keys.private, request.body)


def _scheme(make, *args):
    return lambda: make(*args)


def _overquoted(world):
    """A set-up whose mechanism quotes each winner more than the balance."""
    def mechanism(instance):
        outcome = tbsap(instance)
        return replace(outcome, payments={w: 60.0 for w in outcome.winners})
    return {"mechanism": mechanism}


# For every pair in FAILURES, a set-up that makes a round reach it, for
# vehicle 0 (vehicle 2 for the lost auction), and the scheme it runs on. A
# timestamp of 1 is the broadcast's; 10**6 is later than any of the round.
REACHED = {
    ("broadcast", "bad certificate"): (_now(_recertify("authority")), HashStubScheme),
    ("broadcast", "certificate subject mismatch"):
        (_now(_recertify("authority", "vehicle-0")), HashStubScheme),
    ("broadcast", "bad signature"): (_plain, _scheme(_RejectingStub, b"PUB|")),
    ("request", "wrong kind"): (_altered(REQ, kind=MessageKind.ORDER), HashStubScheme),
    ("request", "wrong session"): (_altered(REQ, session_id="round-0/vehicle-1"), HashStubScheme),
    ("request", "malformed message"): (_altered(REQ, sender=None), HashStubScheme),
    ("request", "bad certificate"): (_now(_recertify("vehicle-0")), HashStubScheme),
    ("request", "certificate subject mismatch"):
        (_altered(REQ, sender="vehicle-1"), HashStubScheme),
    ("request", "bad signature"): (_altered(REQ, False, signature=bytes(32)), HashStubScheme),
    ("request", "undecryptable"): (_altered(REQ, body=_in_clear), HashStubScheme),
    ("request", "stale timestamp"): (_altered(REQ, timestamp=1), HashStubScheme),
    ("request", "future timestamp"): (_altered(REQ, timestamp=10**6), HashStubScheme),
    ("request", "malformed payload"): (_altered(REQ, body=_sealed(b"(")), HashStubScheme),
    ("request", "inconsistent payload"):
        (_altered(REQ, body=_sealed(b"('request', 0, (), 1.0)")), HashStubScheme),
    ("auction", "lost"): (_plain, HashStubScheme),
    ("funding", "insufficient"): (_overquoted, HashStubScheme),
    ("order", "bad certificate"): (_before_serving(_recertify("authority")), HashStubScheme),
    ("order", "certificate subject mismatch"):
        (_before_serving(_recertify("authority", "vehicle-0")), HashStubScheme),
    ("order", "bad signature"): (_plain, _scheme(_RejectingStub, b"ORD|")),
    ("order", "undecryptable"): (_plain, _scheme(_DeafStub, b"('order'")),
    ("data", "wrong kind"): (_altered(DAT, kind=MessageKind.REQUEST), HashStubScheme),
    ("data", "wrong session"): (_altered(DAT, session_id="round-1/vehicle-0"), HashStubScheme),
    ("data", "malformed message"): (_altered(DAT, False, signature=None), HashStubScheme),
    ("data", "bad certificate"): (_before_serving(_recertify("vehicle-0")), HashStubScheme),
    ("data", "certificate subject mismatch"):
        (_altered(DAT, sender="vehicle-2"), HashStubScheme),
    ("data", "bad signature"): (_altered(DAT, False, timestamp=10**6), HashStubScheme),
    ("data", "undecryptable"): (_altered(DAT, body=bytes(80)), HashStubScheme),
    ("data", "stale timestamp"):
        (_altered(DAT, timestamp=lambda world, m: m.timestamp - 1), HashStubScheme),
    ("data", "future timestamp"): (_altered(DAT, timestamp=10**6), HashStubScheme),
    ("data", "malformed payload"): (_altered(DAT, body=_sealed(b"('data', 0)")), HashStubScheme),
    ("data", "rejected"): (lambda world: {"data_check": lambda *_: False}, HashStubScheme),
    ("confirm", "bad certificate"): (_before_confirm(_recertify("vehicle-0")), HashStubScheme),
    ("confirm", "certificate subject mismatch"):
        (_before_confirm(_recertify("vehicle-0", "vehicle-1")), HashStubScheme),
    ("confirm", "bad signature"): (_plain, _scheme(_RejectingStub, b"CON|")),
    ("confirm", "undecryptable"): (_plain, _scheme(_DeafStub, b"('confirm'")),
}


def test_every_pair_in_failures_has_a_round_that_reaches_it():
    assert set(REACHED) == set(FAILURES) and len(FAILURES) == 35


@pytest.mark.parametrize("pair", REACHED, ids=[": ".join(pair) for pair in REACHED])
def test_a_round_reaches_the_pair(pair):
    setup, scheme = REACHED[pair]
    world, result = _example_round(setup, scheme)
    vid = 2 if pair == ("auction", "lost") else 0
    session = result.sessions[vid]
    assert session.state is SessionState.ABORTED and session.cause == pair
    # only a failed confirm comes after the payment
    assert (world.vehicles[vid].account.balance > 0) is (pair[0] == "confirm")
    assert vid not in [r.vehicle_id for r in result.records]
    assert world.total_balance() == 50


# One field of a request or a delivery, mutated in flight: a value, or a
# function of the field's old value, the leg's last timestamp (the one its
# session last accepted) and the message's plaintext.
def _flip(old, last, clear):
    return old[:-1] + bytes([old[-1] ^ 1])


def _from_last(d):
    return lambda old, last, clear: last + d


def _from_own(d):
    return lambda old, last, clear: old + d


_FIELD_VALUES = {
    "kind": st.sampled_from([*MessageKind, "REQ", None]),
    "sender": st.sampled_from(["vehicle-0", "vehicle-1", "authority", "", 0, None, b"vehicle-0"]),
    "session_id": st.sampled_from(["round-9/vehicle-3", "round-0/vehicle-0", "round-0/vehicle-1",
                                   "round-0", "", None, b"round-0/vehicle-0"]),
    "timestamp": st.integers(-2, 2).map(_from_last) | st.integers(-2, 2).map(_from_own)
    | st.integers(-2**64, 2**64) | st.sampled_from(["99", 2.5, 1.0, True, None]),
    "body": st.sampled_from([
        _flip, lambda old, last, clear: clear, lambda old, last, clear: old.hex(),
        lambda old, last, clear: bytearray(old), b"", *(p + bytes(48) for p in _LOW_ORDER),
    ]) | st.binary(max_size=100),
    "signature": st.sampled_from([_flip, lambda old, last, clear: old.hex(), None, b""])
    | st.binary(max_size=80),
}


def _expected_cause(sent, received, resigned, last, now):
    """The cause a leg must abort with when ``sent`` arrives as ``received``,
    signed again by its sender or not, at a session whose last timestamp is
    ``last`` in a world whose clock reads ``now``; None if it must accept
    it."""
    if received.kind is not sent.kind:
        return "wrong kind"
    if received.session_id != sent.session_id:
        return "wrong session"
    types = (type(received.sender), type(received.timestamp), type(received.body),
             type(received.signature))
    if types != (str, int, bytes, bytes):
        return "malformed message"
    if received.sender != sent.sender:
        return "certificate subject mismatch"
    if received == sent:
        return None
    if not resigned:
        return "bad signature"
    if received.body != sent.body:
        return "undecryptable"
    if received.timestamp <= last:
        return "stale timestamp"
    return "future timestamp" if received.timestamp > now else None


@st.composite
def small_maps(draw):
    return generate_scenario(ScenarioConfig(
        n_tasks=draw(st.integers(1, 15)), n_vehicles=draw(st.integers(1, 15)),
        budget=10.0, rng_seed=draw(st.integers(0, 2**32 - 1)), city_side=80.0,
    ))


@settings(max_examples=150)
@given(instance=small_maps().filter(lambda instance: instance.vehicles),
       scheme=st.sampled_from(SCHEMES), seed=st.integers(0, 2**16), data=st.data())
def test_a_mutated_leg_on_a_generated_map_aborts_only_its_session(instance, scheme, seed, data):
    def play(tamper=lambda world: None):
        world = build_world(instance, scheme(), seed=seed, authority_balance=Fraction(10**6))
        return world, run_trading_round(world, instance, tamper=tamper(world))

    _, honest = play()
    winners = [v for v, s in honest.sessions.items() if s.state is SessionState.CONFIRMED]
    kind = data.draw(st.sampled_from([REQ, DAT] if winners else [REQ]))
    vid = data.draw(st.sampled_from(winners if kind is DAT else sorted(honest.sessions)))
    field = data.draw(st.sampled_from(sorted(_FIELD_VALUES)))
    value = data.draw(_FIELD_VALUES[field])
    resigned = field != "signature" and data.draw(st.booleans())
    at = 1 if kind is REQ else 3  # the leg's place in its transcript
    sent = honest.sessions[vid].transcript[at]
    last = honest.sessions[vid].transcript[at - 1].timestamp
    # the world's clock as the leg receives: every request is sent before
    # any is received, and a delivery is received as soon as it is sent
    now = sent.timestamp if kind is DAT else \
        max(s.transcript[at].timestamp for s in honest.sessions.values())
    received = []

    def mutate(world):
        def tamper(message):
            if message.kind is not kind or message.sender != f"vehicle-{vid}":
                return message
            assert message == sent
            clear = world.scheme.decrypt(world.authority.keys.private, message.body)
            new = value(getattr(message, field), last, clear) if callable(value) else value
            message = replace(message, **{field: new})
            if resigned:
                try:
                    message = _signed_by(world, message, vid)
                except (AttributeError, TypeError):  # a kind or a body that cannot be signed
                    pass
            received.append(message)
            return message
        return tamper

    world, result = play(mutate)
    (got,) = received
    cause = _expected_cause(sent, got, resigned, last, now)
    session, stage = result.sessions[vid], kind.name.lower()
    event(f"{stage}: {cause or 'accepted'}")
    assert session.transcript[at] == got
    assert world.total_balance() == 10**6
    assert world.vehicles[vid].account.balance == (session.paid_amount or 0)
    if cause:
        assert session.cause == (stage, cause) and session.paid_amount is None
        ref_world, ref = play(lambda world: _zero_signature(kind, vid))
        _assert_same_but(vid, world, result, ref_world, ref)
        return
    # an accepted message is stamped at most at the world's clock, so the
    # session's next leg, which the world stamps later, is fresh: the round
    # is the honest round
    assert {v: (s.state, s.cause, s.paid_amount) for v, s in result.sessions.items()} \
        == {v: (s.state, s.cause, s.paid_amount) for v, s in honest.sessions.items()}
    assert (result.records, result.block) == (honest.records, honest.block)


# A vehicle's request or delivery forged in flight: its signature zeroed, or
# a payload that its own key signs and the authority cannot use, either no
# literal at all or the wrong fields (no tasks requested, no readings sent).
FORGERIES = [(kind, how) for kind in (MessageKind.REQUEST, MessageKind.DATA)
             for how in ("signature", "malformed", "wrong")]
WRONG_PAYLOAD = {
    MessageKind.REQUEST: lambda vid: ("request", vid, (), 1.0),
    MessageKind.DATA: lambda vid: ("data", vid, ()),
}


def _forged(world, message, how):
    if how == "signature":
        return replace(message, signature=b"\x00" * len(message.signature))
    vid = _vid(message.sender)
    plaintext = b"(" if how == "malformed" else repr(WRONG_PAYLOAD[message.kind](vid)).encode()
    return _signed_as_sent(world, message, plaintext)


@st.composite
def generated_rounds(draw):
    """(instance, mechanism name, funding, forged vehicles, seed): a small
    generated map whose subsets overlap, a mechanism it fits, the
    authority's funding, and each forged vehicle's leg and forgery. In a
    round with forgeries, about half of the vehicles forge one leg."""
    name = draw(st.sampled_from(sorted(MECHANISMS)))
    # no more placements than the oracle's limit, so no more vehicles
    placements = BRUTE_FORCE_MAX_VEHICLES if name == "oracle" else 60
    instance = generate_scenario(ScenarioConfig(
        n_tasks=draw(st.integers(1, 30)), n_vehicles=draw(st.integers(0, placements)),
        budget=draw(st.floats(0.5, 40.0)), rng_seed=draw(st.integers(0, 2**32 - 1)),
        city_side=draw(st.floats(40.0, 150.0)),
    ))
    ids = [v.id for v in instance.vehicles] if draw(st.booleans()) else []
    picks = draw(st.lists(st.sampled_from([None] * len(FORGERIES) + FORGERIES),
                          min_size=len(ids), max_size=len(ids)))
    forged = {vid: forgery for vid, forgery in zip(ids, picks) if forgery}
    funding = draw(st.sampled_from(["budget", "quoted", "zero"]))
    return instance, name, funding, forged, draw(st.integers(0, 2**16))


def _due(result):
    return sum(map(Fraction, result.outcome.payments.values()), Fraction(0))


def _play(instance, mechanism, balance, forged, seed):
    world = build_world(instance, HashStubScheme(), seed=seed, authority_balance=balance)

    def tamper(message):
        kind, how = forged.get(_vid(message.sender), (None, None))
        return _forged(world, message, how) if kind is message.kind else message

    return world, run_trading_round(world, instance, mechanism=mechanism, tamper=tamper)


@given(case=generated_rounds())
def test_a_round_on_a_generated_map_settles_exactly_its_confirmed_sessions(case):
    instance, name, funding, forged, seed = case
    mechanism = MECHANISMS[name]
    balance = {"budget": None, "zero": Fraction(0)}.get(funding)
    if funding == "quoted":  # the round's own total: unfunded, it allocates the same
        balance = _due(_play(instance, mechanism, Fraction(0), forged, seed)[1])
    start = Fraction(instance.budget) if balance is None else balance
    event(f"mechanism: {name}")
    event(f"funding: {funding}")
    world, result = _play(instance, mechanism, balance, forged, seed)
    sessions, payments = result.sessions, result.outcome.payments

    assert world.total_balance() == start
    assert sorted(sessions) == [v.id for v in instance.vehicles]
    confirmed = [v for v in sorted(sessions) if sessions[v].state is SessionState.CONFIRMED]
    for vid, session in sessions.items():
        paid = world.vehicles[vid].account.balance
        if vid in confirmed:  # paid its quote, once
            assert session.cause is None
            assert paid == session.paid_amount == Fraction(payments[vid])
            continue
        # every other session aborted with one pair of the set; no confirm
        # leg is forged, so none of them aborted after it was paid
        assert session.state is SessionState.ABORTED and session.cause in FAILURES
        assert session.failure == FAILURES[session.cause]
        assert paid == 0 and session.paid_amount is None
    for stage, cause in sorted({s.cause for s in sessions.values() if s.cause}):
        event(f"failure: {stage} / {cause}")
    assert [r.vehicle_id for r in result.records] == confirmed
    assert [r.amount for r in result.records] == [str(Fraction(payments[v])) for v in confirmed]
    assert world.ledger == ([result.block] if confirmed else [])
    for block in world.ledger:
        assert block.previous_hash == trading.GENESIS_HASH and block.records == result.records
        assert block.hash == trading._block_hash(block.index, block.previous_hash, block.records)

    again_world, again = _play(instance, mechanism, balance, forged, seed)
    assert [s.cause for s in again.sessions.values()] == [s.cause for s in sessions.values()]
    assert [b.hash for b in again_world.ledger] == [b.hash for b in world.ledger]

    if funding == "quoted":
        assert _due(result) == start
    if funding == "budget" and not forged:
        assert bool(confirmed) == (bool(result.outcome.winners) and _due(result) <= start)


class TestCryptoSchemes:
    def test_eavesdropper_cannot_read_requests(self):
        instance = paper_example()
        scheme = Ed25519X25519Scheme()
        world = build_world(instance, scheme, seed=3)
        result = run_trading_round(world, instance)
        request = next(
            m
            for m in result.sessions[0].transcript
            if m.kind is MessageKind.REQUEST
        )
        attacker = scheme.generate_keypair(np.random.default_rng(999))
        with pytest.raises(DecryptionError):
            scheme.decrypt(attacker.private, request.body)

    def test_stub_rejects_wrong_key_too(self):
        scheme = HashStubScheme()
        rng = np.random.default_rng(0)
        alice = scheme.generate_keypair(rng)
        bob = scheme.generate_keypair(rng)
        sealed = scheme.encrypt(alice.public, b"for alice only", rng)
        with pytest.raises(DecryptionError):
            scheme.decrypt(bob.private, sealed)
        assert scheme.decrypt(alice.private, sealed) == b"for alice only"

    def test_stub_knows_only_the_keys_it_minted(self):
        scheme, other = HashStubScheme(), HashStubScheme()
        rng = np.random.default_rng(0)
        foreign = other.generate_keypair(rng)
        signature = other.sign(foreign.private, b"data")
        assert other.verify(foreign.public, b"data", signature)
        assert not scheme.verify(foreign.public, b"data", signature)
        with pytest.raises(ValueError, match="unknown recipient"):
            scheme.encrypt(foreign.public, b"data", rng)

    @pytest.mark.parametrize("point", _LOW_ORDER, ids=["zero", "one"])
    def test_real_scheme_refuses_a_low_order_ephemeral_key(self, point):
        scheme = Ed25519X25519Scheme()
        keys = scheme.generate_keypair(np.random.default_rng(1))
        with pytest.raises(DecryptionError, match="low order"):
            scheme.decrypt(keys.private, point + bytes(48))

    def test_real_scheme_roundtrip_and_signature(self):
        scheme = Ed25519X25519Scheme()
        rng = np.random.default_rng(1)
        keys = scheme.generate_keypair(rng)
        sealed = scheme.encrypt(keys.public, b"payload", rng)
        assert scheme.decrypt(keys.private, sealed) == b"payload"
        signature = scheme.sign(keys.private, b"payload")
        assert scheme.verify(keys.public, b"payload", signature)
        assert not scheme.verify(keys.public, b"other", signature)

    def test_one_key_cache_keeps_the_kinds_of_the_same_bytes_apart(self):
        # 32 bytes read as an Ed25519 and as an X25519 private key: two
        # entries of the one cache, neither a hit for the other
        key = np.random.default_rng([1, 32]).bytes(32)
        parsed = crypto._parsed
        before = parsed.cache_info()
        signing = parsed(crypto._SIGNING, key)
        agreement = parsed(crypto._AGREEMENT, key)
        after = parsed.cache_info()
        assert isinstance(signing, Ed25519PrivateKey)
        assert isinstance(agreement, X25519PrivateKey)
        assert (after.hits, after.misses) == (before.hits, before.misses + 2)
        assert parsed(crypto._SIGNING, key) is signing
        assert parsed(crypto._AGREEMENT, key) is agreement
        assert parsed.cache_info().hits == after.hits + 2
        # the scheme reads both halves of a private key through it
        scheme = Ed25519X25519Scheme()
        public = (signing.public_key().public_bytes_raw()
                  + agreement.public_key().public_bytes_raw())
        assert scheme.verify(public, b"data", scheme.sign(key + key, b"data"))
        sealed = scheme.encrypt(public, b"data", np.random.default_rng(0))
        assert scheme.decrypt(key + key, sealed) == b"data"

    def test_keygen_is_seed_deterministic(self):
        scheme = Ed25519X25519Scheme()
        a = scheme.generate_keypair(np.random.default_rng(42))
        b = scheme.generate_keypair(np.random.default_rng(42))
        c = scheme.generate_keypair(np.random.default_rng(43))
        assert a == b
        assert a.public != c.public

    def test_rounds_are_reproducible(self):
        instance = paper_example()

        def run(seed, scheme):
            world = build_world(instance, scheme, seed=seed)
            result = run_trading_round(world, instance)
            return result, world

        first, world_a = run(11, Ed25519X25519Scheme())
        second, world_b = run(11, Ed25519X25519Scheme())
        for vid in (0, 1, 2):
            wire_a = [(m.body, m.signature) for m in first.sessions[vid].transcript]
            wire_b = [(m.body, m.signature) for m in second.sessions[vid].transcript]
            assert wire_a == wire_b
        assert world_a.ledger[-1].hash == world_b.ledger[-1].hash

    def test_block_hash_is_scheme_independent(self):
        # records hold plaintext digests and amounts, so the chain commits
        # to the trade content, not to the ciphertexts
        instance = paper_example()
        stub_world = build_world(instance, HashStubScheme(), seed=5)
        real_world = build_world(instance, Ed25519X25519Scheme(), seed=5)
        stub = run_trading_round(stub_world, instance)
        real = run_trading_round(real_world, instance)
        assert stub.block.hash == real.block.hash


class TestVerifyMessage:
    @staticmethod
    def request_of(world, instance):
        return run_trading_round(world, instance).sessions[0].transcript[1]

    def test_failure_reasons_come_in_protocol_order(self, world):
        # each case passes every check before the one it fails
        world, instance = world
        request = self.request_of(world, instance)
        cert, key = world.vehicles[0].certificate, world.authority.keys.private
        cases = [
            (replace(request, timestamp=None), cert, key, 0),
            (request, _corrupt(cert, "signature"), key, 0),
            (request, world.vehicles[1].certificate, key, 0),
            (replace(request, body=b"x" + request.body[1:]), cert, key, 0),
            (request, cert, None, 0),
            (request, cert, world.vehicles[1].keys.private, 0),
            (request, cert, key, request.timestamp),
            (_signed_by(world, replace(request, timestamp=world.clock + 1), 0), cert, key, 0),
        ]
        reasons = [verify_message(world, *case) for case in cases]
        assert reasons == [(None, reason) for reason in VERIFY_REASONS]
        plaintext, reason = verify_message(world, request, cert, key, request.timestamp - 1)
        assert reason is None and plaintext.startswith(b"('request'")
        # the world's clock itself is not in the future
        latest = _signed_by(world, replace(request, timestamp=world.clock), 0)
        assert verify_message(world, latest, cert, key, 0) == (plaintext, None)

    @pytest.mark.parametrize("field, value", [
        ("kind", "REQ"), ("sender", None), ("session_id", 0), ("timestamp", "99"),
        ("timestamp", 2.5), ("timestamp", True), ("body", "text"), ("body", bytearray(64)),
        ("signature", "text"), ("signature", None),
    ])
    def test_a_field_of_the_wrong_type_is_refused_before_anything_reads_it(
        self, world, field, value
    ):
        world, instance = world
        broken = replace(self.request_of(world, instance), **{field: value})
        cert = _corrupt(world.vehicles[0].certificate, "signature")
        assert verify_message(world, broken, cert) == (None, "malformed message")

    def test_a_broadcast_is_read_as_sent(self, world):
        world, instance = world
        publish = run_trading_round(world, instance).sessions[0].transcript[0]
        plaintext, reason = verify_message(world, publish, world.authority.certificate)
        assert reason is None and plaintext == publish.body


def _corrupt(certificate, field):
    if field == "subject":
        return replace(certificate, subject=certificate.subject + "x")
    value = getattr(certificate, field)
    return replace(certificate, **{field: value[:-1] + bytes([value[-1] ^ 1])})


@pytest.mark.parametrize("scheme", SCHEMES)
class TestCertificateCacheFailsClosed:
    """A certificate that verified once is remembered per world; any byte of
    difference, or a different CA key, must still be caught in full."""

    def funded_world(self, scheme):
        instance = paper_example()
        world = build_world(instance, scheme(), seed=7, authority_balance=Fraction(50))
        return world, instance

    @pytest.mark.parametrize("field", ["signature", "public_key", "subject"])
    def test_vehicle_certificate_corrupted_after_acceptance(self, scheme, field):
        world, instance = self.funded_world(scheme)
        first = run_trading_round(world, instance)
        assert first.sessions[0].state is SessionState.CONFIRMED
        world.vehicles[0].certificate = _corrupt(world.vehicles[0].certificate, field)
        second = run_trading_round(world, instance)
        assert second.excluded == frozenset({0})
        assert second.sessions[0].failure == "request: bad certificate"
        assert second.sessions[1].state is SessionState.CONFIRMED
        assert second.sessions[2].state is SessionState.CONFIRMED

    def test_corrupted_authority_certificate_aborts_every_session(self, scheme):
        world, instance = self.funded_world(scheme)
        run_trading_round(world, instance)
        world.authority.certificate = _corrupt(world.authority.certificate, "signature")
        balances = [p.account.balance for p in world.vehicles.values()]
        result = run_trading_round(world, instance)
        assert {s.failure for s in result.sessions.values()} == {
            "broadcast: bad certificate"
        }
        assert result.block is None and len(world.ledger) == 1
        assert [p.account.balance for p in world.vehicles.values()] == balances

    def test_certificate_from_another_ca_is_rejected(self, scheme):
        world, instance = self.funded_world(scheme)
        run_trading_round(world, instance)
        rogue = CertificateAuthority(world.scheme, np.random.default_rng(99))
        honest = world.vehicles[0].certificate
        world.vehicles[0].certificate = rogue.issue(honest.subject, honest.public_key)
        assert rogue.check(world.vehicles[0].certificate)
        result = run_trading_round(world, instance)
        assert result.sessions[0].failure == "request: bad certificate"
        assert result.sessions[1].state is SessionState.CONFIRMED

    def test_new_ca_key_forgets_accepted_certificates(self, scheme):
        world, instance = self.funded_world(scheme)
        run_trading_round(world, instance)
        world.ca.keys = world.scheme.generate_keypair(np.random.default_rng(99))
        result = run_trading_round(world, instance)
        assert {s.failure for s in result.sessions.values()} == {
            "broadcast: bad certificate"
        }


def _transcript_digest(world, instance, rounds, tamper=None):
    h = hashlib.sha256()
    for _ in range(rounds):
        result = run_trading_round(world, instance, tamper=tamper)
        for vid in sorted(result.sessions):
            session = result.sessions[vid]
            h.update(repr((vid, session.state.value, session.failure)).encode())
            for m in session.transcript:
                h.update(
                    repr(
                        (m.kind.value, m.sender, m.session_id, m.timestamp,
                         m.body, m.signature, m.kind is not MessageKind.PUBLISH)
                    ).encode()
                )
        h.update((result.block.hash if result.block else "-").encode())
    return h.hexdigest()


# sha256 over every session's state, failure and transcript (kind, sender,
# session, timestamp, body, signature, encrypted) and the block hash of three
# consecutive real-crypto rounds on one world, recorded with the certificate
# checked on every message, the broadcast checked per vehicle and every
# private key parsed per call: none of the reuse may move a byte.
GOLDEN_ROUNDS_DIGEST = "05d35e1ca96e22d8089eeb332ca64714ddc9f58e97616b355a2234ca5449c72a"
# The same three rounds with vehicle 0's request signature zeroed in every
# round, so vehicle 0, a winner, is excluded and the mechanism runs on the
# re-indexed survivors, recorded before rounds with no exclusion stopped
# building a re-indexed copy and before honest payloads skipped the parser.
GOLDEN_EXCLUDED_ROUNDS_DIGEST = "5f5d031745e494a8f6a877263acb2e9cef40665ebee20bf4aef2a69af65c82cf"


def test_golden_digest_real_rounds():
    instance = dense_scenario(3)
    world = build_world(
        instance, Ed25519X25519Scheme(), seed=5, authority_balance=Fraction(10**6)
    )
    assert _transcript_digest(world, instance, rounds=3) == GOLDEN_ROUNDS_DIGEST
    assert len(world.ledger) == 3


def test_golden_digest_real_rounds_with_an_excluded_winner():
    instance = dense_scenario(3)
    world = build_world(
        instance, Ed25519X25519Scheme(), seed=5, authority_balance=Fraction(10**6)
    )
    digest = _transcript_digest(world, instance, rounds=3, tamper=_zero_request_signature)
    assert digest == GOLDEN_EXCLUDED_ROUNDS_DIGEST
    assert len(world.ledger) == 3
