"""Property-based tests: canonical encoding injectivity and stability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ledger import EncodingError, Transaction, TxKind, canonical_encode
from repro.ledger.crypto import sha256
from repro.ledger.transactions import transfer_id

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 200), max_value=2 ** 200),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=15,
)


class TestEncodingProperties:
    @given(value=values)
    @settings(max_examples=150, deadline=None)
    def test_deterministic(self, value):
        assert canonical_encode(value) == canonical_encode(value)

    @given(a=values, b=values)
    @settings(max_examples=150, deadline=None)
    def test_injective_on_distinct_values(self, a, b):
        # Lists and tuples are deliberately identified; hypothesis only
        # generates lists here, so plain inequality is the right test.
        # int/float with equal value (1 == 1.0) are distinct canonical
        # values by design, so compare with type awareness.
        if _normalised(a) != _normalised(b):
            assert canonical_encode(a) != canonical_encode(b)

    @given(value=values)
    @settings(max_examples=100, deadline=None)
    def test_encoding_is_bytes_and_nonempty(self, value):
        encoded = canonical_encode(value)
        assert isinstance(encoded, bytes)
        assert len(encoded) >= 9  # tag + length prefix


def _normalised(value):
    """Type-tagged structural form mirroring encoding semantics."""
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, int):
        return ("int", value)
    if isinstance(value, float):
        return ("float", repr(value))
    if isinstance(value, str):
        return ("str", value)
    if isinstance(value, (bytes, bytearray)):
        return ("bytes", bytes(value))
    if value is None:
        return ("none",)
    if isinstance(value, list):
        return ("list", tuple(_normalised(v) for v in value))
    if isinstance(value, dict):
        return (
            "dict",
            tuple(sorted((k, _normalised(v)) for k, v in value.items())),
        )
    raise AssertionError(f"unexpected {type(value)}")


big_ints = st.integers(min_value=0, max_value=2 ** 200)


class _Address(str):
    """A ``str`` subclass: must take the generic encoder's path."""


def _tx(**fields):
    base = dict(
        sender="ab" * 32, recipient="cd" * 32, amount=5, fee=1, nonce=2,
        kind=TxKind.TRANSFER,
    )
    base.update(fields)
    return Transaction(**base)


class TestTransactionSigningBytes:
    """``Transaction.signing_bytes`` writes a fixed layout; it must stay
    byte-for-byte ``canonical_encode(tx.to_dict())``."""

    @given(
        kind=st.sampled_from(TxKind),
        sender=st.text(min_size=1, max_size=70),
        recipient=st.text(max_size=70),
        amount=big_ints,
        fee=big_ints,
        nonce=big_ints,
        payload=st.one_of(
            st.just({}),
            st.dictionaries(st.text(max_size=8), values, max_size=4),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_fixed_layout_matches_generic_encoding(
        self, kind, sender, recipient, amount, fee, nonce, payload
    ):
        tx = Transaction(sender, recipient, amount, fee, nonce, kind, payload)
        assert tx.signing_bytes == canonical_encode(tx.to_dict())

    @pytest.mark.parametrize("field", ["amount", "fee", "nonce"])
    @pytest.mark.parametrize(
        "value", [True, False, np.int64(7), np.int32(0), np.uint8(3)],
        ids=["true", "false", "int64", "int32", "uint8"],
    )
    def test_non_int_fields_encode_or_raise_as_before(self, field, value):
        tx = _tx(**{field: value})
        try:
            expected = canonical_encode(tx.to_dict())
        except EncodingError as exc:
            with pytest.raises(EncodingError) as raised:
                tx.signing_bytes
            assert str(raised.value) == str(exc)
        else:
            assert tx.signing_bytes == expected

    @pytest.mark.parametrize(
        "fields",
        [
            {"sender": _Address("ab" * 32)},
            {"recipient": _Address("é" * 3)},
            {"payload": None},
            {"payload": []},
            {"payload": {"nested": {"ints": [2 ** 200, -1], "s": "ü"}}},
        ],
        ids=["str-subclass-sender", "str-subclass-recipient", "none-payload",
             "list-payload", "nested-payload"],
    )
    def test_other_field_types_match(self, fields):
        tx = _tx(**fields)
        assert tx.signing_bytes == canonical_encode(tx.to_dict())


class TestTransferId:
    """``transfer_id`` hashes a transfer from its field values; it must
    equal the record's id and the generic encoding's hash."""

    @given(
        sender=st.one_of(
            st.text(min_size=1, max_size=70),
            st.text("0123456789abcdef", min_size=64, max_size=64),
        ),
        recipient=st.one_of(st.just(""), st.text(max_size=70)),
        amount=st.integers(min_value=0, max_value=2 ** 63),
        fee=st.integers(min_value=0, max_value=2 ** 63),
        nonce=st.integers(min_value=0, max_value=2 ** 63),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_record_and_the_generic_encoding(
        self, sender, recipient, amount, fee, nonce
    ):
        tx = Transaction(sender, recipient, amount, fee, nonce, TxKind.TRANSFER)
        tx_id = transfer_id(sender, recipient, amount, fee, nonce)
        assert tx_id == tx.tx_id
        assert tx_id == sha256(canonical_encode(tx.to_dict())).hex()
