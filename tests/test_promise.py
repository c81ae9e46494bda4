import numpy as np
import pytest

from qfa_exact import (
    BinaryPromiseSpec,
    Classification,
    UnaryPromiseSpec,
    classify_binary,
    classify_unary,
    enumerate_instances,
    spec_from_dict,
    spec_to_dict,
)
from qfa_exact.promise import family_of
from qfa_exact.words import as_runs, materialize, word_length

YES, NO, OUT = Classification.YES, Classification.NO, Classification.OUTSIDE


def test_classify_unary_examples():
    spec = UnaryPromiseSpec(7, 0, 3)
    assert classify_unary(spec, 0) is YES
    assert classify_unary(spec, 17) is NO
    assert classify_unary(spec, 5) is OUT


def test_classify_unary_depends_on_residue_only():
    spec = UnaryPromiseSpec(9, 2, 7)
    for n in range(10 * spec.N):
        assert classify_unary(spec, n) is classify_unary(spec, n + spec.N)


def test_classify_unary_rejects_negative_length():
    with pytest.raises(ValueError):
        classify_unary(UnaryPromiseSpec(7, 0, 3), -1)


def test_unary_spec_validation():
    with pytest.raises(ValueError):
        UnaryPromiseSpec(1, 0, 0)
    with pytest.raises(ValueError):
        UnaryPromiseSpec(5, 2, 2)
    with pytest.raises(ValueError):
        UnaryPromiseSpec(5, 0, 5)
    assert UnaryPromiseSpec(7, 2, 5).gap == 3
    assert UnaryPromiseSpec(7, 5, 2).gap == 4


def test_classify_binary_examples():
    assert classify_binary(BinaryPromiseSpec(4), "aabbbbbb") is NO
    assert classify_binary(BinaryPromiseSpec(4), "") is YES
    assert classify_binary(BinaryPromiseSpec(2, 5), (("a", 1), ("b", 8))) is NO


def test_classify_binary_shapes_and_errors():
    spec = BinaryPromiseSpec(1)
    assert classify_binary(spec, "ba") is OUT
    assert classify_binary(spec, "aba") is OUT
    assert classify_binary(spec, "aab") is OUT
    assert classify_binary(spec, "b") is NO
    assert classify_binary(spec, "aaa") is OUT
    with pytest.raises(ValueError):
        classify_binary(spec, "abc")


def test_classify_binary_modular_surplus():
    spec = BinaryPromiseSpec(2, 5)
    # surplus 2, 7, 12 are no-instances; other surpluses are outside
    assert classify_binary(spec, (("a", 3), ("b", 5))) is NO
    assert classify_binary(spec, (("a", 3), ("b", 10))) is NO
    assert classify_binary(spec, (("a", 3), ("b", 15))) is NO
    assert classify_binary(spec, (("a", 3), ("b", 6))) is OUT
    assert classify_binary(spec, (("a", 3), ("b", 4))) is OUT


def test_binary_spec_validation():
    with pytest.raises(ValueError):
        BinaryPromiseSpec(0)
    with pytest.raises(ValueError):
        BinaryPromiseSpec(5, 5)


def test_enumerate_unary_example():
    spec = UnaryPromiseSpec(4, 0, 1)
    assert enumerate_instances(spec, i_max=1) == [
        (0, YES),
        (1, NO),
        (4, YES),
        (5, NO),
    ]


def test_enumerate_binary_examples():
    assert enumerate_instances(BinaryPromiseSpec(1), i_max=1) == [
        ((), YES),
        ((("b", 1),), NO),
        ((("a", 1), ("b", 1)), YES),
        ((("a", 1), ("b", 2)), NO),
    ]
    assert enumerate_instances(BinaryPromiseSpec(1, 3), i_max=0, j_max=1) == [
        ((), YES),
        ((("b", 1),), NO),
        ((("b", 4),), NO),
    ]


def test_enumerate_sorts_by_length_then_lexicographically():
    words = [w for w, _ in enumerate_instances(BinaryPromiseSpec(2), i_max=4)]
    keys = [(word_length(w), materialize(w)) for w in words]
    assert keys == sorted(keys)


@pytest.mark.parametrize(
    "spec",
    [
        UnaryPromiseSpec(7, 0, 3),
        UnaryPromiseSpec(12, 5, 9),
        BinaryPromiseSpec(4),
        BinaryPromiseSpec(2, 5),
        BinaryPromiseSpec(10, 13),
    ],
)
def test_enumerate_round_trips_and_sets_stay_disjoint(spec):
    items = enumerate_instances(spec, i_max=20, j_max=4)
    yes = {w for w, label in items if label is YES}
    no = {w for w, label in items if label is NO}
    assert yes and no
    assert not yes & no
    for word, label in items:
        if isinstance(spec, UnaryPromiseSpec):
            assert classify_unary(spec, word) is label
        else:
            assert classify_binary(spec, word) is label


def test_enumerate_rejects_negative_bounds():
    with pytest.raises(ValueError):
        enumerate_instances(UnaryPromiseSpec(7, 0, 3), i_max=-1)


@pytest.mark.parametrize(
    "spec,expected",
    [
        (UnaryPromiseSpec(7, 0, 3), {"family": "A", "N": 7, "r_yes": 0, "r_no": 3}),
        (BinaryPromiseSpec(4), {"family": "B", "l": 4}),
        (BinaryPromiseSpec(2, 5), {"family": "BN", "N": 5, "l": 2}),
    ],
)
def test_spec_serialization_round_trip(spec, expected):
    data = spec_to_dict(spec)
    assert data == expected
    assert family_of(spec) == expected["family"]
    assert spec_from_dict(data) == spec


def test_spec_from_dict_rejects_bad_input():
    with pytest.raises(ValueError):
        spec_from_dict({"family": "C"})
    with pytest.raises(ValueError):
        spec_from_dict({"family": "A", "N": 7})


@pytest.mark.parametrize(
    "data,message",
    [
        ({"family": "B", "l": 4, "N": 7}, "family B spec has no field 'N'"),
        ({"family": "A", "N": 7, "r_yes": 0, "r_no": 3, "l": 5}, "family A spec has no field 'l'"),
        ({"family": "BN", "N": 7, "l": 3, "r_yes": 0}, "family BN spec has no field 'r_yes'"),
        ({"family": "A", "N": 7, "r_yes": 0}, "spec object is missing field 'r_no'"),
        ({"N": 7, "l": 3}, "spec object is missing field 'family'"),
        ({"family": ["A"], "N": 7, "r_yes": 0, "r_no": 3}, "unknown family \\['A'\\]"),
        ({"family": None, "l": 4}, "unknown family None"),
        ({"family": 1, "l": 4}, "unknown family 1"),
    ],
)
def test_spec_from_dict_refuses_other_field_sets(data, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        spec_from_dict(data)


@pytest.mark.parametrize("bad", [None, 7, "A", {"family": "B", "l": 4}, (4,)])
def test_family_of_rejects_non_specs(bad):
    with pytest.raises(TypeError, match="not a promise spec"):
        family_of(bad)
    with pytest.raises(TypeError, match="not a promise spec"):
        spec_to_dict(bad)


def test_as_runs_forms():
    assert as_runs("aabbb", ("a", "b")) == (("a", 2), ("b", 3))
    assert as_runs(5, ("a",)) == (("a", 5),)
    assert as_runs(0, ("a",)) == ()
    assert as_runs([("a", 2), ("a", 1), ("b", 0)], ("a", "b")) == (("a", 3),)
    assert as_runs(iter([("a", 2), ("b", 1)]), ("a", "b")) == (("a", 2), ("b", 1))
    with pytest.raises(ValueError):
        as_runs("abc", ("a", "b"))
    with pytest.raises(ValueError):
        as_runs(3, ("a", "b"))
    with pytest.raises(ValueError):
        as_runs(-1, ("a",))
    with pytest.raises(ValueError):
        as_runs([("a", -2)], ("a",))


def test_materialize_and_length():
    assert materialize((("a", 2), ("b", 1))) == "aab"
    assert materialize(3) == "aaa"
    assert word_length((("a", 2), ("b", 6))) == 8
    assert word_length("abab") == 4
    assert word_length(10**9) == 10**9


@pytest.mark.parametrize(
    "data",
    [
        {"family": "A", "N": 7.5, "r_yes": 0, "r_no": 3},
        {"family": "A", "N": "7", "r_yes": 0, "r_no": 3},
        {"family": "A", "N": 7, "r_yes": False, "r_no": 3},
        {"family": "B", "l": 4.0},
        {"family": "B", "l": True},
        {"family": "BN", "N": 15, "l": None},
        {"family": "BN", "N": [15], "l": 5},
    ],
)
def test_spec_from_dict_rejects_non_integer_fields(data):
    with pytest.raises(ValueError):
        spec_from_dict(data)


def test_as_runs_rejects_bools_and_non_integer_counts():
    with pytest.raises(ValueError):
        as_runs(True, ("a",))
    with pytest.raises(ValueError):
        as_runs(False, ("a",))
    for count in (2.7, 2.0, "2", None, True):
        with pytest.raises(ValueError):
            as_runs([("a", count)], ("a",))


def test_as_runs_accepts_integral_count_types():
    assert as_runs([("a", np.int64(3)), ("b", 2)], ("a", "b")) == (("a", 3), ("b", 2))
    assert type(as_runs([("a", np.int64(3))], ("a",))[0][1]) is int


def test_as_runs_takes_integer_types_as_lengths():
    for word in (np.int64(14), np.uint8(14), np.int32(14)):
        assert as_runs(word, ("a",)) == (("a", 14),)
        assert type(as_runs(word, ("a",))[0][1]) is int
    assert as_runs(np.int64(0), ("a",)) == ()
    with pytest.raises(ValueError):
        as_runs(np.int64(-1), ("a",))
    with pytest.raises(ValueError):
        as_runs(np.int64(3), ("a", "b"))


@pytest.mark.parametrize("word", [3.0, None, np.bool_(True), np.float64(3.0), object()])
def test_as_runs_rejects_words_that_are_no_length_str_or_runs(word):
    with pytest.raises(ValueError):
        as_runs(word, ("a",))


def test_materialize_and_length_take_integer_types_as_lengths():
    for word in (np.int64(3), np.uint8(3), np.int32(3)):
        assert materialize(word) == "aaa"
        assert word_length(word) == 3
        assert type(word_length(word)) is int
    assert materialize(np.int64(0)) == "" and word_length(np.int64(0)) == 0
    for word in (True, np.int64(-1), -1, 3.0, None):
        with pytest.raises(ValueError):
            materialize(word)
        with pytest.raises(ValueError):
            word_length(word)


@pytest.mark.parametrize(
    "make",
    [
        lambda: UnaryPromiseSpec(7.5, 0, 3),
        lambda: UnaryPromiseSpec(7, 0.0, 3),
        lambda: UnaryPromiseSpec(7, 0, "3"),
        lambda: UnaryPromiseSpec(True, 0, 1),
        lambda: BinaryPromiseSpec(True),
        lambda: BinaryPromiseSpec(2, 4.5),
        lambda: BinaryPromiseSpec(2.0),
        lambda: BinaryPromiseSpec(1, True),
        lambda: BinaryPromiseSpec(None),
    ],
)
def test_spec_constructors_reject_bools_and_non_integers(make):
    with pytest.raises(ValueError):
        make()


def test_spec_constructors_store_integer_types_as_int():
    unary = UnaryPromiseSpec(np.int64(7), np.int32(0), np.uint8(3))
    assert unary == UnaryPromiseSpec(7, 0, 3)
    assert all(type(value) is int for value in (unary.N, unary.r_yes, unary.r_no))
    binary = BinaryPromiseSpec(np.int64(2), np.int64(5))
    assert binary == BinaryPromiseSpec(2, 5)
    assert type(binary.l) is int and type(binary.N) is int
    assert BinaryPromiseSpec(3).N is None


@pytest.mark.parametrize(
    "spec",
    [BinaryPromiseSpec(1), BinaryPromiseSpec(4), BinaryPromiseSpec(1, 2),
     BinaryPromiseSpec(2, 5), BinaryPromiseSpec(10, 13)],
)
@pytest.mark.parametrize("i_max, j_max", [(0, 0), (5, 3), (32, 4), (64, 8)])
def test_binary_enumeration_order_matches_the_word_sort_key(spec, i_max, j_max):
    # the order the witness sweeps have always used: total length, then
    # b-count, each computed from the word itself
    items = enumerate_instances(spec, i_max, j_max)
    expected = sorted(items, key=lambda pair: (sum(c for _, c in pair[0]),
                                               dict(pair[0]).get("b", 0)))
    assert items == expected
    assert len({word for word, _ in items}) == len(items)
