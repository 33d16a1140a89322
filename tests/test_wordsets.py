import numpy as np
import pytest

from embdebias import (
    CategorySpec,
    bundled_spec_names,
    load_bundled_spec,
    load_category_spec,
    resolve_words,
    validate_against_vocab,
)
from embdebias.errors import EmptySetError, SchemaError

from conftest import make_set


def test_load_minimal_gender_spec(write_spec):
    path = write_spec("gender", {
        "name": "gender",
        "defining_sets": [["he", "she"], ["man", "woman"]],
    })
    spec = load_category_spec(path)
    assert spec.name == "gender"
    assert len(spec.defining_sets) == 2
    assert spec.defining_sets[0] == ("he", "she")
    assert spec.equality_sets == ()
    assert spec.target_words == ()
    assert spec.attribute_sets == ()


def test_empty_defining_sets_is_schema_error(write_spec):
    path = write_spec("bad", {"name": "x", "defining_sets": []})
    with pytest.raises(SchemaError):
        load_category_spec(path)


def test_empty_inner_set(write_spec):
    path = write_spec("bad", {"name": "x", "defining_sets": [["a"], []]})
    with pytest.raises(EmptySetError):
        load_category_spec(path)


@pytest.mark.parametrize("payload", [
    {"defining_sets": [["a"]]},                      # missing name
    {"name": "x"},                                   # missing defining_sets
    {"name": "", "defining_sets": [["a"]]},          # empty name
    {"name": "x", "defining_sets": "notalist"},      # wrong shape
    {"name": "x", "defining_sets": [["a"], "b"]},    # inner not a list
    {"name": "x", "defining_sets": [["a", 3]]},      # non-string word
    ["not", "an", "object"],                         # wrong top level
])
def test_schema_errors(write_spec, payload):
    path = write_spec("bad", payload)
    with pytest.raises(SchemaError):
        load_category_spec(path)


def test_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(SchemaError):
        load_category_spec(path)


def test_bundled_lexicons_load():
    names = bundled_spec_names()
    assert {"gender", "race", "religion", "race_gender_intersectional"} <= set(names)
    for name in names:
        spec = load_bundled_spec(name)
        assert spec.defining_sets


def test_bundled_gender_has_pronoun_pair():
    spec = load_bundled_spec("gender")
    assert ("she", "he") in spec.defining_sets or ("he", "she") in spec.defining_sets
    assert spec.equality_sets and spec.attribute_sets


def test_bundled_intersectional_has_six_name_sets():
    spec = load_bundled_spec("race_gender_intersectional")
    assert len(spec.defining_sets) == 6
    assert "Aisha" in spec.defining_sets[0]
    assert len(spec.attribute_sets) == 6


def test_unknown_bundled_name():
    with pytest.raises(SchemaError):
        load_bundled_spec("nope")


@pytest.fixture
def emb():
    return make_set(["he", "xqzt".upper(), "man", "woman", "Tree"],
                    np.eye(5))


def test_validation_all_present(emb):
    spec = CategorySpec("g", (("he", "man"), ("woman",)))
    report = validate_against_vocab(spec, emb)
    assert not report.fatal
    assert all(not r.missing for r in report.defining)


def test_validation_partial_missing(emb):
    spec = CategorySpec("g", (("he", "xqzt"),))
    report = validate_against_vocab(spec, emb)
    assert report.defining[0].missing == ("xqzt",)
    assert report.defining[0].resolved == ("he",)
    assert not report.fatal


def test_validation_fatal_when_set_empties(emb):
    spec = CategorySpec("g", (("zz", "yy"),))
    report = validate_against_vocab(spec, emb)
    assert report.fatal


def test_lowercase_fallback(emb):
    spec = CategorySpec("g", (("He", "tree"),))
    strict = validate_against_vocab(spec, emb, lowercase_fallback=False)
    assert strict.defining[0].missing == ("He", "tree")
    loose = validate_against_vocab(spec, emb, lowercase_fallback=True)
    # "He" resolves to vocabulary form "he"; "tree" has no lowercase hit
    # ("Tree" is not tried the other way)
    assert loose.defining[0].resolved == ("he",)
    assert loose.defining[0].missing == ("tree",)


def test_validation_deterministic_and_side_effect_free(emb):
    spec = CategorySpec("g", (("he", "man", "zz"),), (("woman",),))
    before = emb.matrix.copy()
    r1 = validate_against_vocab(spec, emb)
    r2 = validate_against_vocab(spec, emb)
    assert r1 == r2
    assert r1.summary() == r2.summary()
    np.testing.assert_array_equal(emb.matrix, before)


def test_resolve_words_dedupe(emb):
    res = resolve_words(["he", "he", "man"], emb)
    assert res.resolved == ("he", "man")
    res = resolve_words(["he", "he"], emb, dedupe=False)
    assert res.resolved == ("he", "he")


def test_category_spec_immutable():
    spec = CategorySpec("g", (("a", "b"),))
    with pytest.raises(AttributeError):
        spec.name = "h"


def test_all_words_covers_every_set_field():
    spec = CategorySpec("g", (("he", "she"),), equality_sets=(("man", "woman"),),
                        target_words=(("nurse",), ("he",)),
                        attribute_sets=(("kind",),))
    assert spec.all_words() == ("he", "she", "man", "woman", "nurse", "he", "kind")
