import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syscage.errors import ParseError
from syscage.srcfacts import (
    IndirectSite,
    SourceFacts,
    load_source_facts,
    resolve_indirect_targets,
    signature_matches,
)

from test_cli_exit_codes import JSON, _dumps, _spliced


def test_alias_closure_on_address_taken():
    facts = load_source_facts(json.dumps({
        "address_taken": ["__open"],
        "aliases": [{"alias": "__open", "canonical": "open"}],
    }))
    assert facts.address_taken == {"open"}


def test_transitive_alias_closure():
    facts = load_source_facts(json.dumps({
        "aliases": [
            {"alias": "a", "canonical": "b"},
            {"alias": "b", "canonical": "c"},
        ],
        "address_taken": ["a"],
    }))
    assert facts.canonical("a") == "c"
    assert facts.address_taken == {"c"}


def test_empty_document():
    facts = load_source_facts("")
    assert facts == SourceFacts()


def test_alias_cycle():
    with pytest.raises(ParseError, match="alias cycle: a -> b -> a"):
        load_source_facts(json.dumps({
            "aliases": [
                {"alias": "a", "canonical": "b"},
                {"alias": "b", "canonical": "a"},
            ],
        }))


def test_alias_listed_again():
    same = {"alias": "a", "canonical": "b"}
    assert load_source_facts(json.dumps({"aliases": [same, same]})).aliases == {"a": "b"}
    with pytest.raises(ParseError, match=r"^facts aliases\[1\]: conflicting canonical names for 'a'$"):
        load_source_facts(json.dumps({"aliases": [same, {"alias": "a", "canonical": "c"}]}))


def test_conflicting_signature():
    with pytest.raises(ParseError, match=r"signatures\[1\]: conflicting signatures for f$"):
        load_source_facts(json.dumps({
            "signatures": [
                {"function": "f", "param_types": ["int"]},
                {"function": "f", "param_types": ["long"]},
            ],
        }))


def test_identical_duplicate_signature_ok():
    facts = load_source_facts(json.dumps({
        "signatures": [
            {"function": "f", "param_types": ["int"]},
            {"function": "f", "param_types": [" int "]},
        ],
    }))
    assert facts.signatures["f"] == ("int",)


def test_malformed_record():
    with pytest.raises(ParseError, match="facts document is not valid JSON"):
        load_source_facts("not json")
    with pytest.raises(ParseError, match=r"facts signatures\[0\] param_types is not an array"):
        load_source_facts(json.dumps({"signatures": [{"function": "f"}]}))
    with pytest.raises(ParseError, match=r"facts signatures\[0\] param_types is not an array"):
        load_source_facts(json.dumps({"signatures": [{"function": "f", "param_types": "int"}]}))
    with pytest.raises(ParseError, match=r"facts indirect_sites\[0\] caller is not a string"):
        load_source_facts(json.dumps({"indirect_sites": [
            {"site_id": "g#0", "caller": ["g"], "param_types": []}]}))


def test_type_tokens_whitespace_canonicalized():
    facts = load_source_facts(json.dumps({
        "indirect_sites": [
            {"site_id": "f#0", "caller": "f", "param_types": ["  const   char * "]},
        ],
    }))
    assert facts.indirect_sites[0].param_types == ("const char *",)


def test_resolution_filters_by_signature_and_address_taken():
    facts = SourceFacts(
        address_taken={"A", "B"},
        signatures={
            "A": ("int", "char *"),
            "B": ("int",),
            "C": ("int", "char *"),
        },
    )
    site = IndirectSite("f", ("int", "char *"))
    assert resolve_indirect_targets(site, facts) == {"A"}


def test_zero_arg_candidate():
    facts = SourceFacts(address_taken={"Z"}, signatures={"Z": ()})
    assert resolve_indirect_targets(IndirectSite("f", ()), facts) == {"Z"}


def test_no_address_taken_functions():
    facts = SourceFacts(signatures={"A": ("int",)})
    assert resolve_indirect_targets(IndirectSite("f", ("int",)), facts) == set()


def test_function_without_signature_never_candidate():
    facts = SourceFacts(address_taken={"A"})
    assert resolve_indirect_targets(IndirectSite("f", ()), facts) == set()


def test_variadic_signature():
    facts = SourceFacts(
        address_taken={"P"},
        signatures={"P": ("const char *", "...")},
    )
    yes = IndirectSite("f", ("const char *", "int", "int"))
    exact = IndirectSite("f", ("const char *",))
    no = IndirectSite("f", ("int", "int"))
    assert resolve_indirect_targets(yes, facts) == {"P"}
    assert resolve_indirect_targets(exact, facts) == {"P"}
    assert resolve_indirect_targets(no, facts) == set()


TYPE_POOL = ["int", "long", "char *", "const char *", "void *", "size_t"]


def _random_facts(rng: random.Random):
    n = rng.randint(0, 50)
    names = [f"fn{i}" for i in range(n)]
    facts = SourceFacts()
    for name in names:
        if rng.random() < 0.6:
            facts.address_taken.add(name)
        if rng.random() < 0.8:
            sig = tuple(rng.choice(TYPE_POOL) for _ in range(rng.randint(0, 3)))
            if rng.random() < 0.15:
                sig = sig + ("...",)
            facts.signatures[name] = sig
    site = IndirectSite(
        "caller",
        tuple(rng.choice(TYPE_POOL) for _ in range(rng.randint(0, 3))),
    )
    return facts, site


def _oracle(site, facts):
    # pairwise test of every function against the callsite, independently
    out = set()
    for fn in set(facts.signatures) | facts.address_taken:
        if fn not in facts.address_taken or fn not in facts.signatures:
            continue
        sig = facts.signatures[fn]
        if sig and sig[-1] == "...":
            fixed = sig[:-1]
            ok = (
                len(site.param_types) >= len(fixed)
                and all(a == b for a, b in zip(fixed, site.param_types))
            )
        else:
            ok = len(sig) == len(site.param_types) and all(
                a == b for a, b in zip(sig, site.param_types)
            )
        if ok:
            out.add(fn)
    return out


def test_matches_bruteforce_oracle():
    rng = random.Random(77)
    for _ in range(300):
        facts, site = _random_facts(rng)
        assert resolve_indirect_targets(site, facts) == _oracle(site, facts)


def test_candidates_subset_of_address_taken_and_monotone():
    rng = random.Random(78)
    for _ in range(100):
        facts, site = _random_facts(rng)
        small = resolve_indirect_targets(site, facts)
        assert small <= facts.address_taken
        grown = SourceFacts(
            address_taken=facts.address_taken | set(facts.signatures),
            signatures=facts.signatures,
        )
        assert small <= resolve_indirect_targets(site, grown)


FIXTURE_FACTS = json.loads((Path(__file__).parent / "data" / "minilib.facts.json").read_text())


@settings(max_examples=300, deadline=None)
@given(text=st.text() | (JSON | _spliced(FIXTURE_FACTS)
                         | _spliced(FIXTURE_FACTS).flatmap(_spliced)).map(_dumps))
# an integer with more digits than int() reads
@example(text='{"address_taken": [1' + "0" * 4300 + "]}")
def test_load_source_facts_parses_or_raises_parse_error(text):
    try:
        facts = load_source_facts(text)
    except ParseError:
        return
    assert not set(facts.aliases.values()) & set(facts.aliases)  # closed
