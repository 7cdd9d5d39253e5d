"""Source-level facts and two-layer indirect-call resolution.

Facts arrive as a JSON document produced from compiler dumps: address-taken
functions, indirect callsites with parameter types, function signatures, and
alias names.  Candidate targets for an indirect callsite are the
address-taken functions whose recorded signature matches the callsite's
parameter types token-for-token.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ParseError, expect_json, expect_names

VARIADIC = "..."


class IndirectSite(NamedTuple):
    caller: str
    param_types: tuple[str, ...]


@dataclass
class SourceFacts:
    address_taken: set[str] = field(default_factory=set)
    indirect_sites: list[IndirectSite] = field(default_factory=list)
    signatures: dict[str, tuple[str, ...]] = field(default_factory=dict)
    aliases: dict[str, str] = field(default_factory=dict)

    def canonical(self, name: str) -> str:
        return self.aliases.get(name, name)


def _close_aliases(records) -> dict[str, str]:
    raw: dict[str, str] = {}
    for where, rec in records:
        alias = rec["alias"]
        if raw.setdefault(alias, rec["canonical"]) != rec["canonical"]:
            raise ParseError(
                "facts {}[{}]: conflicting canonical names for {!r}".format(*where, alias))
    closed: dict[str, str] = {}
    for alias in raw:
        seen = [alias]
        cur = alias
        while cur in raw:
            cur = raw[cur]
            if cur in seen:
                raise ParseError("alias cycle: " + " -> ".join(seen + [cur]))
            seen.append(cur)
        closed[alias] = cur
    return closed


def _records(doc: dict, key: str, *fields: str):
    """(location, record) for each object listed under `key`, whose
    `fields` must be strings."""
    for i, rec in enumerate(expect_json(doc.get(key, []), list, "facts {}", key)):
        expect_json(rec, dict, "facts {}[{}]", key, i)
        for name in fields:
            expect_json(rec.get(name), str, "facts {}[{}] {}", key, i, name)
        yield (key, i), rec


def _param_types(rec: dict, where: tuple[str, int]) -> tuple[str, ...]:
    """The record's parameter types, each with its whitespace canonicalized."""
    names = expect_names(rec.get("param_types"), "facts {}[{}] param_types", *where)
    return tuple(" ".join(t.split()) for t in names)


def load_source_facts(text: str) -> SourceFacts:
    """Load and normalize a facts document: aliases transitively closed,
    names canonicalized, duplicates deduplicated."""
    try:
        doc = json.loads(text) if text.strip() else {}
    except (ValueError, RecursionError) as exc:  # also too deep, or too long an integer
        raise ParseError(f"facts document is not valid JSON: {exc}") from exc
    expect_json(doc, dict, "facts document")

    aliases = _close_aliases(_records(doc, "aliases", "alias", "canonical"))
    facts = SourceFacts(aliases=aliases)
    canon = facts.canonical
    for name in expect_names(doc.get("address_taken", []), "facts address_taken"):
        facts.address_taken.add(canon(name))
    for where, rec in _records(doc, "signatures", "function"):
        fn = canon(rec["function"])
        params = _param_types(rec, where)
        if fn in facts.signatures and facts.signatures[fn] != params:
            raise ParseError("facts {}[{}]: conflicting signatures for {}".format(*where, fn))
        facts.signatures[fn] = params
    # site_id is checked for its type only: nothing matches it to a callsite
    for where, rec in _records(doc, "indirect_sites", "site_id", "caller"):
        facts.indirect_sites.append(
            IndirectSite(caller=canon(rec["caller"]), param_types=_param_types(rec, where))
        )
    return facts


def signature_matches(signature: tuple[str, ...], params: tuple[str, ...]) -> bool:
    """Token-equality match; a terminal "..." makes the signature variadic:
    the fixed prefix must match and the callsite arity must cover it."""
    if signature and signature[-1] == VARIADIC:
        fixed = signature[:-1]
        return len(params) >= len(fixed) and params[: len(fixed)] == fixed
    return signature == params


def resolve_indirect_targets(site: IndirectSite, facts: SourceFacts) -> set[str]:
    """Address-taken functions whose signature matches the callsite.

    Functions without a recorded signature are never candidates.
    """
    return {
        fn
        for fn in facts.address_taken
        if fn in facts.signatures
        and signature_matches(facts.signatures[fn], site.param_types)
    }
