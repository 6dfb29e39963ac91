import pytest

from chebquad import rules


@pytest.fixture
def interp_rules_calls(monkeypatch) -> list[list[int]]:
    """The ns of every interp_rules call that chebquad.rules makes during the
    test, one list per call (each call builds one chunk of weighted rules).
    The store of built chunks is emptied first, so the calls do not depend
    on what ran before."""
    rules._weighted_rule_cached.cache_clear()
    calls, build = [], rules.interp_rules

    def counted(family, ns, m):
        calls.append(list(ns))
        return build(family, ns, m)

    monkeypatch.setattr(rules, "interp_rules", counted)
    return calls
