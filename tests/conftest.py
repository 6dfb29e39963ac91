import pytest

from chebquad import rules


@pytest.fixture
def interp_rules_calls(monkeypatch) -> list[list[int]]:
    """The ns of every interp_rules call that chebquad.rules makes during the
    test, one list per call (each call builds one chunk of weighted rules)."""
    calls, build = [], rules.interp_rules

    def counted(family, ns, m):
        calls.append(list(ns))
        return build(family, ns, m)

    monkeypatch.setattr(rules, "interp_rules", counted)
    return calls
