"""The governor is its own controller: subscribe on entry, unsubscribe on exit."""

from repro.ivm.governor import PolicyGovernor
from repro.obs import events


class FakeCoordinator:
    def maintainer(self, name):
        raise KeyError(name)


class TestController:
    def test_context_manager_attaches_and_detaches(self):
        governor = PolicyGovernor(FakeCoordinator())
        assert not (events.wanted("slo") or events.wanted("drift"))
        with governor as entered:
            assert entered is governor
            assert events.wanted("slo") and events.wanted("drift")
        assert not (events.wanted("slo") or events.wanted("drift"))

    def test_detach_is_idempotent_and_safe_unattached(self):
        governor = PolicyGovernor(FakeCoordinator())
        governor.__exit__(None, None, None)  # never entered: no-op
        with events.subscribe("slo", print):
            with governor:
                pass
            governor.__exit__(None, None, None)
            # only its own subscriptions went
            assert events.installed().wanted == {"slo": (print,)}
