"""Controller wiring tests: lookup, attach/detach, tick gating."""

import pytest

from repro.control import Controller, build_controller
from repro.control.governors import Governor


class RecordingGovernor(Governor):
    def __init__(self, name, enabled=True):
        super().__init__(enabled)
        self.name = name
        self.attached = 0
        self.detached = 0
        self.ticks = []

    def attach(self):
        self.attached += 1

    def detach(self):
        self.detached += 1

    def tick(self, t):
        self.ticks.append(t)


class FakeCoordinator:
    def maintainer(self, name):
        raise KeyError(name)


class TestController:
    def test_governor_lookup(self):
        a, b = RecordingGovernor("a"), RecordingGovernor("b")
        controller = Controller([a, b])
        assert controller.governor("a") is a
        assert controller.governor("b") is b
        with pytest.raises(KeyError):
            controller.governor("missing")

    def test_attach_is_idempotent_and_skips_disabled(self):
        on = RecordingGovernor("on")
        off = RecordingGovernor("off", enabled=False)
        controller = Controller([on, off])
        controller.attach()
        controller.attach()
        assert on.attached == 1
        assert off.attached == 0

    def test_detach_is_idempotent_and_safe_unattached(self):
        governor = RecordingGovernor("g")
        controller = Controller([governor])
        controller.detach()  # never attached: no-op
        assert governor.detached == 0
        controller.attach()
        controller.detach()
        controller.detach()
        assert governor.detached == 1

    def test_context_manager_attaches_and_detaches(self):
        governor = RecordingGovernor("g")
        controller = Controller([governor])
        with controller as entered:
            assert entered is controller
            assert governor.attached == 1
        assert governor.detached == 1

    def test_tick_skips_disabled_governors(self):
        on = RecordingGovernor("on")
        off = RecordingGovernor("off", enabled=False)
        controller = Controller([on, off])
        controller.tick(1)
        controller.tick(2)
        assert on.ticks == [1, 2]
        assert off.ticks == []

    def test_repr_shows_enablement(self):
        controller = Controller(
            [RecordingGovernor("a"), RecordingGovernor("b", enabled=False)]
        )
        assert repr(controller) == "Controller(a=on, b=off)"


class TestBuildController:
    def test_builds_the_policy_governor(self):
        controller = build_controller(FakeCoordinator())
        assert [g.name for g in controller.governors] == ["policy"]
        assert controller.governor("policy").enabled

    def test_flags_disable_but_keep_governors(self):
        controller = build_controller(FakeCoordinator(), policy=False)
        assert [g.name for g in controller.governors] == ["policy"]
        assert not controller.governor("policy").enabled

    def test_options_pass_through(self):
        controller = build_controller(
            FakeCoordinator(), policy_options={"escalate_after": 7}
        )
        assert controller.governor("policy").escalate_after == 7
