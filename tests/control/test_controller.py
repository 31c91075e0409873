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
    def __init__(self, database):
        self.database = database

    def maintainer(self, name):
        raise KeyError(name)


class FakeDatabase:
    def __init__(self, block_size=None):
        self.block_size = block_size

    def set_block_size(self, block_size):
        self.block_size = block_size
        return self.block_size


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
    def test_builds_both_governors(self):
        controller = build_controller(FakeCoordinator(FakeDatabase()))
        names = [g.name for g in controller.governors]
        assert names == ["policy", "block_size"]
        assert all(g.enabled for g in controller.governors)

    def test_flags_disable_but_keep_governors(self):
        controller = build_controller(
            FakeCoordinator(FakeDatabase()),
            policy=False, block=False,
        )
        assert [g.name for g in controller.governors] == [
            "policy", "block_size",
        ]
        assert not any(g.enabled for g in controller.governors)

    def test_options_pass_through(self):
        controller = build_controller(
            FakeCoordinator(FakeDatabase(block_size=4096)),
            policy_options={"escalate_after": 7},
            block_options={"min_block": 128},
        )
        assert controller.governor("policy").escalate_after == 7
        block = controller.governor("block_size")
        assert block.min_block == 128
        assert block.max_block == 4096
