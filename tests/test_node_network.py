"""Unit tests for node lifecycle and the message transport."""

import pytest

from repro.core.ratelimit import RateLimitAuditor
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.node import SimNode


class Inbox(SimNode):
    def __init__(self, node_id, online=True):
        super().__init__(node_id, online=online)
        self.inbox = []

    def deliver(self, message):
        self.inbox.append(message)


def wired(n=3, transfer_time=2.0):
    sim = Simulator()
    network = Network(sim, transfer_time)
    nodes = [Inbox(i) for i in range(n)]
    network.register_all(nodes)
    return sim, network, nodes


def test_delivery_after_transfer_time():
    sim, network, nodes = wired()
    network.send(0, 1, "hello")
    assert nodes[1].inbox == []
    sim.run()
    assert sim.now == 2.0
    assert len(nodes[1].inbox) == 1
    message = nodes[1].inbox[0]
    assert message.src == 0 and message.dst == 1
    assert message.payload == "hello"
    assert message.sent_at == 0.0


def test_message_kind_default_and_custom():
    sim, network, nodes = wired()
    network.send(0, 1, "a")
    network.send(0, 2, "b", kind="control")
    sim.run()
    assert nodes[1].inbox[0].kind == "data"
    assert nodes[2].inbox[0].kind == "control"
    assert network.stats.by_kind == {"data": 1, "control": 1}


def test_offline_destination_loses_message():
    sim, network, nodes = wired()
    network.send(0, 1, "x")
    nodes[1].set_online(False)
    sim.run()
    assert nodes[1].inbox == []
    assert network.stats.lost_offline == 1
    assert network.stats.delivered == 0


def test_destination_offline_at_send_but_online_at_delivery():
    sim, network, nodes = wired()
    nodes[1].set_online(False)
    network.send(0, 1, "x")
    sim.schedule_at(1.0, nodes[1].set_online, True)
    sim.run()
    assert len(nodes[1].inbox) == 1


def test_send_from_offline_node_is_counted_drop():
    """An offline sender is a counted drop, not a crash (churn race)."""
    sim, network, nodes = wired()
    nodes[0].set_online(False)
    seen = []
    network.add_send_listener(lambda m: seen.append(m))
    assert network.send(0, 1, "x") is None
    sim.run()
    assert nodes[1].inbox == []
    assert network.stats.lost_sender_offline == 1
    # The message never existed for any other accounting surface.
    assert network.stats.sent == 0
    assert seen == []


def test_offline_at_own_tick_race_is_not_a_crash():
    """A node taken offline at the very instant its own timer fires.

    The churn transition is scheduled *first* (smaller FIFO seq, the
    ordering ChurnSchedule.apply guarantees by running before any
    protocol timer is armed), so the tick observes the node offline.
    A stale dynamically-scheduled callback that still attempts the send
    afterwards must degrade to a counted drop, never a RuntimeError.
    """
    sim, network, nodes = wired()
    tick_instant = 10.0
    outcomes = []

    def tick():
        # The guarded protocol path: skip the send while offline.
        if not nodes[0].online:
            outcomes.append("skipped")
            return
        network.send(0, 1, "tick")
        outcomes.append("sent")

    def stale_callback():
        # An unguarded application callback racing the same instant.
        outcomes.append(network.send(0, 1, "stale"))

    # Same virtual instant; scheduling order pins execution order.
    sim.schedule_at(tick_instant, nodes[0].set_online, False)
    sim.schedule_at(tick_instant, tick)
    sim.schedule_at(tick_instant, stale_callback)
    sim.run()
    assert outcomes == ["skipped", None]
    assert network.stats.lost_sender_offline == 1
    assert network.stats.sent == 0


def test_unknown_destination_raises():
    sim, network, nodes = wired()
    with pytest.raises(KeyError):
        network.send(0, 99, "x")


def test_duplicate_registration_raises():
    sim, network, nodes = wired()
    with pytest.raises(ValueError):
        network.register(Inbox(0))


def test_per_node_send_accounting():
    sim, network, nodes = wired()
    auditor = RateLimitAuditor(network)
    network.send(0, 1, "a")
    network.send(0, 2, "b")
    network.send(1, 2, "c")
    assert [auditor.total_sends(node) for node in range(3)] == [2, 1, 0]
    assert network.stats.sent == 3


def test_send_log_records_times():
    sim, network, nodes = wired()
    auditor = RateLimitAuditor(network)
    network.send(0, 1, "a")
    sim.schedule_at(5.0, network.send, 0, 1, "b")
    sim.run()
    assert auditor.send_times[0] == [0.0, 5.0]


def test_send_listener_observes_messages():
    sim, network, nodes = wired()
    seen = []
    network.add_send_listener(lambda m: seen.append((m.src, m.dst)))
    network.send(0, 1, "a")
    network.send(2, 0, "b")
    assert seen == [(0, 1), (2, 0)]


def test_negative_transfer_time_rejected():
    with pytest.raises(ValueError):
        Network(Simulator(), -1.0)


def test_zero_transfer_time_delivers_same_instant():
    sim = Simulator()
    network = Network(sim, 0.0)
    nodes = [Inbox(0), Inbox(1)]
    network.register_all(nodes)
    network.send(0, 1, "x")
    sim.run()
    assert sim.now == 0.0
    assert len(nodes[1].inbox) == 1


# ----------------------------------------------------------------------
# SimNode lifecycle
# ----------------------------------------------------------------------
def test_online_listener_fires_on_transition():
    node = Inbox(0)
    seen = []
    node.add_online_listener(seen.append)
    node.set_online(False)
    node.set_online(False)  # no transition, no event
    node.set_online(True)
    assert seen == [False, True]


def test_listener_sees_updated_flag():
    node = Inbox(0)
    observed = []
    node.add_online_listener(lambda online: observed.append(node.online))
    node.set_online(False)
    assert observed == [False]


def test_ever_online_tracking():
    node = Inbox(0, online=False)
    assert not node.ever_online
    node.set_online(True)
    node.set_online(False)
    assert node.ever_online


def test_base_deliver_raises():
    node = SimNode(0)
    with pytest.raises(NotImplementedError):
        node.deliver(None)
