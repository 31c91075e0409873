"""Publish/subscribe on top of batch incremental view maintenance.

The paper is motivated by a pub/sub system (built at Duke) where a
subscription consists of a *content query* (what I want) and a
*notification condition* (when I want it), with a quality-of-service
guarantee bounding the processing delay of notifications.  The content
query's result is maintained batch-incrementally: it only needs to be up
to date when the notification condition triggers, so between notifications
the system batches modifications -- exactly the setting the scheduling
theory optimizes.

This subpackage implements that application:

* :class:`~repro.pubsub.conditions.NotificationCondition` implementations
  -- periodic ("every hour") and value-watch ("oil price changed by more
  than 10% since the last report");
* :class:`~repro.pubsub.subscription.Subscription` -- a content query plus
  a condition plus a per-subscription response-time guarantee;
* :class:`~repro.pubsub.broker.PubSubBroker` -- registers subscriptions,
  advances the clock, schedules maintenance with any
  :class:`~repro.core.policies.Policy`, evaluates conditions, refreshes on
  trigger, and emits :class:`~repro.pubsub.broker.Notification` records
  carrying the result diff and the (guarantee-checked) refresh latency.
"""

from repro.pubsub.conditions import (
    EveryNSteps,
    NotificationCondition,
    ValueWatch,
)
from repro.pubsub.subscription import Subscription
from repro.pubsub.broker import Notification, PubSubBroker

__all__ = [
    "EveryNSteps",
    "Notification",
    "NotificationCondition",
    "PubSubBroker",
    "Subscription",
    "ValueWatch",
]
