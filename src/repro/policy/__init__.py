"""Declarative, versioned, hot-swappable QoS policies (docs/POLICY.md).

The document model and store live here; the service half
(:mod:`repro.policy.service`) imports the heavier globalqos machinery
and is imported explicitly by its users, keeping this package root
dependency-light for the scenario modules that only need documents.
The policy-flip failover chaos harness is the ``policy`` row of
:data:`repro.globalqos.chaos.SKEW_CHAOS`.
"""

from repro.policy.document import (
    POLICY_SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    ClientClass,
    PolicyBinding,
    PolicyError,
    PolicyVersionError,
    QoSPolicy,
    bind_in_order,
)
from repro.policy.store import list_builtin, load_policy, save_policy

__all__ = [
    "POLICY_SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "ClientClass",
    "PolicyBinding",
    "PolicyError",
    "PolicyVersionError",
    "QoSPolicy",
    "bind_in_order",
    "list_builtin",
    "load_policy",
    "save_policy",
]
