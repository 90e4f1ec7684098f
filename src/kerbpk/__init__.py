"""Ticket-based authentication with public-key initial auth.

A realm has one key-distribution center (authentication service plus
ticket-granting service), any number of users and services, and exactly one
long-term key per principal.  Users prove themselves once with a
certificate-backed signature, collect a ticket-granting ticket, trade it for
service tickets, and establish mutually authenticated channels that wrap
application traffic with replay and ordering protection.

Everything runs over a deterministic in-process network simulator or real
loopback sockets; the ``kerbpk`` command line drives both.  Import the
submodules (``kerbpk.kdc``, ``kerbpk.client``, ...) for the library API;
importing the package alone loads none of them.
"""

__version__ = "0.1.0"
