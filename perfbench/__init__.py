"""End-to-end benchmark of the leader election service (see README.md)."""
