"""End-to-end benchmark of the ApproxRank system (see ``README.md``)."""
