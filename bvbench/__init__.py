"""The benchmark of record (see NOTES.md)."""
