"""Instance generators, the canonical file format, and the CLI."""
