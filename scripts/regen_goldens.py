#!/usr/bin/env python3
"""Regenerate the golden rank tables under tests/data/ from the
published tables recorded in eqgrass.known."""

from pathlib import Path

from eqgrass.known import FINAL_363_TABLE, KNOWN_TABLES
from eqgrass.modalg import render_rank_table


def goldens() -> dict[str, str]:
    """The text of each golden file, by file name."""
    texts = {f"gr{k}_{p}_{q}.txt": render_rank_table(module) + "\n"
             for (k, p, q), module in sorted(KNOWN_TABLES.items())}
    texts["gr3_6_3_final.txt"] = render_rank_table(FINAL_363_TABLE) + "\n"
    return texts


def main() -> None:
    data_dir = Path(__file__).resolve().parent.parent / "tests" / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    for name, text in goldens().items():
        path = data_dir / name
        path.write_text(text)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
