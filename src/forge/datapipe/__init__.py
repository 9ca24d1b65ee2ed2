"""Data pipeline: JSONL records, tokenizer, corpus stats, scrubbing, chat templating, packing."""
