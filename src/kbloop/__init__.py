"""Joint knowledge-base completion and question answering.

An agent answers questions over an incomplete triple store with four actions
(search, generate, complete, finish); a trainable completer backs the
complete action; and the agent's verified reasoning paths fine-tune the
completer in return.
"""
