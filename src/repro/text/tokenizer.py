"""Tokenization of entity text into normalized keyword terms.

The pipeline mirrors the paper's preprocessing: lowercase, split on
non-alphanumerics, drop stopwords, drop non-English/garbage tokens, then
Porter-stem. The same pipeline normalizes both the indexed entity text and
incoming query strings so that they meet in one keyword space.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional

from .stemmer import porter_stem
from .stopwords import is_stopword

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+")


@dataclass(frozen=True)
class TokenizerConfig:
    """Normalization knobs.

    Attributes:
        stem: apply the Porter stemmer (paper: "word stemming").
        remove_stopwords: drop English stopwords (paper: "stopping word
            filtering").
        min_length: discard tokens shorter than this after normalization.
        keep_numbers: keep purely numeric tokens (years etc.); off by
            default since they behave like stopwords in entity labels.
    """

    stem: bool = True
    remove_stopwords: bool = True
    min_length: int = 2
    keep_numbers: bool = False


class Tokenizer:
    """Reusable text → keyword-term normalizer.

    >>> Tokenizer().tokenize("Efficient Indexing of Relational Databases")
    ['effici', 'index', 'relat', 'databas']
    """

    def __init__(self, config: TokenizerConfig = TokenizerConfig()) -> None:
        self.config = config

    def normalize(self, token: str) -> Optional[str]:
        """The term one lower-case raw token becomes, or ``None`` if dropped."""
        config = self.config
        if not config.keep_numbers and token.isdigit():
            return None
        if config.remove_stopwords and is_stopword(token):
            return None
        if config.stem:
            token = porter_stem(token)
        if len(token) < config.min_length:
            return None
        return token

    def tokenize(
        self, text: str, memo: Optional[Dict[str, Optional[str]]] = None
    ) -> List[str]:
        """Normalize ``text`` into an ordered list of keyword terms.

        Args:
            memo: raw token → :meth:`normalize` result, owned by a caller
                that tokenizes many texts in one go (an index build sees
                each distinct token thousands of times). It is filled as
                a side effect and is only valid for this tokenizer's
                config; the tokenizer itself keeps no cache, since it
                lives as long as the engine and also sees query strings.
        """
        if memo is None:
            memo = {}
        tokens = _TOKEN_PATTERN.findall(text.lower())
        for token in tokens:
            if token not in memo:
                memo[token] = self.normalize(token)
        return [memo[token] for token in tokens if memo[token] is not None]

    def unique_terms(
        self, text: str, memo: Optional[Dict[str, Optional[str]]] = None
    ) -> List[str]:
        """Like :meth:`tokenize` but deduplicated, preserving first-seen order."""
        return list(dict.fromkeys(self.tokenize(text, memo)))
