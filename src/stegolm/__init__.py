"""stegolm: hide byte payloads inside generated natural-language text.

A shared key partitions a vocabulary into bins, one per possible bit block;
a language model generates text while restricted to the bin selected by each
payload block, and the receiver maps tokens back to bins to recover the bits.
"""

from .codec import (
    Framing,
    GenPolicy,
    Mode,
    Payload,
    Stegotext,
    decode,
    decode_payload,
    encode,
    encode_bits,
    render,
)
from .corpus import (
    CorpusConfig,
    EOS_TOKEN,
    UNK_TOKEN,
    URL_TOKEN,
    USER_TOKEN,
    Vocabulary,
    build_vocab,
    tokenize,
)
from .errors import StegolmError
from .keying import (
    BitBlock,
    StegoKey,
    deserialize_key,
    generate_key,
    load_key,
    save_key,
    serialize_key,
)
from .lm import (
    LanguageModel,
    LstmHyperparams,
    NgramConfig,
    load_model,
    save_model,
    train_lstm,
    train_ngram,
)
from .metrics import (
    CapacityReport,
    PerplexityReport,
    capacity,
    capacity_empirical,
    perplexity,
    stego_perplexity,
    stego_word_prob,
)

__version__ = "0.1.0"
