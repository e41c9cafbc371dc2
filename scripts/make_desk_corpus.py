#!/usr/bin/env python3
"""Generate the bundled synthetic microblog corpus (src/stegolm/data/desk_corpus.txt).

The corpus is ~100k tokens of template-generated, Zipf-weighted short
messages: enough local structure for an n-gram or small LSTM to learn, a
heavy-tailed unigram distribution so a handful of tokens dominates, plus
mentions, URLs and a sprinkle of retweets so the normalization switches all
have something to chew on. Fully deterministic for a fixed seed; rerunning
this script must reproduce the committed file byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import random
from pathlib import Path

SUBJECTS = [
    "i", "you", "we", "they", "he", "she", "everyone", "nobody",
    "my friend", "the team", "my mom", "my dad", "my brother", "my sister",
    "the kids", "the cat", "the dog", "this guy", "that girl", "the coach",
]

DETERMINERS = ["the", "a", "my", "your", "this", "that", "his", "her", "our",
               "some", "every", "another", "one more"]

BE_FORMS = ["is", "was", "are", "were", "feels", "looks", "seems", "sounds", "gets"]

VERBS = [
    "love", "need", "want", "miss", "like", "see", "hear", "know", "think",
    "hope", "wish", "feel", "make", "take", "get", "find", "watch", "play",
    "read", "write", "sing", "drink", "eat", "buy", "call", "text", "meet",
    "visit", "remember", "forget", "enjoy", "start", "finish", "plan", "try",
    "keep", "leave", "catch", "ride", "walk", "run", "study", "learn", "teach",
    "build", "break", "fix", "clean", "cook", "bake", "paint", "draw", "share",
    "post", "send", "open", "close", "win", "lose", "save", "spend", "wear",
    "carry", "push", "pull", "throw", "drop", "hold", "hug", "kiss", "chase",
]

VERBS_PAST = [
    "loved", "needed", "wanted", "missed", "liked", "saw", "heard", "knew",
    "thought", "hoped", "wished", "felt", "made", "took", "got", "found",
    "watched", "played", "sang", "drank", "ate", "bought", "called",
    "texted", "met", "visited", "remembered", "forgot", "enjoyed", "started",
    "finished", "planned", "tried", "kept", "left", "caught", "rode",
    "walked", "ran", "studied", "learned", "built", "broke", "fixed",
    "cleaned", "cooked", "baked", "painted", "drew", "shared", "posted",
    "sent", "opened", "closed", "won", "lost", "saved", "spent", "wore",
]

NOUNS = [
    "morning", "night", "day", "week", "weekend", "monday", "tuesday",
    "wednesday", "thursday", "friday", "saturday", "sunday", "coffee", "tea",
    "breakfast", "lunch", "dinner", "pizza", "cake", "rain", "sun", "snow",
    "wind", "storm", "weather", "beach", "park", "city", "town", "street",
    "bus", "train", "car", "bike", "game", "match", "team", "song", "album",
    "movie", "film", "show", "book", "story", "class", "school", "work",
    "office", "meeting", "phone", "laptop", "screen", "music", "dance",
    "party", "birthday", "family", "friend", "friends", "dog", "cat", "bird",
    "garden", "flower", "tree", "river", "mountain", "sky", "star", "moon",
    "dream", "sleep", "nap", "gym", "coach", "teacher", "doctor", "summer",
    "winter", "spring", "autumn", "holiday", "trip", "flight", "airport",
    "hotel", "room", "house", "home", "kitchen", "door", "window", "photo",
    "picture", "video", "internet", "wifi", "battery", "update", "app",
    "account", "password", "email", "letter", "news", "paper", "money",
    "ticket", "gift", "box", "bag", "shoe", "shirt", "dress", "hat", "glass",
    "bottle", "cup", "plate", "chair", "table", "bed", "sofa", "wall",
    "floor", "roof", "key", "lock", "clock", "watch", "minute", "hour",
    "second", "year", "month", "moment", "chance", "luck", "joke", "laugh",
    "smile", "face", "hand", "eye", "hair", "heart", "mind", "idea", "plan",
    "goal", "test", "exam", "question", "answer", "word", "line", "page",
    "note", "list", "recipe", "soup", "salad", "bread", "cheese", "apple",
    "orange", "banana", "grape", "lemon", "tomato", "potato", "rice",
    "pasta", "sauce", "chicken", "fish", "egg", "milk", "sugar", "salt",
    "chocolate", "cookie", "snack", "juice", "water", "playlist", "episode",
    "season", "channel", "concert", "stage", "ticket line", "crowd", "queue",
    "library", "museum", "market", "shop", "store", "mall", "corner",
    "bridge", "tunnel", "road", "traffic", "lights", "umbrella", "jacket",
    "scarf", "gloves", "blanket", "pillow", "candle", "lamp", "mirror",
]

ADJECTIVES = [
    "good", "bad", "great", "nice", "happy", "sad", "tired", "busy", "lazy",
    "crazy", "funny", "weird", "cool", "warm", "cold", "hot", "sunny",
    "rainy", "cloudy", "windy", "beautiful", "lovely", "pretty", "old",
    "new", "young", "little", "small", "big", "huge", "tiny", "long",
    "short", "early", "late", "fast", "slow", "easy", "hard", "simple",
    "perfect", "awesome", "amazing", "terrible", "awful", "boring",
    "exciting", "interesting", "quiet", "loud", "clean", "dirty", "fresh",
    "sweet", "sour", "bitter", "spicy", "healthy", "sick", "strong", "weak",
    "free", "cheap", "expensive", "full", "empty", "ready", "open", "closed",
    "bright", "dark", "deep", "high", "low", "real", "true", "wrong",
    "right", "lucky", "proud", "calm", "nervous", "excited", "hungry",
    "thirsty", "sleepy", "golden", "silver", "silly", "gentle", "brave",
]

ADVERBS = [
    "so", "really", "very", "just", "still", "always", "never", "often",
    "sometimes", "usually", "almost", "already", "finally", "probably",
    "maybe", "definitely", "honestly", "actually", "totally", "super",
    "too", "again", "soon", "today", "tonight", "tomorrow", "yesterday",
    "now", "here", "there",
]

INTERJECTIONS = ["lol", "haha", "omg", "wow", "yay", "ugh", "hmm", "oops",
                 "yikes", "woohoo", "phew", "meh", "aww", "welp"]

NAMES = [
    "sam", "alex", "jamie", "taylor", "jordan", "casey", "riley", "morgan",
    "quinn", "avery", "dana", "reese", "skyler", "emerson", "rowan", "blake",
    "finley", "hayden", "kendall", "logan", "marley", "nico", "parker",
    "sage", "shay", "tatum", "remy", "luca", "ari", "devon",
]

URL_STEMS = ["t.co", "bit.ly", "tinyurl.com", "ow.ly"]


@functools.cache
def zipf_cum_weights(size: int, exponent: float) -> list[float]:
    """The running sums ``random.choices`` would take of the Zipf weights."""
    return list(itertools.accumulate(1.0 / (rank + 1) ** exponent for rank in range(size)))


def zipf_pick(rng: random.Random, pool: list[str], exponent: float = 1.0) -> str:
    return rng.choices(pool, cum_weights=zipf_cum_weights(len(pool), exponent), k=1)[0]


class MessageSampler:
    def __init__(self, rng: random.Random):
        self.rng = rng

    def word(self, pool: list[str]) -> str:
        return zipf_pick(self.rng, pool)

    def mention(self) -> str:
        return "@" + self.rng.choice(NAMES)

    def url(self) -> str:
        stem = self.rng.choice(URL_STEMS)
        tail = "".join(self.rng.choices("abcdefghijklmnopqrstuvwxyz0123456789", k=6))
        return f"http://{stem}/{tail}"

    def end_punct(self) -> str:
        return self.rng.choices([".", "!", "?", "..."], weights=[10, 5, 2, 1], k=1)[0]

    def maybe(self, piece: str, p: float) -> list[str]:
        return [piece] if self.rng.random() < p else []

    def clause(self) -> list[str]:
        r = self.rng
        kind = r.choices(
            ["svo", "be_adj", "past", "noun_is", "want_to", "time"],
            weights=[28, 22, 18, 14, 10, 8], k=1)[0]
        if kind == "svo":
            out = [self.word(SUBJECTS)]
            out += self.maybe(self.word(ADVERBS), 0.45)
            out += [self.word(VERBS), self.word(DETERMINERS)]
            out += self.maybe(self.word(ADJECTIVES), 0.35)
            out += [self.word(NOUNS)]
            return out
        if kind == "be_adj":
            out = [self.word(SUBJECTS), self.word(BE_FORMS)]
            out += self.maybe(self.word(ADVERBS), 0.55)
            out += [self.word(ADJECTIVES)]
            out += self.maybe(self.word(ADVERBS), 0.2)
            return out
        if kind == "past":
            out = [self.word(SUBJECTS)]
            out += self.maybe("just", 0.35)
            out += [self.word(VERBS_PAST), self.word(DETERMINERS)]
            out += self.maybe(self.word(ADJECTIVES), 0.3)
            out += [self.word(NOUNS)]
            return out
        if kind == "noun_is":
            out = [self.word(DETERMINERS), self.word(NOUNS), self.word(BE_FORMS)]
            out += self.maybe(self.word(ADVERBS), 0.5)
            out += [self.word(ADJECTIVES)]
            return out
        if kind == "want_to":
            return [self.word(SUBJECTS),
                    r.choice(["want to", "need to", "can't wait to", "forgot to",
                              "love to", "hate to"]),
                    self.word(VERBS), self.word(DETERMINERS), self.word(NOUNS)]
        out = ["good", self.word(["morning", "morning", "night", "evening", "afternoon"])]
        out += self.maybe("everyone", 0.4)
        return out

    def message(self) -> str:
        r = self.rng
        pieces: list[str] = []
        roll = r.random()
        if roll < 0.03:
            pieces.append("rt")
            pieces.append(self.mention())
            pieces.append(":")
        elif roll < 0.13:
            pieces.append(self.mention())
        if r.random() < 0.10:
            pieces.append(self.word(INTERJECTIONS))
            if r.random() < 0.5:
                pieces.append(",")
        pieces.extend(self.clause())
        if r.random() < 0.30:
            pieces.append(r.choices([",", "and", "but", "because"],
                                    weights=[4, 3, 2, 2], k=1)[0])
            pieces.extend(self.clause())
        pieces.append(self.end_punct())
        if r.random() < 0.08:
            pieces.append(self.word(INTERJECTIONS))
            pieces.append(self.end_punct())
        if r.random() < 0.05:
            pieces.append(self.url())
        if r.random() < 0.03:
            pieces.append(self.mention())
        return " ".join(pieces)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lines", type=int, default=11600)
    parser.add_argument("--seed", type=int, default=20210126)
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "src" / "stegolm" / "data" / "desk_corpus.txt")
    args = parser.parse_args()

    sampler = MessageSampler(random.Random(args.seed))
    lines = [sampler.message() for _ in range(args.lines)]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {args.lines} messages to {args.out}")


if __name__ == "__main__":
    main()
