package sim

// The message word: the one representation every message takes.
//
// A message is one int64 Word, with a sentinel (NoWord) for "no message",
// so the round loop moves messages without boxing or allocation. The
// algorithms of this repository overwhelmingly exchange single machine
// words (colors, tokens, field elements), and most of them send the same
// word on every port, which the engine stores once per vertex (sim.go).
// A program whose messages are wider sends a word-sized handle into a
// payload table it owns, fills the sender's entry in the round it sends,
// and lets the receiver read it in the next round; its WordSizer reports
// the payload's true size, so Stats charges the bits a real network would
// carry.

import "math"

// Word is a single-word message payload. It is an alias of int64 so
// algorithm code reads and writes colors without conversions.
type Word = int64

// NoWord is the Word sentinel for "no message". Programs must not send it
// as a payload; every payload in this repository is a non-negative color,
// token or tagged handle, far from the sentinel.
const NoWord Word = math.MinInt64

// portWord is the broadcast-slab marker of a vertex whose ports carried
// different words in a round; receivers then read the per-arc slab. It is
// reserved like NoWord: a machine that sends it fails the run with an
// error naming the vertex and the round, rather than corrupting delivery.
const portWord Word = NoWord + 1

// WordSizer lets a machine report the encoded size in bits of each word it
// emits. Words from machines that do not implement it are accounted as one
// machine word (64 bits). The paper's model is LOCAL (unbounded messages);
// this accounting measures how far each algorithm actually strays from
// CONGEST-sized messages.
type WordSizer interface {
	WordBits(w Word) int64
}

// SendAllWords writes the same word to every outgoing port.
func SendAllWords(out []Word, w Word) {
	for p := range out {
		out[p] = w
	}
}
