package graphml

import (
	"strings"
	"testing"
)

// FuzzDecode asserts the decoder never panics on arbitrary input and that
// everything it accepts re-encodes and decodes to the same shape.
func FuzzDecode(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := DecodeString(src)
		if err != nil {
			return
		}
		// Accepted documents must satisfy graph invariants and re-encode.
		if err := g.Validate(); err != nil {
			t.Fatalf("decoded graph invalid: %v", err)
		}
		text, err := EncodeString(g)
		if err != nil {
			// Mixed attribute kinds across elements can be un-encodable;
			// anything else should round-trip.
			if strings.Contains(err.Error(), "mixed kinds") {
				return
			}
			t.Fatalf("re-encode failed: %v", err)
		}
		g2, err := DecodeString(text)
		if err != nil {
			t.Fatalf("re-decode failed: %v\n%s", err, text)
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: %v vs %v", g2, g)
		}
	})
}
