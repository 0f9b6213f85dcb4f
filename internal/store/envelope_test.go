package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// envelopeV3 is the struct whose json.Marshal wrote the record bodies
// of earlier v3 builds, kept as the reference sealEnvelope must match.
type envelopeV3 struct {
	Version  int             `json:"version"`
	Key      string          `json:"key"`
	Checksum string          `json:"checksum"`
	Payload  json.RawMessage `json:"payload"`
}

// TestSealEnvelopeMatchesEncodingJSON: sealEnvelope writes, byte for
// byte, what json.Marshal wrote for the envelope struct, for keys that
// need every kind of escape, so records written before it still verify;
// and openEnvelope accepts exactly those bytes.
func TestSealEnvelopeMatchesEncodingJSON(t *testing.T) {
	payload, err := json.Marshal(sampleStats(42))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload)
	keys := []string{"", HashKey("k"), `say "hi"`, `C:\cells`, "<b>", "a&b", "café", "日本",
		"line\u2028para\u2029", "\b\f\n\r\t", "\x00\x1f\x7f", "bad \xff utf-8 \xe2\x82", "\U0001F600"}
	for b := 0; b < 256; b++ {
		keys = append(keys, string([]byte{byte(b)}))
	}
	for _, key := range keys {
		want, err := json.Marshal(&envelopeV3{Version: Version, Key: key,
			Checksum: hex.EncodeToString(sum[:]), Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		got := sealEnvelope(nil, key, payload)
		if !bytes.Equal(got, want) {
			t.Errorf("key %q: sealEnvelope wrote\n%s\nencoding/json writes\n%s", key, got, want)
			continue
		}
		if p, err := openEnvelope(got, key); err != nil || !bytes.Equal(p, payload) {
			t.Errorf("key %q: openEnvelope of its own envelope = %v", key, err)
		}
	}
}
