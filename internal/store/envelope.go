package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strconv"
	"strings"
	"unicode/utf8"
)

// A record's body is its envelope, one line of JSON:
//
//	{"version":3,"key":<key>,"checksum":"<sha256 hex of payload>","payload":<payload>}
//
// with the key escaped as encoding/json escapes it and the payload the
// compact JSON json.Marshal writes for the cell's core.Stats. These are
// the bytes json.Marshal wrote for the envelope struct of every earlier
// v3 build, so their records verify unchanged. The payload is
// checksummed on its own, so a torn or bit-flipped record fails
// verification; a record whose bytes differ from this layout in any
// other way, such as a re-encoding that is still valid JSON, fails it
// too.
var (
	envHead     = []byte(`{"version":` + strconv.Itoa(Version) + `,"key":`)
	envChecksum = []byte(`,"checksum":"`)
	envPayload  = []byte(`","payload":`)
)

// sealEnvelope appends to dst the envelope of payload under key.
func sealEnvelope(dst []byte, key string, payload []byte) []byte {
	dst = append(dst, envHead...)
	dst = appendQuoted(dst, key)
	dst = append(dst, envChecksum...)
	sum := sha256.Sum256(payload)
	dst = hex.AppendEncode(dst, sum[:])
	dst = append(dst, envPayload...)
	dst = append(dst, payload...)
	return append(dst, '}')
}

// openEnvelope returns the payload of body when body is exactly the
// envelope sealEnvelope writes for key and that payload, and otherwise
// says where it differs.
func openEnvelope(body []byte, key string) ([]byte, error) {
	rest, ok := bytes.CutPrefix(body, envHead)
	if !ok {
		return nil, errors.New("envelope does not open with layout version " + strconv.Itoa(Version))
	}
	var buf [128]byte
	if rest, ok = bytes.CutPrefix(rest, appendQuoted(buf[:0], key)); !ok {
		return nil, errors.New("envelope names another key")
	}
	if rest, ok = bytes.CutPrefix(rest, envChecksum); !ok || len(rest) < 2*sha256.Size {
		return nil, errors.New("envelope has no checksum after its key")
	}
	sum, rest := rest[:2*sha256.Size], rest[2*sha256.Size:]
	if rest, ok = bytes.CutPrefix(rest, envPayload); !ok {
		return nil, errors.New("envelope has no payload after its checksum")
	}
	payload, ok := bytes.CutSuffix(rest, []byte{'}'})
	if !ok {
		return nil, errors.New("envelope does not close after its payload")
	}
	var want [2 * sha256.Size]byte
	got := sha256.Sum256(payload)
	hex.Encode(want[:], got[:])
	if !bytes.Equal(sum, want[:]) {
		return nil, errors.New("payload checksum mismatch")
	}
	return payload, nil
}

// appendQuoted appends s as the JSON string json.Marshal writes for it:
// HTML-escaped, with each invalid UTF-8 byte as \ufffd.
func appendQuoted(dst []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			if j := strings.IndexByte("\"\\\b\f\n\r\t", b); j >= 0 {
				dst = append(dst, '\\', "\"\\bfnrt"[j])
			} else {
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
