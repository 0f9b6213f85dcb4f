package store

import (
	"bufio"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// A segment is one writer's append-only log of cell records, named
// <pid>-<start>-<nonce>.seg after the writing process's identity and
// the segment's creation time in nanoseconds (hex), which also orders
// segments: when two segments hold a record for one key, the one
// created later is read later and supersedes the other.
//
// A record is one frame:
//
//	magic   uint32, little-endian frameMagic
//	keyLen  uint32, little-endian
//	bodyLen uint32, little-endian
//	key     keyLen bytes, the cache key
//	body    bodyLen bytes, the JSON envelope
const (
	frameMagic  = 0x33534453 // "SDS3" on disk
	frameHeader = 12
	// maxKeyLen and maxBodyLen bound a frame's declared lengths: a
	// header claiming more is damage, not a record.
	maxKeyLen  = 1 << 16
	maxBodyLen = 1 << 28
	// scanBuffer is the fixed read buffer segments are scanned through.
	scanBuffer = 64 << 10
)

// appendFrame appends the frame of one record to dst.
func appendFrame(dst []byte, key string, body []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, frameMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(key)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = append(dst, key...)
	return append(dst, body...)
}

// parseHeader decodes a frame header, reporting false when it is not
// one.
func parseHeader(hdr []byte) (keyLen, bodyLen uint32, ok bool) {
	keyLen = binary.LittleEndian.Uint32(hdr[4:])
	bodyLen = binary.LittleEndian.Uint32(hdr[8:])
	ok = binary.LittleEndian.Uint32(hdr) == frameMagic &&
		keyLen > 0 && keyLen <= maxKeyLen && bodyLen <= maxBodyLen
	return keyLen, bodyLen, ok
}

// scanFrames reads the frames in r, whose first byte is at offset off
// of its segment, and calls fn with each complete frame's key, offset
// and length. It stops at the end of the data, at a frame cut short (a
// writer killed mid-append, or one still writing), or at a header that
// is not one (damage). It returns the offset just past the last
// complete frame, and whether it stopped at damage.
func scanFrames(r *bufio.Reader, off int64, key *[]byte, fn func(key []byte, off int64, n uint32)) (end int64, damaged bool) {
	var hdr [frameHeader]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return off, false
		}
		keyLen, bodyLen, ok := parseHeader(hdr[:])
		if !ok {
			return off, true
		}
		*key = slices.Grow((*key)[:0], int(keyLen))[:keyLen]
		if _, err := io.ReadFull(r, *key); err != nil {
			return off, false
		}
		if _, err := r.Discard(int(bodyLen)); err != nil {
			return off, false
		}
		n := frameHeader + keyLen + bodyLen
		fn(*key, off, n)
		off += int64(n)
	}
}

// readFrame reads the n-byte frame at off of the segment at path and
// returns its key and body.
func readFrame(path string, off int64, n uint32) (key, body []byte, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, nil, fmt.Errorf("record is cut short: %w", err)
	}
	keyLen, bodyLen, ok := parseHeader(buf)
	if !ok || frameHeader+keyLen+bodyLen != n {
		return nil, nil, errors.New("record header is damaged")
	}
	return buf[frameHeader : frameHeader+keyLen], buf[frameHeader+keyLen:], nil
}

// segmentName names a segment created by writer at time stamp (ns).
func segmentName(writer procIdent, stamp uint64) string {
	return fmt.Sprintf("%d-%d-%016x.seg", writer.PID, writer.Start, stamp)
}

// parseSegmentName inverts segmentName.
func parseSegmentName(name string) (writer procIdent, stamp uint64, ok bool) {
	rest, ok := strings.CutSuffix(name, ".seg")
	if !ok {
		return procIdent{}, 0, false
	}
	i := strings.LastIndexByte(rest, '-')
	if i < 0 {
		return procIdent{}, 0, false
	}
	stamp, err := strconv.ParseUint(rest[i+1:], 16, 64)
	if err != nil {
		return procIdent{}, 0, false
	}
	writer, ok = parseIdent(rest[:i])
	return writer, stamp, ok
}

// parseIdent parses "<pid>-<start>", the prefix of segment and owner
// file names.
func parseIdent(s string) (procIdent, bool) {
	pid, start, ok := strings.Cut(s, "-")
	if !ok {
		return procIdent{}, false
	}
	p, err1 := strconv.Atoi(pid)
	st, err2 := strconv.ParseUint(start, 10, 64)
	if err1 != nil || err2 != nil {
		return procIdent{}, false
	}
	return procIdent{PID: p, Start: st}, true
}

// newSegments lists the segments under dir that known does not hold,
// in log order: by creation time, then by name.
func newSegments(dir string, known map[string]bool) ([]string, error) {
	d, err := os.Open(filepath.Join(dir, "segments"))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	names, err := d.Readdirnames(-1)
	d.Close()
	if err != nil {
		return nil, err
	}
	type named struct {
		name  string
		stamp uint64
	}
	var segs []named
	for _, name := range names {
		if known[name] {
			continue
		}
		if _, stamp, ok := parseSegmentName(name); ok {
			segs = append(segs, named{name, stamp})
		}
	}
	slices.SortFunc(segs, func(a, b named) int {
		return cmp.Or(cmp.Compare(a.stamp, b.stamp), strings.Compare(a.name, b.name))
	})
	out := make([]string, len(segs))
	for i, s := range segs {
		out[i] = s.name
	}
	return out, nil
}

// Record locates one complete record in a store's log.
type Record struct {
	Hash    string // HashKey of the record's key
	Segment string // segment file name under segments/
	Offset  int64  // offset of the record's frame in the segment
	Size    int64  // frame length: header, key and envelope
}

// Records lists every complete record in the store at dir, in log
// order, without opening the store: it creates, repairs and removes
// nothing, so it shows what a killed writer left exactly as the next
// Open will find it. A record cut short at a segment's end is not
// listed. Records are not verified; Get does that.
func Records(dir string) ([]Record, error) {
	names, err := newSegments(dir, nil)
	if err != nil {
		return nil, err
	}
	var out []Record
	r := bufio.NewReaderSize(nil, scanBuffer)
	var key []byte
	for _, name := range names {
		f, err := os.Open(filepath.Join(dir, "segments", name))
		if err != nil {
			return nil, err
		}
		r.Reset(f)
		scanFrames(r, 0, &key, func(key []byte, off int64, n uint32) {
			h := sha256.Sum256(key)
			out = append(out, Record{Hash: hex.EncodeToString(h[:]), Segment: name, Offset: off, Size: int64(n)})
		})
		f.Close()
	}
	return out, nil
}
