package memo

import (
	"bytes"
	"crypto/sha256"
	"testing"
)

// FuzzSpillRecord drives the spill file decoder with arbitrary bytes
// filed under an arbitrary address. Decoding must never panic, and any
// file it accepts must be exactly the encoding of what it returned: a
// current-layout record re-encodes byte for byte and its key hashes to
// the address; a legacy file is its payload's hash followed by the
// payload. The committed corpus (testdata/fuzz/FuzzSpillRecord) seeds
// both layouts, truncated headers, oversized key and code lengths, an
// empty key and a record filed under the wrong address.
func FuzzSpillRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, addr string, data []byte) {
		r, err := decodeRecord(addr, data)
		if err != nil {
			return
		}
		var again []byte
		if r.Key == "" {
			sum := sha256.Sum256(r.Payload)
			again = append(sum[:], r.Payload...)
		} else {
			if Addr(r.Key) != addr {
				t.Fatalf("record for key %q accepted under address %s", r.Key, addr)
			}
			again = encodeRecord(r)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted record re-encodes differently:\n got %x\nwant %x", again, data)
		}
	})
}
