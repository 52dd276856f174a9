package memo

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"xbarsec/internal/wal"
)

// SpillStore is the content-addressed on-disk tier behind the in-memory
// artifact cache: values evicted by the byte-weight bound (and every
// completed job's artifact, written through at completion) land here and
// are served on later misses, so a process restart goes warm instead of
// recomputing hours of campaign work.
//
// Addressing: each artifact is one file named hex(sha256(key)) — keys
// are the same deterministic spec keys the cache uses, so the same spec
// always maps to the same file across restarts. The file is the whole
// on-disk record: beside the payload it keeps the spec key and code
// identity, the preimages of the artifact's provenance chain
// (api.BuildProof). Integrity: Get verifies one sha256 over key, code
// and payload, and that the key hashes to the file name; a mismatch
// (bit rot, a torn write that survived rename — anything) quarantines
// the file rather than serving a wrong artifact. Writes are tmp+rename
// atomic, so a crash mid-Put leaves either the previous content or
// nothing, never a half-written artifact at the live name.
//
// File layout, integers big-endian: ["xbspill2"][sha256 of the rest]
// [uint32 key len][uint32 code len][key][code][payload]. Legacy files,
// [sha256 of payload][payload], are still served by key but carry
// nothing to prove by address; one whose hash starts with the magic
// (odds 2^-64) would be quarantined and recomputed.
type SpillStore struct {
	fsys wal.FS
	dir  string

	// putMu serializes writers of distinct keys only for the counter
	// updates' benefit; same-key writers are already collapsed upstream
	// by the cache's singleflight.
	putMu sync.Mutex

	// inv is what each live file added to the artifacts/records/bytes
	// counters, by address, so quarantine takes out exactly that — not
	// what it reads from a file that may have changed since.
	invMu sync.Mutex
	inv   map[string]counted

	artifacts atomic.Int64 // live artifact files
	records   atomic.Int64 // of which carry their key and code
	bytes     atomic.Int64 // their total payload bytes
	hits      atomic.Int64
	misses    atomic.Int64
	puts      atomic.Int64
	corrupt   atomic.Int64 // files quarantined by failed verification
}

// Record is one spilled artifact as decoded from its file: the payload
// and the spec key and code identity that computed it. A legacy file
// decodes with Key and Code empty.
type Record struct {
	Key, Code string
	Payload   []byte
}

const (
	spillMagic      = "xbspill2"
	spillSumOff     = len(spillMagic)
	spillLensOff    = spillSumOff + sha256.Size
	spillHeaderSize = spillLensOff + 8
	spillTmpSuffix  = ".tmp"
	spillQuarSuffix = ".quarantine"
)

// counted is one file's share of the inventory counters.
type counted struct {
	record bool  // carries its key and code
	bytes  int64 // payload bytes
}

// SpillStats is a snapshot of the store's counters for GET /v2/stats.
type SpillStats struct {
	// Artifacts and Bytes describe what is on disk now (preexisting
	// files from earlier runs included); Records counts the artifacts
	// whose files carry their key and code, i.e. can be proven.
	Artifacts int64
	Records   int64
	Bytes     int64
	// Hits, Misses, Puts and Corrupt count this process's activity:
	// verified reloads, absent keys, artifacts written, and files
	// quarantined by failed integrity checks.
	Hits, Misses, Puts, Corrupt int64
}

// OpenSpill opens (creating if needed) a spill store rooted at dir. It
// scans the directory (file headers only) to seed the counters with what
// earlier runs left behind — that inventory is what makes a restart
// warm — and sweeps stale temporary files from crashed Puts.
func OpenSpill(fsys wal.FS, dir string) (*SpillStore, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("memo: creating spill dir %s: %w", dir, err)
	}
	s := &SpillStore{fsys: fsys, dir: dir, inv: map[string]counted{}}
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("memo: scanning spill dir %s: %w", dir, err)
	}
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() {
			continue
		}
		path := filepath.Join(dir, name)
		if strings.HasSuffix(name, spillTmpSuffix) {
			// A crash between create and rename; the live name never saw it.
			_ = fsys.Remove(path)
			continue
		}
		if strings.HasSuffix(name, spillQuarSuffix) {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		head := make([]byte, spillHeaderSize)
		if f, err := fsys.OpenFile(path, os.O_RDONLY, 0); err == nil {
			n, _ := io.ReadFull(f, head)
			head = head[:n]
			f.Close()
		}
		s.count(name, sizeOf(head, info.Size()))
	}
	return s, nil
}

// sizeOf sizes one file's inventory share from its leading bytes and
// total size.
func sizeOf(head []byte, size int64) counted {
	if !bytes.HasPrefix(head, []byte(spillMagic)) {
		return counted{bytes: max(size-sha256.Size, 0)}
	}
	c := counted{record: true}
	if len(head) >= spillHeaderSize {
		c.bytes = max(size-int64(spillHeaderSize)-int64(binary.BigEndian.Uint32(head[spillLensOff:]))-
			int64(binary.BigEndian.Uint32(head[spillLensOff+4:])), 0)
	}
	return c
}

// count adds the file at addr to the inventory.
func (s *SpillStore) count(addr string, c counted) {
	s.invMu.Lock()
	defer s.invMu.Unlock()
	s.inv[addr] = c
	s.artifacts.Add(1)
	if c.record {
		s.records.Add(1)
	}
	s.bytes.Add(c.bytes)
}

// uncount takes the file at addr out of the inventory, by exactly what
// count added for it; a file never counted takes out nothing.
func (s *SpillStore) uncount(addr string) {
	s.invMu.Lock()
	defer s.invMu.Unlock()
	c, ok := s.inv[addr]
	if !ok {
		return
	}
	delete(s.inv, addr)
	s.artifacts.Add(-1)
	if c.record {
		s.records.Add(-1)
	}
	s.bytes.Add(-c.bytes)
}

// encodeRecord lays out one record in the current format.
func encodeRecord(r Record) []byte {
	buf := make([]byte, spillHeaderSize, spillHeaderSize+len(r.Key)+len(r.Code)+len(r.Payload))
	copy(buf, spillMagic)
	binary.BigEndian.PutUint32(buf[spillLensOff:], uint32(len(r.Key)))
	binary.BigEndian.PutUint32(buf[spillLensOff+4:], uint32(len(r.Code)))
	buf = append(buf, r.Key...)
	buf = append(buf, r.Code...)
	buf = append(buf, r.Payload...)
	sum := sha256.Sum256(buf[spillLensOff:])
	copy(buf[spillSumOff:], sum[:])
	return buf
}

// decodeRecord parses and verifies the bytes of the file at content
// address addr, in either layout. The returned payload aliases data.
func decodeRecord(addr string, data []byte) (Record, error) {
	if !bytes.HasPrefix(data, []byte(spillMagic)) {
		if len(data) < sha256.Size {
			return Record{}, errors.New("memo: spill file shorter than its hash")
		}
		if sum := sha256.Sum256(data[sha256.Size:]); string(sum[:]) != string(data[:sha256.Size]) {
			return Record{}, errors.New("memo: spill payload fails its hash")
		}
		return Record{Payload: data[sha256.Size:]}, nil
	}
	if len(data) < spillHeaderSize {
		return Record{}, errors.New("memo: spill record header truncated")
	}
	k := uint64(binary.BigEndian.Uint32(data[spillLensOff:]))
	c := uint64(binary.BigEndian.Uint32(data[spillLensOff+4:]))
	if k == 0 || k+c > uint64(len(data)-spillHeaderSize) {
		return Record{}, fmt.Errorf("memo: spill record key/code lengths %d/%d do not fit", k, c)
	}
	if sum := sha256.Sum256(data[spillLensOff:]); string(sum[:]) != string(data[spillSumOff:spillLensOff]) {
		return Record{}, errors.New("memo: spill record fails its hash")
	}
	body := data[spillHeaderSize:]
	r := Record{Key: string(body[:k]), Code: string(body[k : k+c]), Payload: body[k+c:]}
	if Addr(r.Key) != addr {
		return Record{}, fmt.Errorf("memo: spill record for key %q is filed under %s", r.Key, addr)
	}
	return r, nil
}

// path maps a cache key to its content-addressed file.
func (s *SpillStore) path(key string) string {
	return filepath.Join(s.dir, Addr(key))
}

// Addr returns the content address a key spills under: hex(sha256 of
// the raw key), the file's basename. It is the artifact id of the
// GET /v2/artifacts/{id} endpoints (api.ArtifactID computes the same
// address from the wire side).
func Addr(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// ValidAddr reports whether s is a well-formed content address: exactly
// the 64 lowercase hex characters Addr produces. Callers serving
// artifacts by client-supplied address must check it first — anything
// else (path separators, "..", uppercase aliases) is rejected rather
// than mapped to a file.
func ValidAddr(s string) bool {
	if len(s) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// GetAddr reloads one artifact's record by content address instead of
// by key, with the same verification and quarantine behavior as Get. It
// backs the artifact-serving endpoints, where the requester knows only
// the address. An invalid address is an error, never a path lookup.
func (s *SpillStore) GetAddr(addr string) (Record, bool, error) {
	if !ValidAddr(addr) {
		return Record{}, false, fmt.Errorf("memo: invalid artifact address %q", addr)
	}
	return s.getPath(filepath.Join(s.dir, addr))
}

// Put spills one artifact, atomically, as a record carrying its key and
// the code identity that computed it. A key already on disk is left
// alone: keys are deterministic spec hashes, so the bytes would be
// identical. Failure leaves no partial file at the live name.
func (s *SpillStore) Put(key, code string, payload []byte) error {
	s.putMu.Lock()
	defer s.putMu.Unlock()
	path := s.path(key)
	if _, err := s.fsys.Stat(path); err == nil {
		return nil
	}
	if err := s.write(path, Record{Key: key, Code: code, Payload: payload}); err != nil {
		return err
	}
	s.puts.Add(1)
	s.count(Addr(key), counted{record: true, bytes: int64(len(payload))})
	return nil
}

// Upgrade atomically rewrites the legacy file at key's address as a
// record carrying key and code, if check accepts its payload. Absent,
// current-layout and rejected files are left alone; an error means the
// rewrite failed and the file is as it was.
func (s *SpillStore) Upgrade(key, code string, check func(payload []byte) error) error {
	path := s.path(key)
	data, err := s.read(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	}
	r, err := decodeRecord(Addr(key), data)
	if err != nil || r.Key != "" || check(r.Payload) != nil {
		return nil
	}
	s.putMu.Lock()
	defer s.putMu.Unlock()
	if err := s.write(path, Record{Key: key, Code: code, Payload: r.Payload}); err != nil {
		return err
	}
	s.uncount(Addr(key))
	s.count(Addr(key), counted{record: true, bytes: int64(len(r.Payload))})
	return nil
}

// write lays r down at path through a synced temporary and a rename.
func (s *SpillStore) write(path string, r Record) error {
	tmp := path + spillTmpSuffix
	f, err := s.fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("memo: spill create: %w", err)
	}
	if _, err := f.Write(encodeRecord(r)); err != nil {
		f.Close()
		_ = s.fsys.Remove(tmp)
		return fmt.Errorf("memo: spill write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		_ = s.fsys.Remove(tmp)
		return fmt.Errorf("memo: spill sync: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = s.fsys.Remove(tmp)
		return fmt.Errorf("memo: spill close: %w", err)
	}
	if err := s.fsys.Rename(tmp, path); err != nil {
		_ = s.fsys.Remove(tmp)
		return fmt.Errorf("memo: spill rename: %w", err)
	}
	return nil
}

// Get reloads one artifact's payload, verifying the file. A missing key
// is (nil, false, nil). A file that fails verification — truncated,
// bit-flipped, torn, filed under the wrong address — is quarantined
// (renamed aside, kept for inspection) and reported as a miss: the
// store never serves bytes it cannot prove are the artifact that was
// written.
func (s *SpillStore) Get(key string) ([]byte, bool, error) {
	r, ok, err := s.getPath(s.path(key))
	return r.Payload, ok, err
}

// read returns a file's bytes.
func (s *SpillStore) read(path string) ([]byte, error) {
	f, err := s.fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// getPath is the shared read/verify/quarantine path behind Get and
// GetAddr.
func (s *SpillStore) getPath(path string) (Record, bool, error) {
	data, err := s.read(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.misses.Add(1)
			return Record{}, false, nil
		}
		return Record{}, false, fmt.Errorf("memo: spill read: %w", err)
	}
	r, err := decodeRecord(filepath.Base(path), data)
	if err != nil {
		s.quarantine(path)
		return Record{}, false, nil
	}
	s.hits.Add(1)
	return r, true, nil
}

// quarantine moves a failed file aside and takes it out of the
// inventory.
func (s *SpillStore) quarantine(path string) {
	s.corrupt.Add(1)
	s.misses.Add(1)
	s.uncount(filepath.Base(path))
	if err := s.fsys.Rename(path, path+spillQuarSuffix); err != nil {
		// Renaming aside failed (crashed FS, permissions); removing is the
		// fallback that still stops the corrupt bytes from being served.
		_ = s.fsys.Remove(path)
	}
}

// Stats snapshots the counters.
func (s *SpillStore) Stats() SpillStats {
	return SpillStats{
		Artifacts: s.artifacts.Load(),
		Records:   s.records.Load(),
		Bytes:     s.bytes.Load(),
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Puts:      s.puts.Load(),
		Corrupt:   s.corrupt.Load(),
	}
}
