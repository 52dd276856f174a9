package memo_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"xbarsec/internal/memo"
	"xbarsec/internal/wal"
)

const testCode = "registry:deadbeef|tensor:reference"

func TestSpillPutGetRoundTrip(t *testing.T) {
	s, err := memo.OpenSpill(wal.OSFS{}, filepath.Join(t.TempDir(), "spill"))
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("artifact"), 100)
	if err := s.Put("experiment|fig3|1|0.5|8", testCode, payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get("experiment|fig3|1|0.5|8")
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch after reload")
	}
	if _, ok, _ := s.Get("experiment|fig3|2|0.5|8"); ok {
		t.Fatal("absent key reported present")
	}
	// By address the file yields the whole record: the proof preimages
	// travel with the payload.
	rec, ok, err := s.GetAddr(memo.Addr("experiment|fig3|1|0.5|8"))
	if err != nil || !ok || rec.Key != "experiment|fig3|1|0.5|8" || rec.Code != testCode || !bytes.Equal(rec.Payload, payload) {
		t.Fatalf("GetAddr = %q/%q ok=%v err=%v", rec.Key, rec.Code, ok, err)
	}
	st := s.Stats()
	if st.Artifacts != 1 || st.Records != 1 || st.Bytes != int64(len(payload)) || st.Hits != 2 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// legacyFile is the layout spill files had before they carried their
// key and code: [sha256(payload)][payload].
func legacyFile(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return append(sum[:], payload...)
}

// TestSpillLegacyLayout pins the read path for files written before the
// record layout: served by key, inventoried but not counted as records,
// and upgraded in place only when the caller's check vouches for the
// payload.
func TestSpillLegacyLayout(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	const key = "experiment|legacy|1|1|0"
	payload := []byte(`{"render":"legacy"}`)
	path := filepath.Join(dir, memo.Addr(key))
	if err := os.WriteFile(path, legacyFile(payload), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := memo.OpenSpill(wal.OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Artifacts != 1 || st.Records != 0 || st.Bytes != int64(len(payload)) {
		t.Fatalf("legacy inventory = %+v", st)
	}
	if got, ok, err := s.Get(key); err != nil || !ok || !bytes.Equal(got, payload) {
		t.Fatalf("legacy Get = %q ok=%v err=%v", got, ok, err)
	}
	if rec, ok, err := s.GetAddr(memo.Addr(key)); err != nil || !ok || rec.Key != "" || rec.Code != "" {
		t.Fatalf("legacy GetAddr = %+v ok=%v err=%v, want a payload without preimages", rec, ok, err)
	}
	// A rejecting check and an absent key leave the store alone.
	reject := func([]byte) error { return errors.New("not vouched for") }
	if err := s.Upgrade(key, testCode, reject); err != nil {
		t.Fatal(err)
	}
	if err := s.Upgrade("experiment|absent", testCode, func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Records != 0 || st.Artifacts != 1 {
		t.Fatalf("stats after no-op upgrades = %+v", st)
	}
	var checked []byte
	if err := s.Upgrade(key, testCode, func(p []byte) error { checked = p; return nil }); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(checked, payload) {
		t.Fatalf("check saw %q, want the legacy payload", checked)
	}
	rec, ok, err := s.GetAddr(memo.Addr(key))
	if err != nil || !ok || rec.Key != key || rec.Code != testCode || !bytes.Equal(rec.Payload, payload) {
		t.Fatalf("upgraded record = %q/%q/%q ok=%v err=%v", rec.Key, rec.Code, rec.Payload, ok, err)
	}
	// Upgrading a current-layout file is a no-op, even with another code.
	if err := s.Upgrade(key, "other", func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	s2, err := memo.OpenSpill(wal.OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Artifacts != 1 || st.Records != 1 || st.Bytes != int64(len(payload)) {
		t.Fatalf("reopened after upgrade = %+v", st)
	}
	if rec, _, _ := s2.GetAddr(memo.Addr(key)); rec.Code != testCode {
		t.Fatalf("second upgrade overwrote the code: %q", rec.Code)
	}
}

// TestSpillRejectsMisfiledRecord: a well-formed record filed under an
// address its key does not hash to is corrupt, however intact its bytes.
func TestSpillRejectsMisfiledRecord(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	s, err := memo.OpenSpill(wal.OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("key-a", testCode, []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, memo.Addr("key-a")))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, memo.Addr("key-b")), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := memo.OpenSpill(wal.OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok, err := s2.Get("key-b"); ok || err != nil {
		t.Fatalf("misfiled record served: %q ok=%v err=%v", got, ok, err)
	}
	if _, ok, _ := s2.GetAddr(memo.Addr("key-b")); ok {
		t.Fatal("misfiled record served by address")
	}
	if st := s2.Stats(); st.Corrupt != 1 || st.Artifacts != 1 || st.Records != 1 || st.Bytes != int64(len("alpha")) {
		t.Fatalf("stats after quarantine = %+v", st)
	}
}

// TestSpillSurvivesReopen is the warm-restart property: a fresh store
// over the same directory inventories and serves what the previous
// process spilled.
func TestSpillSurvivesReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	s, err := memo.OpenSpill(wal.OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("key-a", testCode, []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("key-b", testCode, []byte("beta-beta")); err != nil {
		t.Fatal(err)
	}

	s2, err := memo.OpenSpill(wal.OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.Artifacts != 2 || st.Records != 2 || st.Bytes != int64(len("alpha")+len("beta-beta")) {
		t.Fatalf("reopened inventory = %+v, want 2 artifacts, %d bytes", st, len("alpha")+len("beta-beta"))
	}
	got, ok, err := s2.Get("key-a")
	if err != nil || !ok || string(got) != "alpha" {
		t.Fatalf("reload across reopen: %q ok=%v err=%v", got, ok, err)
	}
}

// TestSpillQuarantine corrupts and truncates spilled files in every way
// that matters: none may be served, each must be quarantined, and the
// quarantined file must not be re-counted on reopen.
func TestSpillQuarantine(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	s, err := memo.OpenSpill(wal.OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	mangle := func(t *testing.T, key string, f func([]byte) []byte) {
		t.Helper()
		if err := s.Put(key, testCode, []byte("precious-artifact-bytes")); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(key))
		path := filepath.Join(dir, hex.EncodeToString(sum[:]))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, f(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	mangle(t, "bitflip", func(d []byte) []byte { d[len(d)-1] ^= 0xFF; return d })
	mangle(t, "truncated", func(d []byte) []byte { return d[:len(d)/2] })
	mangle(t, "headerless", func(d []byte) []byte { return d[:10] })

	for _, key := range []string{"bitflip", "truncated", "headerless"} {
		got, ok, err := s.Get(key)
		if err != nil {
			t.Fatalf("%s: Get errored: %v", key, err)
		}
		if ok {
			t.Fatalf("%s: corrupt artifact served: %q", key, got)
		}
		// Quarantined, not deleted: the bytes stay for inspection.
		if _, ok, _ := s.Get(key); ok {
			t.Fatalf("%s: corrupt artifact served on second read", key)
		}
	}
	if st := s.Stats(); st.Corrupt != 3 || st.Artifacts != 0 || st.Records != 0 {
		t.Fatalf("stats after quarantine = %+v, want Corrupt=3 Artifacts=0", st)
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	quar := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".quarantine") {
			quar++
		}
	}
	if quar != 3 {
		t.Fatalf("%d quarantine files, want 3", quar)
	}

	// Reopen: quarantined files are not inventory.
	s2, err := memo.OpenSpill(wal.OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Artifacts != 0 || st.Bytes != 0 {
		t.Fatalf("reopened inventory over quarantine = %+v, want empty", st)
	}
}

// TestSpillSweepsStaleTmp: a crash between create and rename leaves a
// .tmp file; reopening must sweep it and not count it.
func TestSpillSweepsStaleTmp(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, strings.Repeat("ab", 32)+".tmp")
	if err := os.WriteFile(stale, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := memo.OpenSpill(wal.OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Artifacts != 0 {
		t.Fatalf("stale tmp counted as artifact: %+v", st)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale tmp not swept: %v", err)
	}
}

func TestCacheOnEvictSpillsValue(t *testing.T) {
	c := memo.NewWeighted[string](4, 10, func(v string) int64 { return int64(len(v)) })
	var mu sync.Mutex
	spilled := map[string]string{}
	c.SetOnEvict(func(key, val string) {
		mu.Lock()
		spilled[key] = val
		mu.Unlock()
	})
	put := func(k, v string) {
		t.Helper()
		if _, _, err := c.Do(k, func() (string, error) { return v, nil }); err != nil {
			t.Fatal(err)
		}
	}
	put("a", "aaaa") // weight 4
	put("b", "bbbb") // weight 8
	put("c", "cccc") // weight 12 -> evicts a
	mu.Lock()
	defer mu.Unlock()
	if spilled["a"] != "aaaa" {
		t.Fatalf("evicted value not handed to hook: %+v", spilled)
	}
	if _, ok := spilled["b"]; ok {
		t.Fatalf("retained value evicted: %+v", spilled)
	}
}

// TestDoPanicIsTypedError: a panicking computation must fail the flight
// with a typed error for the caller AND any joined waiters — before
// this, the waiters would deadlock on a never-closed ready channel.
func TestDoPanicIsTypedError(t *testing.T) {
	c := memo.New[int](8)
	started := make(chan struct{})
	var waitErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-started
		_, _, waitErr = c.Do("boom", func() (int, error) {
			t.Error("waiter recomputed instead of joining the flight")
			return 0, nil
		})
	}()

	_, _, err := c.Do("boom", func() (int, error) {
		close(started)
		// Give the waiter time to join the in-flight entry; joining is a
		// map lookup under the cache mutex, so this is generous.
		time.Sleep(100 * time.Millisecond)
		panic("kaboom")
	})
	var pe *memo.PanicError
	if !errors.As(err, &pe) || pe.Value != "kaboom" {
		t.Fatalf("caller error = %v, want PanicError(kaboom)", err)
	}
	wg.Wait()
	if !errors.As(waitErr, &pe) {
		t.Fatalf("waiter error = %v, want PanicError", waitErr)
	}

	// Failed flights are not cached: the key is retryable.
	v, _, err := c.Do("boom", func() (int, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("retry after panic: %d, %v", v, err)
	}
}
