package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

func testKey(t *testing.T, parts ...string) string {
	t.Helper()
	k := NewKey()
	for i, p := range parts {
		k.Str("part", p)
		_ = i
	}
	return k.Sum()
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "a")
	payload := []byte(`{"cycles":123}`)
	if _, ok, _ := s.Get(key); ok {
		t.Fatal("hit before Put")
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q != %q", got, payload)
	}
	st := s.Stats()
	if st.MemHits != 1 || st.Puts != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v: want 1 mem hit, 1 put, 1 miss", st)
	}
}

// TestReopenHitsDisk simulates a process restart: a fresh Store on the same
// directory must serve the blob from disk with the payload intact.
func TestReopenHitsDisk(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t, "persist")
	payload := []byte(strings.Repeat("x", 1000) + "end")

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := s2.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get after reopen: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch after reopen")
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.MemHits != 0 {
		t.Fatalf("stats %+v: want the reopen hit to come from disk", st)
	}
	// A second Get in the same process comes from the memory tier.
	if _, ok, _ := s2.Get(key); !ok {
		t.Fatal("second Get missed")
	}
	if st := s2.Stats(); st.MemHits != 1 {
		t.Fatalf("stats %+v: want second hit from memory", st)
	}
}

// TestTruncatedBlobQuarantined corrupts a blob on disk; the store must
// treat it as a miss, move it to quarantine, and accept a fresh Put.
func TestTruncatedBlobQuarantined(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t, "corrupt")
	payload := []byte(strings.Repeat("data", 100))

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Truncate the blob mid-payload (header survives, CRC cannot).
	path := filepath.Join(blobsDir(dir), key)
	if err := os.Truncate(path, blobHeaderLen+10); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s2.Get(key); ok || err != nil {
		t.Fatalf("corrupt blob served: ok=%v err=%v", ok, err)
	}
	if st := s2.Stats(); st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v: want corrupt+miss", st)
	}
	if _, err := os.Stat(filepath.Join(quarantineDir(dir), key)); err != nil {
		t.Fatalf("blob not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt blob still in blobs dir: %v", err)
	}
	// Re-put and read back: corruption recovery must be complete.
	if err := s2.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := s2.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("re-put after quarantine failed")
	}
}

// TestBitFlipDetected flips one payload byte; the CRC must catch it.
func TestBitFlipDetected(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t, "flip")
	s, _ := Open(dir, Options{})
	if err := s.Put(key, []byte("sensitive result bytes")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(blobsDir(dir), key)
	buf, _ := os.ReadFile(path)
	buf[len(buf)-1] ^= 0x40
	os.WriteFile(path, buf, 0o644)

	s2, _ := Open(dir, Options{})
	if _, ok, _ := s2.Get(key); ok {
		t.Fatal("bit-flipped blob served")
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats %+v: want 1 corrupt", st)
	}
}

// TestLRUEviction bounds the store and checks the least-recently-used blob
// goes first — and that a Get refreshes recency.
func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte{7}, 100)
	s, err := Open(dir, Options{MaxBytes: 250}) // room for two 100-byte blobs
	if err != nil {
		t.Fatal(err)
	}
	ka, kb, kc := testKey(t, "a"), testKey(t, "b"), testKey(t, "c")
	if err := s.Put(ka, payload); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(kb, payload); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(ka); !ok { // refresh a: b becomes LRU
		t.Fatal("miss on a")
	}
	if err := s.Put(kc, payload); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.SizeBytes() != 200 {
		t.Fatalf("len=%d size=%d after eviction", s.Len(), s.SizeBytes())
	}
	if _, ok, _ := s.Get(kb); ok {
		t.Fatal("LRU blob b survived eviction")
	}
	if _, ok, _ := s.Get(ka); !ok {
		t.Fatal("recently used blob a evicted")
	}
	if _, ok, _ := s.Get(kc); !ok {
		t.Fatal("newest blob c evicted")
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Fatalf("stats %+v: want 1 eviction", st)
	}
	// The evicted blob's file is gone from disk too.
	if _, err := os.Stat(filepath.Join(blobsDir(dir), kb)); !os.IsNotExist(err) {
		t.Fatalf("evicted blob still on disk: %v", err)
	}
}

// TestAccessOrderSurvivesReopen: Close leaves the LRU order in the blobs'
// modification times, so eviction decisions after a restart respect
// pre-restart access order.
func TestAccessOrderSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte{1}, 100)
	ka, kb, kc := testKey(t, "a"), testKey(t, "b"), testKey(t, "c")

	s, _ := Open(dir, Options{MaxBytes: 250})
	s.Put(ka, payload)
	s.Put(kb, payload)
	s.Get(ka) // a is now more recent than b
	s.Close()

	s2, _ := Open(dir, Options{MaxBytes: 250})
	if err := s2.Put(kc, payload); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s2.Get(kb); ok {
		t.Fatal("pre-restart LRU blob b should have been evicted")
	}
	if _, ok, _ := s2.Get(ka); !ok {
		t.Fatal("pre-restart MRU blob a evicted")
	}

	// Ten blobs, eight of them read back in a permuted order: after Close
	// and a reopen whose cap holds exactly ten, each new Put must evict the
	// next blob of the pre-Close LRU order — the two never read, in Put
	// order, then the eight in the order they were read.
	dir = t.TempDir()
	s, _ = Open(dir, Options{})
	keys := make([]string, 10)
	for i := range keys {
		keys[i] = testKey(t, "order", strconv.Itoa(i))
		if err := s.Put(keys[i], payload); err != nil {
			t.Fatal(err)
		}
	}
	var want []string
	for _, i := range []int{4, 6, 7, 2, 9, 0, 5, 3, 8, 1} {
		want = append(want, keys[i])
	}
	for _, key := range want[2:] {
		if _, ok, _ := s.Get(key); !ok {
			t.Fatal("miss before Close")
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ = Open(dir, Options{MaxBytes: int64(10*len(payload) + len(payload)/2)})
	for i, victim := range want {
		if err := s2.Put(testKey(t, "evictor", strconv.Itoa(i)), payload); err != nil {
			t.Fatal(err)
		}
		left := s2.Keys()
		if _, found := slices.BinarySearch(left, victim); found {
			t.Fatalf("Put %d: blob %d of the pre-Close LRU order survived", i, i)
		}
		for j, key := range want[i+1:] {
			if _, found := slices.BinarySearch(left, key); !found {
				t.Fatalf("Put %d: evicted blob %d of the LRU order before blob %d", i, i+1+j, i)
			}
		}
	}
}

// TestCloseStampsAfterNewestBlob: Close stamps a blob the process read
// with a time later than every time Open listed, even one ahead of the
// clock (stamps a previous Close wrote moments ago, or a clock stepped
// back), so the reopened order still keeps the blob read last.
func TestCloseStampsAfterNewestBlob(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte{2}, 100)
	ka, kb, kc := testKey(t, "a"), testKey(t, "b"), testKey(t, "c")
	s, _ := Open(dir, Options{})
	for _, key := range []string{ka, kb} {
		if err := s.Put(key, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ahead := time.Now().Add(time.Hour)
	if err := os.Chtimes(filepath.Join(blobsDir(dir), kb), ahead, ahead); err != nil {
		t.Fatal(err)
	}
	s2, _ := Open(dir, Options{})
	if _, ok, _ := s2.Get(ka); !ok { // a is now more recent than b
		t.Fatal("miss on a")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, _ := Open(dir, Options{MaxBytes: 250})
	if err := s3.Put(kc, payload); err != nil {
		t.Fatal(err)
	}
	if keys := s3.Keys(); slices.Contains(keys, kb) || !slices.Contains(keys, ka) {
		t.Fatal("the blob read before Close was evicted ahead of an older one")
	}
}

// TestCloseSkipsVanishedBlob: Close skips a blob deleted behind the
// store's back without an error and still stamps the blobs after it.
func TestCloseSkipsVanishedBlob(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{})
	gone, kept := testKey(t, "gone"), testKey(t, "kept")
	for _, key := range []string{gone, kept} {
		if err := s.Put(key, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(filepath.Join(blobsDir(dir), gone)); err != nil {
		t.Fatal(err)
	}
	long := time.Unix(0, 0)
	keptPath := filepath.Join(blobsDir(dir), kept)
	if err := os.Chtimes(keptPath, long, long); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close with a vanished blob: %v", err)
	}
	if info, err := os.Stat(keptPath); err != nil || !info.ModTime().After(long) {
		t.Fatalf("Close stopped at the vanished blob: kept blob not stamped (err=%v)", err)
	}
}

// TestTornTempFileNeverServed is a crash before the rename: a temp file
// holding half of a framed blob sits in blobs/. Open must neither serve nor
// count it, and a later Put of the key must be served.
func TestTornTempFileNeverServed(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t, "torn")
	payload := []byte(strings.Repeat("torn", 100))
	if err := os.MkdirAll(blobsDir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	framed := frame(payload)
	if err := os.WriteFile(filepath.Join(blobsDir(dir), ".put-1234"), framed[:len(framed)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(key); ok || err != nil {
		t.Fatalf("torn write served: ok=%v err=%v", ok, err)
	}
	if s.Len() != 0 || s.SizeBytes() != 0 {
		t.Fatalf("torn write counted: len=%d size=%d", s.Len(), s.SizeBytes())
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := s2.Get(key); !ok || !bytes.Equal(got, payload) {
		t.Fatal("Put after a torn write not served after reopen")
	}
}

// TestBlobServedWithoutClose is a crash after the rename, before Close:
// the blob was never stamped, and a fresh Store on the directory must
// still serve it from disk.
func TestBlobServedWithoutClose(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t, "unclosed")
	payload := []byte("written, never closed")
	s, _ := Open(dir, Options{})
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok, _ := s2.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("blob written before a crash not served after reopen")
	}
	if st := s2.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats %+v: want one disk hit", st)
	}
}

// TestFailedWriteLeavesNoTrace fails blob writes part-way, as a full disk
// does. Put must return the error and leave no temp file; a new key then
// misses and an existing key keeps serving its previous bytes, before and
// after reopen.
func TestFailedWriteLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{})
	oldKey, newKey := testKey(t, "existing"), testKey(t, "new")
	previous := []byte("previous bytes")
	if err := s.Put(oldKey, previous); err != nil {
		t.Fatal(err)
	}
	failBlobWrites(t)
	for _, key := range []string{oldKey, newKey} {
		if err := s.Put(key, []byte("bytes the disk had no room for")); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("Put on a full disk: err=%v, want ENOSPC", err)
		}
	}
	check := func(s *Store, when string) {
		t.Helper()
		if _, ok, err := s.Get(newKey); ok || err != nil {
			t.Fatalf("%s: failed Put of a new key served: ok=%v err=%v", when, ok, err)
		}
		if got, ok, _ := s.Get(oldKey); !ok || !bytes.Equal(got, previous) {
			t.Fatalf("%s: existing key lost its previous bytes", when)
		}
		checkLayout(t, dir)
		if keys := s.Keys(); !slices.Equal(keys, []string{oldKey}) {
			t.Fatalf("%s: keys %v, want only the existing key", when, keys)
		}
	}
	check(s, "before reopen")
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check(s2, "after reopen")
}

// keyName matches a blob's file name. It is written independently of
// validKey, so the layout checks hold validKey to it too.
var keyName = regexp.MustCompile(`^[0-9a-f]{64}$`)

// checkLayout fails unless dir holds exactly blobs/ and quarantine/ and
// every name in blobs/ is a key: no index, temp file or stray path.
func checkLayout(t *testing.T, dir string) {
	t.Helper()
	var root []string
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		root = append(root, de.Name())
	}
	if !slices.Equal(root, []string{"blobs", "quarantine"}) {
		t.Fatalf("store root lists %q, want only blobs and quarantine", root)
	}
	des, err = os.ReadDir(blobsDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if !keyName.MatchString(de.Name()) {
			t.Fatalf("blobs/ holds %q, which is not a key", de.Name())
		}
	}
}

// TestPutAllocsFlatInStoreSize pins that a Put costs the same however many
// blobs the store holds: the bytes allocated per Put at 10,000 entries stay
// within 1.5x of the bytes at 100. Bytes rather than time, because Put
// latency swings with disk writeback. After the Puts, a Quarantine and
// Close, the store root holds nothing but its two directories.
func TestPutAllocsFlatInStoreSize(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5d}, 2200)
	const puts = 64
	perPut := func(entries int) float64 {
		dir := t.TempDir()
		if err := os.MkdirAll(blobsDir(dir), 0o755); err != nil {
			t.Fatal(err)
		}
		framed := frame(payload)
		for i := 0; i < entries; i++ {
			if err := os.WriteFile(filepath.Join(blobsDir(dir), testKey(t, "fill", strconv.Itoa(i))), framed, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, puts)
		for i := range keys {
			keys[i] = testKey(t, "put", strconv.Itoa(i))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, key := range keys {
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if s.Len() != entries+puts {
			t.Fatalf("len %d, want %d", s.Len(), entries+puts)
		}
		if err := s.Quarantine(keys[0]); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		checkLayout(t, dir)
		return float64(after.TotalAlloc-before.TotalAlloc) / puts
	}
	small, large := perPut(100), perPut(10000)
	t.Logf("bytes allocated per Put: %.0f at 100 entries, %.0f at 10,000 (%.2fx)", small, large, large/small)
	if large > 1.5*small {
		t.Fatalf("a Put at 10,000 entries allocates %.0f bytes, %.2fx the %.0f at 100; want at most 1.5x",
			large, large/small, small)
	}
}

// invalidKeys are names validKey must refuse: empty, short, a path escape,
// non-hex and a trailing separator.
var invalidKeys = []string{"", "short", "../../../../etc/passwd",
	strings.Repeat("Z", 64), strings.Repeat("a", 63) + "/"}

func TestInvalidKeysRejected(t *testing.T) {
	s, _ := Open(t.TempDir(), Options{})
	for _, key := range invalidKeys {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Fatalf("Put accepted invalid key %q", key)
		}
		if _, ok, err := s.Get(key); ok || err != nil {
			t.Fatalf("Get on invalid key %q: ok=%v err=%v", key, ok, err)
		}
	}
}

// FuzzStoreKey holds the store's key handling to its contract for any
// string, as a key arriving in a /results/{key} path may be: Get never
// errors, Put succeeds exactly when validKey holds, and nothing lands
// outside blobs/ and quarantine/ or in blobs/ under a name that is not a
// key.
func FuzzStoreKey(f *testing.F) {
	for _, key := range invalidKeys {
		f.Add(key)
	}
	f.Add(NewKey().Str("seed", "valid").Sum())
	// One store serves every input: each input ends by quarantining its
	// key, so the next input finds the table empty again.
	dir := f.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, key string) {
		if _, ok, err := s.Get(key); ok || err != nil {
			t.Fatalf("Get(%q) on an empty store: ok=%v err=%v", key, ok, err)
		}
		if err := s.Put(key, []byte("x")); (err == nil) != validKey(key) {
			t.Fatalf("Put(%q): err=%v, valid key %v", key, err, validKey(key))
		}
		if _, ok, err := s.Get(key); ok != validKey(key) || err != nil {
			t.Fatalf("Get(%q) after Put: ok=%v err=%v", key, ok, err)
		}
		checkLayout(t, dir)
		if err := s.Quarantine(key); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		checkLayout(t, dir)
	})
}

func TestKeyBuilderDistinguishesFieldBoundaries(t *testing.T) {
	a := NewKey().Str("f", "ab").Str("g", "c").Sum()
	b := NewKey().Str("f", "a").Str("g", "bc").Sum()
	c := NewKey().Str("f", "ab").Str("g", "c").Sum()
	if a == b {
		t.Fatal("field boundaries not separated")
	}
	if a != c {
		t.Fatal("key derivation not deterministic")
	}
	if !validKey(a) {
		t.Fatalf("KeyBuilder output %q not a valid key", a)
	}
}

func TestLayoutHashTracksStructShape(t *testing.T) {
	type v1 struct {
		A int64  `json:"a"`
		B string `json:"b"`
	}
	type v2 struct {
		A int64  `json:"a"`
		B string `json:"b"`
		C bool   `json:"c"`
	}
	type v1tag struct {
		A int64  `json:"a2"`
		B string `json:"b"`
	}
	h1, h2, h3 := LayoutHash(v1{}), LayoutHash(v2{}), LayoutHash(v1tag{})
	if h1 == h2 {
		t.Fatal("added field not reflected in layout hash")
	}
	if h1 == h3 {
		t.Fatal("changed tag not reflected in layout hash")
	}
	if h1 != LayoutHash(v1{}) {
		t.Fatal("layout hash not deterministic")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, _ := Open(t.TempDir(), Options{})
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			key := testKey(t, "concurrent", string(rune('a'+g%4)))
			payload := bytes.Repeat([]byte{byte(g % 4)}, 64)
			for i := 0; i < 25; i++ {
				if err := s.Put(key, payload); err != nil {
					done <- err
					return
				}
				if got, ok, err := s.Get(key); err != nil || (ok && !bytes.Equal(got, payload)) {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
