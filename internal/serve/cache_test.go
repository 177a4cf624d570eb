package serve

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCacheSnapshotVersionGate pins the snapshot version contract: a
// snapshot of another version is skipped with a warning, leaving the
// cache empty, and the next snapshot rewrites the file at the current
// version, which then loads.
func TestCacheSnapshotVersionGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.ndjson")
	stale := `{"type":"header","format":"herald-result-cache","v":1}` + "\n" +
		`{"type":"entry","fp":"abc","body":{"x":1}}` + "\n"
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	c := newResultCache(8)
	if err := c.persistTo(path, 0, &log); err != nil {
		t.Fatalf("stale snapshot: %v", err)
	}
	if st := c.stats(); st.Loaded != 0 || c.get("abc") != nil {
		t.Fatalf("version 1 snapshot served: loaded %d", st.Loaded)
	}
	if !strings.Contains(log.String(), "version 1") {
		t.Errorf("no version warning logged: %q", log.String())
	}

	c.put("def", []byte(`{"y":2}`))
	c.snapshotNow()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Scan()
	var h cacheSnapHeader
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil || h.Version != cacheSnapVersion {
		t.Fatalf("snapshot header %q, want version %d", sc.Bytes(), cacheSnapVersion)
	}

	fresh := newResultCache(8)
	if err := fresh.persistTo(path, 0, nil); err != nil {
		t.Fatal(err)
	}
	if st := fresh.stats(); st.Loaded != 1 || string(fresh.get("def")) != `{"y":2}` {
		t.Fatalf("current-version snapshot not served: loaded %d", st.Loaded)
	}
}
