package chaostest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestServeSmoke is the daemon's end-to-end smoke: a real coordinator
// (no local compute) plus two real worker processes run the complete
// small-scale sweep over HTTP, and the served tables must match the
// committed golden byte for byte — the same golden `sdsp-exp -scale
// small` is pinned to. This is the `make serve-smoke` target.
func TestServeSmoke(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "experiments", "testdata", "small_tables.golden"))
	if err != nil {
		t.Fatalf("missing golden tables: %v", err)
	}
	storeDir := filepath.Join(t.TempDir(), "store")
	preserveOnFailure(t, storeDir)

	coord, base := startCoordinator(t, storeDir, 0)
	w1 := startWorker(t, storeDir)
	w2 := startWorker(t, storeDir)

	spec := `{"experiments":["all"],"scale":"small"}`
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID    string `json:"id"`
		Total int    `json:"total_cells"`
	}
	if err := decodeBody(resp, &st); err != nil || st.ID == "" {
		t.Fatalf("submit: %v (%+v)", err, st)
	}
	if st.Total == 0 {
		t.Fatal("full sweep declared no cells")
	}
	t.Logf("job %s: %d cells across 2 workers", st.ID, st.Total)

	got := fetchTables(t, base, st.ID, 600*time.Second)
	if !bytes.Equal(got, golden) {
		t.Errorf("served tables diverge from the committed golden (%d vs %d bytes)",
			len(got), len(golden))
		if i := firstByteDiff(got, golden); i >= 0 {
			lo := i - 60
			if lo < 0 {
				lo = 0
			}
			t.Errorf("first divergence at byte %d: got %q, want %q",
				i, clip(got, lo, i+60), clip(golden, lo, i+60))
		}
	}

	// Both workers actually shared the load: each committed something.
	for _, w := range []*proc{w1, w2} {
		w.waitLine(" committed (", time.Second)
	}
	assertNoClaims(t, storeDir)

	w1.drain()
	w2.drain()
	coord.drain()
}

func decodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, buf.String())
	}
	return json.Unmarshal(buf.Bytes(), v)
}

func firstByteDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

func clip(b []byte, lo, hi int) string {
	if hi > len(b) {
		hi = len(b)
	}
	if lo > hi {
		lo = hi
	}
	return string(b[lo:hi])
}
