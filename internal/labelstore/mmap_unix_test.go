//go:build unix

package labelstore

import (
	"testing"

	"fsdl/internal/gen"
)

// TestOpenMaps: on unix every FSDL3 file is served from a mapping,
// whichever opener took it and whatever subset it holds, and Close
// unmaps it; an FSDL2 stream is read into heap.
func TestOpenMaps(t *testing.T) {
	dir := t.TempDir()
	s := buildScheme(t, gen.Grid2D(4, 4))
	for _, p := range []string{
		writeFormat3File(t, dir, "store.fsdl3", s, nil),
		writeFormat3File(t, dir, "subset.fsdl3", s, []int{1, 5, 14}),
		writeFormat3File(t, dir, "empty.fsdl3", s, []int{}),
	} {
		st, err := Open(p)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Encoding().Mapped {
			t.Errorf("Open(%s) is not mapped", p)
		}
		for i := 0; i < 2; i++ { // Close is idempotent
			if err := st.Close(); err != nil || st.f3.region.data != nil {
				t.Errorf("Close #%d of %s: %v, mapping released %v", i+1, p, err, st.f3.region.data == nil)
			}
		}
		sp, _, err := OpenPartial(p)
		if err != nil {
			t.Fatal(err)
		}
		if !sp.Encoding().Mapped {
			t.Errorf("OpenPartial(%s) is not mapped", p)
		}
		sp.Close()
	}
	if enc := loadedStore(t, buildScheme(t, gen.Grid2D(4, 4))).Encoding(); enc != (Encoding{Version: 2}) {
		t.Errorf("an FSDL2 load reports %+v", enc)
	}
}
