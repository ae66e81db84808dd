//go:build unix

package labelstore

import (
	"testing"

	"fsdl/internal/gen"
)

// TestOpenMaps: on unix every FSDL3 file is served from a mapping,
// whichever opener took it and whatever its encoding; an FSDL2 stream is
// read into heap.
func TestOpenMaps(t *testing.T) {
	path := writeFormat3File(t, t.TempDir(), "store.fsdl3", buildScheme(t, gen.Grid2D(4, 4)), nil)
	for _, p := range []string{path, canonicalFSDL3, pre17FSDL3c, pre26Factored} {
		st, err := Open(p)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Encoding().Mapped {
			t.Errorf("Open(%s) is not mapped", p)
		}
		st.Close()
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
