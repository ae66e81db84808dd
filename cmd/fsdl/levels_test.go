package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fsdl"
)

// TestCLIStatsLevels pins `fsdl stats -levels` on two graphs whose
// sharing differs: an 8×8 grid, saturated at every level (one list per
// level, stored/distinct = n), and a 256-vertex ring lattice, whose
// lowest-level balls are each vertex's own. A scheme and the containers
// written from it print the same table — the factored one (-format fsdl3
// -compress) included, whose labels are induced from its level graphs on
// the way out and whose file holds each of those edges once; behind it a
// factored container prints how its records write the balls.
func TestCLIStatsLevels(t *testing.T) {
	dir := t.TempDir()
	grid := filepath.Join(dir, "grid.txt")
	if _, err := runCLI(t, "gen", "-kind", "grid", "-size", "8", "-out", grid); err != nil {
		t.Fatal(err)
	}
	ring := writeRing256(t, dir)

	for _, tc := range []struct{ name, graph, want, balls string }{
		{"grid8x8", grid, `level lists over 64 labels:
  level       points        edges    lists      union  stored/distinct
      3         4096         7168        1        112            64.0x
      4         1792        24192        1        378            64.0x
      5          448         1344        1         21            64.0x
      6          128           64        1          1            64.0x
    all         6464        32768        4        512            64.0x
`, `ball records (each distance once: nested levels keep only the points the level above lacks):
  level     stored    derived    id bits  dist bits saturated  nested  pred d pred dd
      3       2752       1344        128       9827        64      48      36      28
      4       1344        448        128       6596        64      64      64       0
      5        324        124        128       1782        64      62      44      20
      6        128          0        128        744        64       0      64       0
    all       4548       1916        512      18949
`},
		{"ring256", ring, `level lists over 256 labels:
  level       points        edges    lists      union  stored/distinct
      3        49408        98048      256        512           191.5x
      4        19456       362496        1       1416           256.0x
      5         7680       111360        1        435           256.0x
      6         3840        26880        1        105           256.0x
      7         2048         7168        1         28           256.0x
      8         1024         1536        1          6           256.0x
    all        83456       607488      261       2502           242.8x
`, `ball records (each distance once: nested levels keep only the points the level above lacks):
  level     stored    derived    id bits  dist bits saturated  nested  pred d pred dd
      3      34740      14668      11525      84688         0     256     148     108
      4      13816       5640        512      48011       256     188       0     256
      5       3855       3825        512      24274       256     255       0     256
      6       1792       2048        512      17135       256     256     202      54
      7       1024       1024        512      11058       256     256     212      44
      8       1024          0        512       9940       256       0     154     102
    all      56251      27205      14085     195106
`},
	} {
		got, err := runCLI(t, "stats", "-levels", "-in", tc.graph)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: stats -levels printed\n%s\nwant\n%s", tc.name, got, tc.want)
		}
		for _, format := range [][]string{{"-format", "fsdl2"}, {"-format", "fsdl3", "-compress"}} {
			db := filepath.Join(dir, tc.name+".fsdl")
			if _, err := runCLI(t, append([]string{"labels", "-in", tc.graph, "-out", db}, format...)...); err != nil {
				t.Fatal(err)
			}
			want := tc.want
			if len(format) == 3 {
				want += tc.balls
			}
			if got, err := runCLI(t, "stats", "-levels", "-db", db); err != nil || got != want {
				t.Errorf("%s %v: stats -levels -db printed (err %v)\n%s\nwant\n%s", tc.name, format, err, got, want)
			}
		}
	}
}

// TestCLIStatsLevelsFactoredAsFSDL2: a factored store's labels hold their
// balls and read every unsaturated level's edges off the file's level
// graphs, so its level table counts through what those graphs induce. It
// must equal the table of the same labels read from FSDL2, which holds
// every list — here on a ring lattice, whose lowest-level balls are never
// saturated.
func TestCLIStatsLevelsFactoredAsFSDL2(t *testing.T) {
	dir := t.TempDir()
	ring := writeRing256(t, dir)
	tables := map[string]string{}
	for name, format := range map[string][]string{"fsdl2": {"-format", "fsdl2"}, "factored": {"-format", "fsdl3", "-compress"}} {
		db := filepath.Join(dir, name+".fsdl")
		if _, err := runCLI(t, append([]string{"labels", "-in", ring, "-out", db}, format...)...); err != nil {
			t.Fatal(err)
		}
		got, err := runCLI(t, "stats", "-levels", "-db", db)
		if err != nil {
			t.Fatal(err)
		}
		// The factored store prints its ball records after the table.
		table, _, _ := strings.Cut(got, "ball records")
		tables[name] = table
	}
	if tables["factored"] != tables["fsdl2"] {
		t.Errorf("stats -levels of the factored store:\n%s\nof the FSDL2 store:\n%s", tables["factored"], tables["fsdl2"])
	}
}

// writeRing256 writes the 256-vertex ring lattice (±1, ±2 chords) to
// dir/ring.txt and returns the path.
func writeRing256(t *testing.T, dir string) string {
	t.Helper()
	const n = 256
	b := fsdl.NewGraphBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
		b.AddEdge(i, (i+2)%n)
	}
	ring := filepath.Join(dir, "ring.txt")
	f, err := os.Create(ring)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.MustBuild().WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return ring
}
