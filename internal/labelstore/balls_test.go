package labelstore

import (
	"slices"
	"testing"

	"fsdl/internal/bitio"
	"fsdl/internal/core"
	"fsdl/internal/gen"
)

// ballsOf copies the balls out of a label, one point list per level.
func ballsOf(l *core.Label) [][]core.PointEntry {
	balls := make([][]core.PointEntry, len(l.Levels))
	for k := range balls {
		balls[k] = slices.Clone(l.Levels[k].Points)
	}
	return balls
}

// roundTrip encodes balls level by level, top down, and parses the record
// back, tallying the modes chosen in st.
func roundTrip(t testing.TB, c *ballCodec, balls [][]core.PointEntry, st []BallLevelStats) [][]core.PointEntry {
	t.Helper()
	var w bitio.Writer
	var sc ballScratch
	var up []core.PointEntry
	for k := len(balls) - 1; k >= 0; k-- {
		if x, ok := c.encodeLevel(k, balls[k], up, &w, &sc); !ok {
			t.Fatalf("level index %d: point %d is no net point", k, x)
		}
		up = balls[k]
	}
	got, err := c.parse(w.Bytes(), st)
	if err != nil {
		t.Fatalf("the record written does not parse: %v", err)
	}
	return got
}

func sameBalls(a, b [][]core.PointEntry) bool {
	return slices.EqualFunc(a, b, func(x, y []core.PointEntry) bool { return slices.Equal(x, y) })
}

// TestBallsRoundTrip: over every label of the factored corpus the record
// parses back to exactly the label's balls, whichever modes the encoder
// chose — and between them the graphs make it choose every one. A parse
// allocates the list of balls and one slice per level, an encode nothing
// once its scratch has grown.
func TestBallsRoundTrip(t *testing.T) {
	total := make([]BallLevelStats, 1)
	for name, g := range factoredGraphs(t) {
		s := buildScheme(t, g)
		c := newBallCodec(s.LevelGraphs())
		st := make([]BallLevelStats, len(c.levels))
		for v := 0; v < g.NumVertices(); v++ {
			balls := ballsOf(s.Label(v))
			if got := roundTrip(t, c, balls, st); !sameBalls(got, balls) {
				t.Fatalf("%s: vertex %d: the record parses to other balls", name, v)
			}
		}
		for _, s := range st {
			total[0].Saturated += s.Saturated
			total[0].Nested += s.Nested
			total[0].Derived += s.Derived
			for p := range s.Pred {
				total[0].Pred[p] += s.Pred[p]
			}
		}
	}
	if s := total[0]; s.Saturated == 0 || s.Nested == 0 || s.Derived == 0 || s.Pred[predDelta] == 0 || s.Pred[predDelta2] == 0 {
		t.Errorf("the corpus never chose some mode: %+v", s)
	}

	s := buildScheme(t, ringLattice(256))
	c := newBallCodec(s.LevelGraphs())
	l := s.Label(100)
	var w bitio.Writer
	var sc ballScratch
	if err := c.encode(l, &w, &sc); err != nil {
		t.Fatal(err)
	}
	payload := slices.Clone(w.Bytes())
	if allocs := testing.AllocsPerRun(50, func() {
		w.Reset()
		if err := c.encode(l, &w, &sc); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("an encode with warm scratch allocates %.0f times", allocs)
	}
	if allocs, want := testing.AllocsPerRun(50, func() {
		if _, err := c.parse(payload, nil); err != nil {
			t.Fatal(err)
		}
	}), float64(len(c.levels)+1); allocs > want {
		t.Errorf("a parse allocates %.0f times, want at most the %.0f slices it returns", allocs, want)
	}
}

// TestBallsFlatFallback: the nested form leans on an identity between a
// ball and the ball above it (core's TestNestedBallsIdentity). Where a
// label breaks it — a distance that differs between the levels, an upper
// point within r the lower ball lacks, a lower point the upper ball
// lacks — the encoder must write that level flat, and the record must
// still parse to exactly the balls it was given.
func TestBallsFlatFallback(t *testing.T) {
	s := buildScheme(t, ringLattice(256))
	c := newBallCodec(s.LevelGraphs())
	const v, k = 100, 1
	good := ballsOf(s.Label(v))
	st := make([]BallLevelStats, len(c.levels))
	if got := roundTrip(t, c, good, st); !sameBalls(got, good) || st[k].Nested != 1 || st[k].Derived == 0 {
		t.Fatalf("fixture: level index %d of vertex %d is not written nested (%+v)", k, v, st[k])
	}
	// A point both levels hold, and where it sits in each.
	lo, hi := -1, -1
	for i, pe := range good[k] {
		if j, ok := slices.BinarySearchFunc(good[k+1], pe.X, func(e core.PointEntry, x int32) int { return int(e.X - x) }); ok {
			lo, hi = i, j
			break
		}
	}
	if lo < 0 {
		t.Fatal("fixture: the two balls share no point")
	}
	for name, bend := range map[string]func(balls [][]core.PointEntry){
		"distances differ": func(balls [][]core.PointEntry) { balls[k+1][hi].D++ },
		"lower ball lacks a point": func(balls [][]core.PointEntry) {
			balls[k] = slices.Delete(balls[k], lo, lo+1)
		},
		"upper ball lacks a point": func(balls [][]core.PointEntry) {
			balls[k+1] = slices.Delete(balls[k+1], hi, hi+1)
		},
	} {
		balls := ballsOf(s.Label(v))
		bend(balls)
		st := make([]BallLevelStats, len(c.levels))
		if got := roundTrip(t, c, balls, st); !sameBalls(got, balls) {
			t.Errorf("%s: the record parses to other balls", name)
		}
		if st[k].Nested != 0 || st[k].Derived != 0 {
			t.Errorf("%s: level index %d was still written nested (%+v)", name, k, st[k])
		}
	}
}

// FuzzParseBalls: arbitrary bytes through the ball parser and the label
// builder behind it never fault, and whatever comes out a label encodes
// and parses back to the same balls; and a real label's balls, bent by
// the fuzzer — points dropped, distances moved, so that the identity the
// nested form leans on fails wherever the fuzzer likes — still round-trip
// exactly.
func FuzzParseBalls(f *testing.F) {
	s, err := core.BuildScheme(gen.Path(60), 2)
	if err != nil {
		f.Fatal(err)
	}
	lg := s.LevelGraphs()
	c := newBallCodec(lg)
	var w bitio.Writer
	var sc ballScratch
	for _, v := range []int{0, 20, 31, 59} {
		w.Reset()
		if err := c.encode(s.Label(v), &w, &sc); err != nil {
			f.Fatal(err)
		}
		f.Add(slices.Clone(w.Bytes()), uint16(v), []byte{})
		f.Add(slices.Clone(w.Bytes()), uint16(v), []byte{0, 3, 1, 1, 7, 2, 2, 0, 255})
	}
	for _, h := range hostileBalls(f, lg, s.Label(20)) {
		f.Add(h.payload, uint16(20), []byte{1, 0, 1})
	}
	f.Fuzz(func(t *testing.T, payload []byte, v uint16, bends []byte) {
		if balls, err := c.parse(payload, nil); err == nil {
			if l, err := lg.Label(int32(v)%60, balls); err == nil {
				if got := roundTrip(t, c, ballsOf(l), nil); !sameBalls(got, ballsOf(l)) {
					t.Fatal("a parsed label's record parses to other balls")
				}
			}
		}
		// Each bend is three bytes: a level, a point of it, and what happens
		// to the point — dropped, or its distance moved (never below 0).
		balls := ballsOf(s.Label(int(v) % 60))
		for ; len(bends) >= 3; bends = bends[3:] {
			pts := &balls[int(bends[0])%len(balls)]
			if len(*pts) == 0 {
				continue
			}
			i := int(bends[1]) % len(*pts)
			if d := int32(bends[2] >> 1); bends[2]&1 == 0 {
				*pts = slices.Delete(*pts, i, i+1)
			} else {
				(*pts)[i].D = d
			}
		}
		if got := roundTrip(t, c, balls, nil); !sameBalls(got, balls) {
			t.Fatal("bent balls do not round-trip")
		}
	})
}

// benchLabel is the label the ball kernels are timed on: a ring lattice
// vertex, local at the low levels and saturated at the top ones.
func benchLabel(b *testing.B) (*ballCodec, *core.Label) {
	s, err := core.BuildScheme(ringLattice(4096), 2)
	if err != nil {
		b.Fatal(err)
	}
	return newBallCodec(s.LevelGraphs()), s.Label(1000)
}

var benchBalls [][]core.PointEntry

func BenchmarkEncodeBalls(b *testing.B) {
	c, l := benchLabel(b)
	var w bitio.Writer
	var sc ballScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		if err := c.encode(l, &w, &sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseBalls(b *testing.B) {
	c, l := benchLabel(b)
	var w bitio.Writer
	var sc ballScratch
	if err := c.encode(l, &w, &sc); err != nil {
		b.Fatal(err)
	}
	payload := w.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		balls, err := c.parse(payload, nil)
		if err != nil {
			b.Fatal(err)
		}
		benchBalls = balls
	}
}
