// The record payload of a factored FSDL3 file (flag bit 2): a label's
// balls, each distance written once. See the layout in format3.go's
// header comment and docs/STORAGE.md, "Each distance once".
//
// Two facts carry the coding. The nets nest (N_i ⊆ N_{i−1}) and the ball
// radii grow with the level, so the part of a ball that lies in the net
// of the level above is a function of the ball above:
//
//	B_ℓ ∩ N_{ℓ−c} = {x ∈ B_{ℓ+1} : d ≤ r_ℓ}, with the same distances
//
// — a *nested* level stores only the points of N_{ℓ−c−1} \ N_{ℓ−c} and the
// reader re-derives the rest. And a ball is a neighbourhood, so in the
// file's own net-point list of the level its points sit in a few runs of
// consecutive entries, with distances that change slowly along a run.
package labelstore

import (
	"fmt"
	"math"

	"fsdl/internal/bitio"
	"fsdl/internal/core"
)

// ballLevel is what the codec reads off the level graphs for one level
// index k (scheme level ℓ = c+1+k).
type ballLevel struct {
	net []int32 // every net point of the level, ascending: a flat level's id universe
	// fresh is net minus the net points of the level above — the points
	// whose distance no higher level holds: a nested level's id universe.
	// Unused at the top level.
	fresh []int32
	r     int32 // the ball radius r_ℓ
}

// ballCodec encodes and parses ball records under one file's level
// graphs. Read-only once built; safe for concurrent use.
type ballCodec struct {
	lg     *core.LevelGraphs
	levels []ballLevel
}

func newBallCodec(lg *core.LevelGraphs) *ballCodec {
	p := lg.Params()
	c := &ballCodec{lg: lg, levels: make([]ballLevel, p.NumLevelRange())}
	for k := range c.levels {
		lv := &c.levels[k]
		lv.net, lv.r = lg.NetPoints(k), p.R(p.LowestLevel()+k)
		if k+1 < len(c.levels) {
			lv.fresh = minus(lv.net, lg.NetPoints(k+1))
		}
	}
	return c
}

// minus returns the elements of a that are not in b; both ascending.
func minus(a, b []int32) []int32 {
	out := make([]int32, 0, max(0, len(a)-len(b)))
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			out = append(out, x)
		}
	}
	return out
}

// Per-level modes. A level opens with two bits, saturated and nested; its
// distances (when there are at least two) with one, the predictor.
const (
	predDelta  = 0 // zigzag-γ of ΔD: the pre-PR-26 coding
	predDelta2 = 1 // ΔΔD, zeros as run lengths
)

// ballScratch is an encoder's reusable state: the indices of the level's
// points in its net-point list, and the points a nested level would store
// with their indices in the shorter one.
type ballScratch struct {
	flatIdx, subIdx []int32
	sub             []core.PointEntry
}

// seek returns the first j ≥ from with sorted[j] ≥ x, galloping: a ball's
// points are near each other in the level's list, and the list may be
// the whole vertex set.
func seek(sorted []int32, from int, x int32) int {
	if from >= len(sorted) || sorted[from] >= x {
		return from
	}
	step := 1
	for from+step < len(sorted) && sorted[from+step] < x {
		from += step
		step <<= 1
	}
	lo, hi := from+1, min(from+step, len(sorted))
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sorted[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// index checks that pts are net points of the level, ascending, and —
// when the ball is not the whole list, so that its ids get written —
// leaves their indices in sc.flatIdx. A point that fails is returned with
// ok unset.
func (lv *ballLevel) index(pts []core.PointEntry, sc *ballScratch) (x int32, ok bool) {
	sc.flatIdx = sc.flatIdx[:0]
	if len(pts) == len(lv.net) {
		for i, pe := range pts {
			if pe.X != lv.net[i] {
				return pe.X, false
			}
		}
		return 0, true
	}
	j := 0
	for _, pe := range pts {
		j = seek(lv.net, j, pe.X)
		if j == len(lv.net) || lv.net[j] != pe.X {
			return pe.X, false
		}
		sc.flatIdx = append(sc.flatIdx, int32(j))
		j++
	}
	return 0, true
}

// split sorts the level's ball pts into what the level above already
// holds and what it does not (sc.sub), reporting whether the nested form
// reproduces pts exactly: every point is either a fresh net point or a
// point of the upper ball up within r at the same distance, and no such
// upper point is missing. With ids set the fresh points' indices go to
// sc.subIdx; without — a saturated ball, whose reader takes the whole
// fresh list unasked — counting them is enough: pts is the level's net,
// the points taken from up are net points of the level above (up has been
// through index there), so what is left holds every fresh point.
func (lv *ballLevel) split(pts, up []core.PointEntry, ids bool, sc *ballScratch) bool {
	sc.sub, sc.subIdx = sc.sub[:0], sc.subIdx[:0]
	ui, fj := 0, 0
	for _, pe := range pts {
		for ui < len(up) && up[ui].D > lv.r {
			ui++
		}
		if ui < len(up) && up[ui].X <= pe.X {
			if up[ui] != pe {
				return false
			}
			ui++
			continue
		}
		if ids {
			fj = seek(lv.fresh, fj, pe.X)
			if fj == len(lv.fresh) || lv.fresh[fj] != pe.X {
				return false
			}
			sc.subIdx = append(sc.subIdx, int32(fj))
			fj++
		}
		sc.sub = append(sc.sub, pe)
	}
	for ui < len(up) && up[ui].D > lv.r {
		ui++
	}
	return ui == len(up) && (ids || len(sc.sub) == len(lv.fresh))
}

// idBits returns the cost of idx as runs, count included.
func idBits(idx []int32) int {
	bits := bitio.DeltaLen(uint64(len(idx)))
	for i := 0; i < len(idx); {
		n := runLen(idx[i:])
		gap := uint64(idx[i])
		if i > 0 {
			gap -= uint64(idx[i-1]) + 2
		}
		bits += bitio.DeltaLen(gap) + bitio.DeltaLen(uint64(n-1))
		i += n
	}
	return bits
}

// runLen returns how many leading entries of idx are consecutive.
func runLen(idx []int32) int {
	n := 1
	for n < len(idx) && idx[n] == idx[0]+int32(n) {
		n++
	}
	return n
}

func zigzag(d int64) uint64    { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag(zz uint64) int64 { return int64(zz>>1) ^ -int64(zz&1) }

// nonzeroLen is the cost of a residual e ≠ 0 behind a zero-run length: a
// sign bit and γ(|e|−1).
func nonzeroLen(e int64) int {
	if e < 0 {
		e = -e
	}
	return 1 + bitio.GammaLen(uint64(e-1))
}

// distBits returns the cost of the distances of pts under the cheaper
// predictor, tag included, and which that is.
func distBits(pts []core.PointEntry) (bits, pred int) {
	if len(pts) == 0 {
		return 0, predDelta
	}
	first := bitio.GammaLen(uint64(pts[0].D))
	if len(pts) == 1 {
		return first, predDelta
	}
	var delta, delta2 int
	var d1, zeros int64
	for i := 1; i < len(pts); i++ {
		d := int64(pts[i].D) - int64(pts[i-1].D)
		delta += bitio.GammaLen(zigzag(d))
		if dd := d - d1; dd == 0 {
			zeros++
		} else {
			delta2 += bitio.GammaLen(uint64(zeros)) + nonzeroLen(dd)
			zeros = 0
		}
		d1 = d
	}
	if zeros > 0 {
		delta2 += bitio.GammaLen(uint64(zeros))
	}
	if delta2 < delta {
		return first + 1 + delta2, predDelta2
	}
	return first + 1 + delta, predDelta
}

// encode appends the record of l: its balls from the top level down.
// Every point must be a net point of its level under the codec's level
// graphs.
func (c *ballCodec) encode(l *core.Label, w *bitio.Writer, sc *ballScratch) error {
	if paramsOf(l) != paramsOfScheme(c.lg.Params()) || int(l.V) >= c.lg.NumVertices() || len(l.Levels) != len(c.levels) {
		return fmt.Errorf("labelstore: label of vertex %d does not belong to the store's level graphs", l.V)
	}
	var up []core.PointEntry
	for k := len(c.levels) - 1; k >= 0; k-- {
		pts := l.Levels[k].Points
		if x, ok := c.encodeLevel(k, pts, up, w, sc); !ok {
			return fmt.Errorf("labelstore: vertex %d level %d: point %d is not a net point of the store's level graphs", l.V, l.Level(k), x)
		}
		up = pts
	}
	return nil
}

// encodeLevel appends the level-k ball pts, up being the ball of the
// level above as this function took it (ignored at the top level); a
// point that is no net point of the level is returned with ok unset. The
// level is written nested only when that reproduces pts exactly and is
// the shorter form.
func (c *ballCodec) encodeLevel(k int, pts, up []core.PointEntry, w *bitio.Writer, sc *ballScratch) (x int32, ok bool) {
	lv := &c.levels[k]
	if x, ok := lv.index(pts, sc); !ok {
		return x, false
	}
	// Saturated is a statement about the ball, not about what is stored:
	// nested or flat, a reader then takes the whole universe uncounted.
	saturated := len(pts) == len(lv.net)
	idx, stored := sc.flatIdx, pts
	bits, pred := distBits(pts)
	if !saturated {
		bits += idBits(idx)
	}
	nested := false
	if k+1 < len(c.levels) && lv.split(pts, up, !saturated, sc) {
		subBits, subPred := distBits(sc.sub)
		if !saturated {
			subBits += idBits(sc.subIdx)
		}
		if subBits < bits {
			nested, pred, idx, stored = true, subPred, sc.subIdx, sc.sub
		}
	}
	w.WriteBits(uint64(b2i(saturated))<<1|uint64(b2i(nested)), 2)
	if !saturated {
		writeIDs(w, idx)
	}
	writeDists(w, stored, pred)
	return 0, true
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// writeIDs writes the count of idx and then its maximal runs of
// consecutive indices, each as the gap before it and its length less one;
// two runs never touch, so every gap but the first is written less one.
func writeIDs(w *bitio.Writer, idx []int32) {
	w.WriteDelta(uint64(len(idx)))
	for i := 0; i < len(idx); {
		n := runLen(idx[i:])
		gap := uint64(idx[i])
		if i > 0 {
			gap -= uint64(idx[i-1]) + 2
		}
		w.WriteDelta(gap)
		w.WriteDelta(uint64(n - 1))
		i += n
	}
}

func writeDists(w *bitio.Writer, pts []core.PointEntry, pred int) {
	if len(pts) == 0 {
		return
	}
	w.WriteGamma(uint64(pts[0].D))
	if len(pts) == 1 {
		return
	}
	w.WriteBits(uint64(pred), 1)
	var d1, zeros int64
	for i := 1; i < len(pts); i++ {
		d := int64(pts[i].D) - int64(pts[i-1].D)
		if pred == predDelta {
			w.WriteGamma(zigzag(d))
			continue
		}
		e := d - d1
		d1 = d
		if e == 0 {
			zeros++
			continue
		}
		w.WriteGamma(uint64(zeros))
		zeros = 0
		if e < 0 {
			w.WriteBits(1, 1)
			e = -e
		} else {
			w.WriteBits(0, 1)
		}
		w.WriteGamma(uint64(e - 1))
	}
	if zeros > 0 {
		w.WriteGamma(uint64(zeros))
	}
}

// BallLevelStats says how the records of a factored store write one
// level: over every record read, the ball points stored and those left
// to the level above, the bits spent on ids and on distances, and how
// often each mode was chosen.
type BallLevelStats struct {
	Level            int
	Stored, Derived  int64
	IDBits, DistBits int64
	Saturated        int64    // records whose ball holds every net point of the level
	Nested           int64    // records that keep only the fresh points
	Pred             [2]int64 // records with two or more distances, by predictor: ΔD, ΔΔD
}

// parse reads a record payload back into its balls, one point list per
// level. Ids are indices into lists the level graphs own, so every point
// comes out a net point of its level, ascending; distances are checked
// where the label is built (core.LevelGraphs.Label). No count is believed
// beyond the size of the level's universe, which the open file already
// holds. st, when set, is tallied per level.
func (c *ballCodec) parse(payload []byte, st []BallLevelStats) ([][]core.PointEntry, error) {
	r := bitio.NewReader(payload, 8*len(payload))
	balls := make([][]core.PointEntry, len(c.levels))
	for k := len(c.levels) - 1; k >= 0; k-- {
		lv := &c.levels[k]
		at := r.Remaining()
		modes, err := r.ReadBits(2)
		if err != nil {
			return nil, fmt.Errorf("labelstore: decode level %d: %w", k, err)
		}
		saturated, nested := modes&2 != 0, modes&1 != 0
		universe := lv.net
		var up []core.PointEntry
		derived := 0
		if nested {
			if k+1 == len(c.levels) {
				return nil, fmt.Errorf("labelstore: top level %d is nested under no level", k)
			}
			universe, up = lv.fresh, balls[k+1]
			for _, pe := range up {
				if pe.D <= lv.r {
					derived++
				}
			}
			if saturated && derived != len(lv.net)-len(lv.fresh) {
				return nil, fmt.Errorf("labelstore: saturated level %d derives %d of %d points from the level above", k, derived, len(lv.net)-len(lv.fresh))
			}
		}
		stored := len(universe)
		if !saturated {
			np, err := r.ReadDelta()
			if err != nil {
				return nil, fmt.Errorf("labelstore: decode level %d points: %w", k, err)
			}
			if np > uint64(len(universe)) {
				return nil, fmt.Errorf("labelstore: level %d point count %d exceeds its %d net points", k, np, len(universe))
			}
			stored = int(np)
		}
		pts := make([]core.PointEntry, derived+stored)
		tail := pts[derived:]
		if saturated {
			for i := range tail {
				tail[i].X = universe[i]
			}
		} else if err := readIDs(r, tail, universe); err != nil {
			return nil, fmt.Errorf("labelstore: level %d: %w", k, err)
		}
		idEnd := r.Remaining()
		pred, err := readDists(r, tail)
		if err != nil {
			return nil, fmt.Errorf("labelstore: level %d: %w", k, err)
		}
		if st != nil {
			s := &st[k]
			s.Stored += int64(stored)
			s.Derived += int64(derived)
			s.IDBits += int64(at - idEnd)
			s.DistBits += int64(idEnd - r.Remaining())
			s.Saturated += int64(b2i(saturated))
			s.Nested += int64(b2i(nested))
			if stored > 1 {
				s.Pred[pred]++
			}
		}
		// The stored points sit at the tail; merging the derived ones in from
		// the front never overtakes them.
		w, s := 0, derived
		for _, pe := range up {
			if pe.D > lv.r {
				continue
			}
			for s < len(pts) && pts[s].X < pe.X {
				pts[w] = pts[s]
				w, s = w+1, s+1
			}
			pts[w] = pe
			w++
		}
		balls[k] = pts
	}
	return balls, checkPadding(r)
}

// readIDs fills in the ids of pts, strictly ascending entries of
// universe, from runs.
func readIDs(r *bitio.Reader, pts []core.PointEntry, universe []int32) error {
	next := uint64(0) // smallest index the next point may take
	size := uint64(len(universe))
	for i := 0; i < len(pts); {
		gap, err := r.ReadDelta()
		if err != nil {
			return fmt.Errorf("decode run gap: %w", err)
		}
		n, err := r.ReadDelta()
		if err != nil {
			return fmt.Errorf("decode run length: %w", err)
		}
		if i > 0 {
			gap++
		}
		if gap >= size || next+gap >= size || n >= uint64(len(pts)-i) || n >= size-next-gap {
			return fmt.Errorf("run of %d+1 points at gap %d overruns the level (%d points left of %d, %d net points)", n, gap, len(pts)-i, len(pts), size)
		}
		next += gap
		for end := i + int(n) + 1; i < end; i++ {
			pts[i].X = universe[next]
			next++
		}
	}
	return nil
}

// readDists fills in the distances of pts under the predictor the level
// names.
func readDists(r *bitio.Reader, pts []core.PointEntry) (pred int, err error) {
	if len(pts) == 0 {
		return 0, nil
	}
	first, err := r.ReadGamma()
	if err != nil {
		return 0, fmt.Errorf("decode point dist: %w", err)
	}
	if first > math.MaxInt32 {
		return 0, fmt.Errorf("point distance out of range")
	}
	pts[0].D = int32(first)
	if len(pts) == 1 {
		return 0, nil
	}
	tag, err := r.ReadBits(1)
	if err != nil {
		return 0, fmt.Errorf("decode distance predictor: %w", err)
	}
	pred = int(tag)
	// d1 is the running ΔD a ΔΔD residual corrects; under ΔD it stays 0
	// and a residual is the step itself.
	d, d1 := int64(first), int64(0)
	for i := 1; i < len(pts); {
		var e int64
		zeros := 0
		if pred == predDelta {
			zz, err := r.ReadGamma()
			if err != nil {
				return pred, fmt.Errorf("decode point dist: %w", err)
			}
			e = unzigzag(zz)
		} else {
			z, err := r.ReadGamma()
			if err != nil {
				return pred, fmt.Errorf("decode zero run: %w", err)
			}
			if z > uint64(len(pts)-i) {
				return pred, fmt.Errorf("zero run of %d with %d distances left", z, len(pts)-i)
			}
			if zeros = int(z); i+zeros < len(pts) {
				neg, err := r.ReadBits(1)
				if err != nil {
					return pred, fmt.Errorf("decode point dist: %w", err)
				}
				mag, err := r.ReadGamma()
				if err != nil {
					return pred, fmt.Errorf("decode point dist: %w", err)
				}
				if mag >= math.MaxInt32 {
					return pred, fmt.Errorf("point distance out of range")
				}
				if e = int64(mag) + 1; neg != 0 {
					e = -e
				}
			} else {
				zeros-- // the level ends inside the run: its last zero is this step
			}
			for ; zeros > 0; zeros, i = zeros-1, i+1 {
				if d += d1; d < 0 || d > math.MaxInt32 {
					return pred, fmt.Errorf("point distance out of range")
				}
				pts[i].D = int32(d)
			}
			d1 += e
			e = d1
		}
		if d += e; d < 0 || d > math.MaxInt32 {
			return pred, fmt.Errorf("point distance out of range")
		}
		pts[i].D = int32(d)
		i++
	}
	return pred, nil
}

// BallEncoder writes ball records under one set of level graphs: the
// factored FSDL3 writer's record path, exported for the tools that time
// and size the coding outside a container (fsdl-bench's encode_balls row,
// E1's stored-bytes column). Not safe for concurrent use.
type BallEncoder struct {
	c  *ballCodec
	w  bitio.Writer
	sc ballScratch
}

func NewBallEncoder(lg *core.LevelGraphs) *BallEncoder {
	return &BallEncoder{c: newBallCodec(lg)}
}

// Encode returns the record of l, a label induced from the encoder's
// level graphs. The bytes are the encoder's own and last until the next
// call.
func (e *BallEncoder) Encode(l *core.Label) ([]byte, error) {
	e.w.Reset()
	if err := e.c.encode(l, &e.w, &e.sc); err != nil {
		return nil, err
	}
	return e.w.Bytes(), nil
}

// BallStats parses every intact record of a factored store and returns
// the per-level tally, lowest level first; nil for any other store.
func (st *Store) BallStats() ([]BallLevelStats, error) {
	if st.f3 == nil || st.f3.levels == nil {
		return nil, nil
	}
	c := st.f3.levels.balls
	out := make([]BallLevelStats, len(c.levels))
	for k := range out {
		out[k].Level = c.lg.Params().LowestLevel() + k
	}
	for i := 0; i < st.f3.idxCount; i++ {
		e := st.f3.entry(i)
		if !st.f3.verify(e, i) {
			continue
		}
		if _, err := c.parse(st.f3.payload(e), out); err != nil {
			return nil, fmt.Errorf("labelstore: record of vertex %d: %w", e.vertex, err)
		}
	}
	return out, nil
}
