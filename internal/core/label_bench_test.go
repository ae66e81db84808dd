package core

import "testing"

// grid24Label is the label the codec benchmarks run on: the centre
// vertex of the 24×24 grid at ε = 2, the graph of BENCH_PR*.json.
func grid24Label(b *testing.B) *Label {
	b.Helper()
	s, err := BuildScheme(gridGraph(b, 24, 24), 2)
	if err != nil {
		b.Fatal(err)
	}
	return s.Label(24*12 + 12)
}

var codecSink int

func BenchmarkLabelEncode(b *testing.B) {
	l := grid24Label(b)
	_, nbits := l.Encode()
	b.SetBytes(int64((nbits + 7) / 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, n := l.Encode()
		codecSink += n
	}
}

func BenchmarkDecodeLabel(b *testing.B) {
	buf, nbits := grid24Label(b).Encode()
	b.SetBytes(int64((nbits + 7) / 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := DecodeLabel(buf, nbits)
		if err != nil {
			b.Fatal(err)
		}
		codecSink += len(l.Levels)
	}
}

// ballsOf copies the balls out of a label: what a factored container
// stores of it.
func ballsOf(l *Label) [][]PointEntry {
	balls := make([][]PointEntry, len(l.Levels))
	for k := range l.Levels {
		balls[k] = append([]PointEntry{}, l.Levels[k].Points...)
	}
	return balls
}

// BenchmarkLoadLevelGraphs times what opening a factored container adds
// to an open: decoding and checking its level-graphs section.
func BenchmarkLoadLevelGraphs(b *testing.B) {
	s, err := BuildScheme(gridGraph(b, 24, 24), 2)
	if err != nil {
		b.Fatal(err)
	}
	section := s.LevelGraphs().Encode()
	b.SetBytes(int64(len(section)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lg, err := LoadLevelGraphs(section)
		if err != nil {
			b.Fatal(err)
		}
		codecSink += lg.NumVertices()
	}
}

// BenchmarkLabelFromBalls times a factored container's cold label next
// to BenchmarkDecodeLabel's: the ball check and the induce step, on a
// graph whose every level is saturated (the label takes the level
// graphs' whole lists).
func BenchmarkLabelFromBalls(b *testing.B) {
	s, err := BuildScheme(gridGraph(b, 24, 24), 2)
	if err != nil {
		b.Fatal(err)
	}
	lg, err := LoadLevelGraphs(s.LevelGraphs().Encode())
	if err != nil {
		b.Fatal(err)
	}
	balls := ballsOf(s.Label(24*12 + 12))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := lg.Label(24*12+12, balls)
		if err != nil {
			b.Fatal(err)
		}
		codecSink += len(l.Levels)
	}
}
