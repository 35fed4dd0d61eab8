package main

import "testing"

// TestQuartiles: the exclusive method of Python's statistics.quantiles.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5, 6}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{3}, [3]float64{3, 3, 3}},
	} {
		if got := quartiles(c.v); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

// TestVerdict: each verdict of the package comment, on ten pairs.
func TestVerdict(t *testing.T) {
	ref := []float64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}
	shift := func(d float64) []float64 {
		out := make([]float64, len(ref))
		for i, v := range ref {
			out[i] = v + d
		}
		return out
	}
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	for _, c := range []struct {
		name  string
		a, b  []float64
		count bool
		want  string
	}{
		{"lower in every pair by more than the IQR", ref, shift(-20), false, "better"},
		{"lower in every pair, inside the IQR", ref, shift(-2), false, "equal"},
		{"higher in every pair, within the bound", ref, shift(20), false, "higher"},
		{"beyond the bound", ref, shift(30), false, "worse"},
		{"a spread wider than the bound", noisy, noisy, false, "unresolved"},
		{"identical counts", ref, ref, true, "equal"},
		{"a higher count within the bound", ref, shift(1), true, "higher"},
		{"a lower count", ref, shift(-1), true, "better"},
	} {
		if got := verdict(c.a, c.b, quartiles(c.a), quartiles(c.b), c.count, 0.25); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
