package activity

import (
	"math"
	"testing"
)

func TestUniform(t *testing.T) {
	w, err := Uniform{}.Weights(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 24 {
		t.Fatalf("got %d weights", len(w))
	}
	for i, v := range w {
		if v != 1 {
			t.Errorf("weight %d = %g, want 1", i, v)
		}
	}
}

func TestDiagonalQuadrants(t *testing.T) {
	w, err := Diagonal{}.Weights(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: upper-left and lower-right hot (2x), upper-right and
	// lower-left cold (1x). Row 0 is the bottom.
	get := func(col, row int) float64 { return w[row*6+col] }
	if get(0, 0) != 1 { // lower-left cold
		t.Errorf("lower-left = %g, want 1", get(0, 0))
	}
	if get(5, 0) != 2 { // lower-right hot
		t.Errorf("lower-right = %g, want 2", get(5, 0))
	}
	if get(0, 3) != 2 { // upper-left hot
		t.Errorf("upper-left = %g, want 2", get(0, 3))
	}
	if get(5, 3) != 1 { // upper-right cold
		t.Errorf("upper-right = %g, want 1", get(5, 3))
	}
	// Quadrant power split 8/4 when scaled to 24 total: hot quadrants sum
	// to twice the cold ones.
	var hot, cold float64
	for r := 0; r < 4; r++ {
		for c := 0; c < 6; c++ {
			left := c < 3
			bottom := r < 2
			if (left && !bottom) || (!left && bottom) {
				hot += get(c, r)
			} else {
				cold += get(c, r)
			}
		}
	}
	if math.Abs(hot-2*cold) > 1e-12 {
		t.Errorf("hot/cold = %g/%g, want ratio 2", hot, cold)
	}
}

func TestDiagonalCustomWeights(t *testing.T) {
	w, err := Diagonal{HotWeight: 3, ColdWeight: 1}.Weights(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// (0,0) bottom-left cold, (1,0) bottom-right hot.
	if w[0] != 1 || w[1] != 3 {
		t.Errorf("weights = %v", w)
	}
	if _, err := (Diagonal{HotWeight: -1, ColdWeight: 1}).Weights(2, 2); err == nil {
		t.Error("negative weight should error")
	}
}

func TestRandomDeterministic(t *testing.T) {
	a, err := Random{Seed: 42}.Weights(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random{Seed: 42}.Weights(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed should reproduce weights")
		}
	}
	c, err := Random{Seed: 43}.Weights(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
	// Default range respected.
	for i, v := range a {
		if v < 0.25 || v > 1.75 {
			t.Errorf("weight %d = %g outside default range", i, v)
		}
	}
}

func TestRandomRangeValidation(t *testing.T) {
	if _, err := (Random{Min: -1, Max: 1}).Weights(2, 2); err == nil {
		t.Error("negative min should error")
	}
	if _, err := (Random{Min: 2, Max: 1}).Weights(2, 2); err == nil {
		t.Error("inverted range should error")
	}
}

func TestHotspot(t *testing.T) {
	w, err := Hotspot{Col: 2, Row: 1}.Weights(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	hotIdx := 1*6 + 2
	for i, v := range w {
		if i == hotIdx {
			if v <= 1 {
				t.Errorf("hotspot weight = %g, want > 1", v)
			}
		} else if v != 0.1 {
			t.Errorf("background %d = %g, want 0.1", i, v)
		}
	}
	if _, err := (Hotspot{Col: 9, Row: 0}).Weights(6, 4); err == nil {
		t.Error("out-of-range hotspot should error")
	}
	if _, err := (Hotspot{Col: 0, Row: 0, Background: -1}).Weights(6, 4); err == nil {
		t.Error("negative background should error")
	}
}

func TestCheckerboard(t *testing.T) {
	w, err := Checkerboard{}.Weights(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if w[0] != 2 || w[1] != 0.5 || w[4] != 0.5 || w[5] != 2 {
		t.Errorf("checkerboard pattern wrong: %v", w[:6])
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"uniform", "diagonal", "random", "hotspot", "checkerboard"} {
		s, err := ByName(name, 7)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if s.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, s.Name())
		}
		if _, err := s.Weights(6, 4); err != nil {
			t.Errorf("%s weights: %v", name, err)
		}
	}
	if _, err := ByName("bogus", 0); err == nil {
		t.Error("unknown name should error")
	}
}

func TestDimensionValidation(t *testing.T) {
	scenarios := []Scenario{Uniform{}, Diagonal{}, Random{}, Hotspot{}, Checkerboard{}}
	for _, s := range scenarios {
		if _, err := s.Weights(0, 4); err == nil {
			t.Errorf("%s should reject zero cols", s.Name())
		}
		if _, err := s.Weights(4, -1); err == nil {
			t.Errorf("%s should reject negative rows", s.Name())
		}
	}
}

func TestAllWeightsNonNegative(t *testing.T) {
	scenarios := []Scenario{Uniform{}, Diagonal{}, Random{Seed: 1}, Hotspot{Col: 1, Row: 1}, Checkerboard{}}
	for _, s := range scenarios {
		w, err := s.Weights(6, 4)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		var sum float64
		for i, v := range w {
			if v < 0 {
				t.Errorf("%s weight %d negative", s.Name(), i)
			}
			sum += v
		}
		if sum <= 0 {
			t.Errorf("%s weights sum to %g", s.Name(), sum)
		}
	}
}

func TestKey(t *testing.T) {
	if Key(nil) != Key(Uniform{}) {
		t.Error("nil and uniform keys differ")
	}
	seeded, err := ByName("diagonal", 5)
	if err != nil {
		t.Fatal(err)
	}
	if Key(seeded) != Key(Diagonal{}) {
		t.Error("a seed on a seedless scenario splits its key")
	}
	seen := map[string]Scenario{}
	for _, s := range []Scenario{Uniform{}, Diagonal{}, Random{Seed: 1}, Random{Seed: 2}, Hotspot{Col: 1, Row: 1}, Hotspot{Col: 2, Row: 1}, Checkerboard{}} {
		k := Key(s)
		if prev, dup := seen[k]; dup {
			t.Errorf("%+v and %+v share key %q", prev, s, k)
		}
		seen[k] = s
	}
}
