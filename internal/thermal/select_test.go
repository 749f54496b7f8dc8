package thermal

import "testing"

// TestResolutionByName pins the shared -res flag vocabulary.
func TestResolutionByName(t *testing.T) {
	for name, want := range map[string]Resolution{
		"preview": PreviewResolution(),
		"coarse":  CoarseResolution(),
		"fast":    FastResolution(),
		"paper":   PaperResolution(),
	} {
		got, err := ResolutionByName(name)
		if err != nil || got != want {
			t.Errorf("ResolutionByName(%q) = %+v, %v", name, got, err)
		}
	}
	if _, err := ResolutionByName("ultra"); err == nil {
		t.Error("unknown resolution accepted")
	}
}
