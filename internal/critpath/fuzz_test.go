package critpath

import "testing"

// FuzzParseScale: a parse never panics, an accepted scale names a cost
// class and a factor in [0, 100], and its String spelling parses back to
// the same scale.
func FuzzParseScale(f *testing.F) {
	for _, s := range []string{
		"lock=0.5", "msg=2", "compute=0", "barrier=100", "svc=1e-7",
		"compute=nan", "lock=NaN", "msg=Inf", "lock=-0", "svc=99.9999995",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseScale(spec)
		if err != nil {
			return
		}
		if s.Class == ClassNone || s.Class >= NumClasses || s.PPM < 0 || s.PPM > 100e6 {
			t.Fatalf("ParseScale(%q) accepted %+v", spec, *s)
		}
		back, err := ParseScale(s.String())
		if err != nil {
			t.Fatalf("ParseScale(%q) of ParseScale(%q): %v", s.String(), spec, err)
		}
		if *back != *s {
			t.Fatalf("round trip of %q: %+v, want %+v", spec, *back, *s)
		}
	})
}
