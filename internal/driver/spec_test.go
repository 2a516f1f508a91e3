package driver

import (
	"strings"
	"testing"
	"time"
)

// TestSpecParseRoundTrip is the satellite's Validate/ParseSpec
// round-trip table: every spec here must parse, validate, print, and
// re-parse to the identical value.
func TestSpecParseRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		text string
		want func(Spec) Spec // edits applied to DefaultSpec
	}{
		{
			name: "issue example",
			text: "read=95,write=5;dist=zipfian:0.99;clients=64",
			want: func(s Spec) Spec {
				s.Dist, s.Clients = Zipfian, 64
				return s
			},
		},
		{
			name: "defaults only",
			text: "",
			want: func(s Spec) Spec { return s },
		},
		{
			name: "full mix sequential",
			text: "read=70,write=20,scan=5,batch=5;dist=seq;keys=5000;clients=2;ops=9000;batchsize=8;scanlen=10;seed=7",
			want: func(s Spec) Spec {
				s.Read, s.Write, s.Scan, s.Batch = 70, 20, 5, 5
				s.Dist, s.Keys, s.Clients, s.Ops = Sequential, 5000, 2, 9000
				s.BatchSize, s.ScanLen, s.Seed = 8, 10, 7
				return s
			},
		},
		{
			name: "duration bounded with warmup",
			text: "read=50,write=50;dur=2s;warmup=500ms",
			want: func(s Spec) Spec {
				s.Read, s.Write = 50, 50
				s.Ops, s.Duration, s.Warmup = 0, 2*time.Second, 500*time.Millisecond
				return s
			},
		},
		{
			name: "one weight named, the others zero",
			text: "write=100;keys=1000",
			want: func(s Spec) Spec {
				s.Read, s.Write, s.Keys = 0, 100, 1000
				return s
			},
		},
		{
			name: "sequential long form, interchangeable separators",
			text: "read=1;write=1,dist=sequential,keys=42",
			want: func(s Spec) Spec {
				s.Read, s.Write, s.Dist, s.Keys = 1, 1, Sequential, 42
				return s
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := ParseSpec(c.text)
			if err != nil {
				t.Fatalf("ParseSpec(%q): %v", c.text, err)
			}
			want := c.want(DefaultSpec())
			if got != want {
				t.Fatalf("ParseSpec(%q) = %+v, want %+v", c.text, got, want)
			}
			// Round trip through the canonical string form.
			back, err := ParseSpec(got.String())
			if err != nil {
				t.Fatalf("ParseSpec(String() = %q): %v", got.String(), err)
			}
			if back != got {
				t.Fatalf("round trip of %q changed the spec: %+v != %+v", got.String(), back, got)
			}
		})
	}
}

func TestSpecParseErrors(t *testing.T) {
	cases := map[string]string{
		"malformed token":      "read95",
		"unknown field":        "frobnicate=1",
		"bad int":              "read=x",
		"unknown dist":         "dist=pareto",
		"theta on uniform":     "dist=uniform:0.5",
		"bad theta":            "dist=zipfian:nope",
		"theta out of range":   "dist=zipfian:1.5",
		"empty mix":            "read=0,write=0",
		"negative weight":      "read=-1",
		"zero clients":         "clients=0",
		"zero keys":            "keys=0",
		"ops and dur together": "ops=100;dur=1s",
		"neither ops nor dur":  "ops=0",
		"batch without size":   "batch=1;batchsize=0",
		"scan without length":  "scan=1;scanlen=0",
		"negative warmup":      "warmup=-1s",
	}
	for name, text := range cases {
		if _, err := ParseSpec(text); err == nil {
			t.Errorf("%s: ParseSpec(%q) accepted", name, text)
		}
	}
}

func TestSpecStringOmitsUnsetPhases(t *testing.T) {
	s := DefaultSpec()
	if str := s.String(); strings.Contains(str, "dur=") || strings.Contains(str, "warmup=") {
		t.Errorf("op-bounded default spec string carries dur/warmup: %s", str)
	}
	s.Ops, s.Duration = 0, time.Second
	if str := s.String(); !strings.Contains(str, "dur=1s") || strings.Contains(str, "ops=") {
		t.Errorf("duration-bounded spec string wrong: %s", str)
	}
}
