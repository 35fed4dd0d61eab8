package runtime

import "testing"

func TestParseConfig(t *testing.T) {
	cases := []struct {
		in   string
		want Config
	}{
		{"", Config{}},
		{"0", Config{}},
		{"off", Config{}},
		{"no", Config{}},
		{"1", Config{Coalesce: true}},
		{"on", Config{Coalesce: true}},
		{"TRUE", Config{Coalesce: true}},
		{"full", Config{Coalesce: true, AutoSync: true}},
		{"all", Config{Coalesce: true, AutoSync: true}},
		{"coalesce", Config{Coalesce: true}},
		{"autosync", Config{AutoSync: true}},
		{"autosync, coalesce", Config{Coalesce: true, AutoSync: true}},
		{"coalesce,sync", Config{Coalesce: true, AutoSync: true}},
		{"bogus", Config{}},
		{"bogus,coalesce", Config{Coalesce: true}},
		// The collective tuner is gone; its token is an unknown one.
		{"retune", Config{}},
	}
	for _, c := range cases {
		if got := parseConfig(c.in); got != c.want {
			t.Errorf("parseConfig(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestConfigString(t *testing.T) {
	if s := (Config{}).String(); s != "off" {
		t.Errorf("zero config String() = %q, want off", s)
	}
	if s := (Config{Coalesce: true, AutoSync: true}).String(); s != "coalesce,autosync" {
		t.Errorf("full config String() = %q", s)
	}
	if (Config{}).Enabled() {
		t.Error("zero config reports Enabled")
	}
	if !(Config{Coalesce: true}).Enabled() {
		t.Error("coalesce-only config reports disabled")
	}
}

func TestOverride(t *testing.T) {
	base := Active()
	restore := Override(Config{Coalesce: true})
	if got := Active(); got != (Config{Coalesce: true}) {
		t.Errorf("Active under Override = %+v", got)
	}
	restore()
	if got := Active(); got != base {
		t.Errorf("Active after restore = %+v, want %+v", got, base)
	}
}

func TestBatchPayloadCap(t *testing.T) {
	if c := BatchPayloadCap(1<<30, 68); c != MaxBatchBytes {
		t.Errorf("huge eager: cap %d, want %d", c, MaxBatchBytes)
	}
	if c := BatchPayloadCap(100, 68); c != 32 {
		t.Errorf("tight eager: cap %d, want 32", c)
	}
	if c := BatchPayloadCap(68, 68); c > 0 {
		t.Errorf("eager == header: cap %d, want <= 0", c)
	}
	if !PartEligible(24, 1024) {
		t.Error("24B part ineligible")
	}
	if PartEligible(0, 1024) || PartEligible(MaxCoalescePartBytes+1, 1024) || PartEligible(64, 32) {
		t.Error("ineligible part accepted")
	}
}
