package transport

import "testing"

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want Kind
		ok   bool
	}{
		{"", Simnet, true},
		{"simnet", Simnet, true},
		{"shm", SharedMem, true},
		// One spelling per transport: "shmem" would collide with the SHMEM
		// *target*, and nothing ever used "parallel".
		{"shmem", Simnet, false},
		{"parallel", Simnet, false},
		{"tcp", Simnet, false},
		{"SHM", Simnet, false},
	}
	for _, tc := range cases {
		got, err := Parse(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("Parse(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("Parse(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestKindString(t *testing.T) {
	if Simnet.String() != "simnet" || SharedMem.String() != "shm" {
		t.Errorf("String() = %q, %q", Simnet, SharedMem)
	}
}

func TestSelectEnvOverride(t *testing.T) {
	t.Setenv(EnvVar, "")
	if k, err := Select("shm"); err != nil || k != SharedMem {
		t.Errorf("profile shm: %v %v", k, err)
	}
	if k, err := Select(""); err != nil || k != Simnet {
		t.Errorf("default: %v %v", k, err)
	}
	t.Setenv(EnvVar, "shm")
	if k, err := Select("simnet"); err != nil || k != SharedMem {
		t.Errorf("env should override profile: %v %v", k, err)
	}
	t.Setenv(EnvVar, "bogus")
	if _, err := Select(""); err == nil {
		t.Error("bogus env value accepted")
	}
}
