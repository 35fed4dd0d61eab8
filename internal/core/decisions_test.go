package core

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestDecisionRecStaysCompact: a log entry carries its evidence in 16
// pointer-free bytes, so the log costs the collector nothing to scan.
func TestDecisionRecStaysCompact(t *testing.T) {
	if got := unsafe.Sizeof(decisionRec{}); got != 16 {
		t.Errorf("decisionRec is %d bytes, want 16", got)
	}
	rt := reflect.TypeOf(decisionRec{})
	for i := 0; i < rt.NumField(); i++ {
		switch f := rt.Field(i); f.Type.Kind() {
		case reflect.Int32, reflect.Uint8:
		default:
			t.Errorf("decisionRec.%s is a %s; the log must stay pointer-free", f.Name, f.Type)
		}
	}
	var e Env
	e.noteBatch(3, 7, 5, 120)
	want := Decision{Region: 3, Kind: "coalesce", Detail: "5 msg(s) to rank 7 -> 1 batch (120 B payload, 24 B header)"}
	if got := e.Decisions(); len(got) != 1 || got[0] != want {
		t.Errorf("Decisions() = %v, want [%v]", got, want)
	}
}
