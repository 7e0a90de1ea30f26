package wire

import (
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.U32(7)
	w.U64(1 << 40)
	w.F32(1.5)
	w.F64(-2.25)
	w.F32s([]float32{3, 4})
	w.Blob([]byte("xy"))
	r := NewReader("test", w.Buf)
	fs := make([]float32, 2)
	if r.U32() != 7 || r.U64() != 1<<40 || r.F32() != 1.5 || r.F64() != -2.25 {
		t.Fatal("scalar fields did not round-trip")
	}
	if r.F32s(fs); fs[0] != 3 || fs[1] != 4 {
		t.Fatalf("F32s = %v", fs)
	}
	if b := r.Blob("blob"); string(b) != "xy" {
		t.Fatalf("Blob = %q", b)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestFirstFailureSticks: after any failure every read returns zero,
// no destination is written, and Done reports the first failure.
func TestFirstFailureSticks(t *testing.T) {
	var w Writer
	w.U32(1)
	w.U32(2)
	r := NewReader("test", w.Buf)
	r.U32()
	r.Failf("first %d", 1)
	r.Failf("second")
	fs := []float32{9}
	if r.U32() != 0 || r.U64() != 0 || r.Count("n", 10, 1) != 0 || r.Blob("b") != nil {
		t.Fatal("read after failure returned data")
	}
	if r.F32s(fs); fs[0] != 9 {
		t.Fatal("F32s wrote after failure")
	}
	if err := r.Done(); err == nil || err.Error() != "test first 1" {
		t.Fatalf("Done = %v, want the first failure", err)
	}
}

func TestCountAndDoneBounds(t *testing.T) {
	var w Writer
	w.U32(3) // a count of 3 four-byte elements, but only 8 bytes follow
	w.U64(0)
	for _, c := range []struct {
		name      string
		max, size int
		want      string
	}{
		{"within both bounds", 3, 2, ""},
		{"over max", 2, 1, "exceeds bound 2"},
		{"over the bytes that remain", 100, 4, "exceeds bound 2"},
	} {
		r := NewReader("test", w.Buf)
		n := r.Count("elems", c.max, c.size)
		switch err := r.Done(); {
		case c.want == "" && n != 3:
			t.Errorf("%s: Count = %d, want 3", c.name, n)
		case c.want == "" && (err == nil || !strings.Contains(err.Error(), "8 trailing bytes")):
			t.Errorf("%s: Done = %v, want the trailing-bytes error", c.name, err)
		case c.want != "" && (n != 0 || err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: Count = %d, err = %v, want 0 and %q", c.name, n, err, c.want)
		}
	}
	if err := NewReader("test", w.Buf[:2]).Done(); err == nil {
		t.Error("Done accepted unread input")
	}
	r := NewReader("test", w.Buf[:2])
	if r.U32(); r.Done() == nil || !strings.Contains(r.Done().Error(), "truncated at offset 0") {
		t.Errorf("short read: %v", r.Done())
	}
}
