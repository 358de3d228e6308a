package network

import (
	"testing"
	"unsafe"

	"hyperx/internal/core"
	"hyperx/internal/topology"
)

// TestOutputPortHotLine: everything of a port that an eligible attempt
// and a grant touch beyond its portLine — with up to 8 VCs all the
// credits — is one outputPort of exactly 64 bytes, and the port slab
// starts on a line boundary, so every port is exactly one line. Growing a
// field or reordering the struct silently spreads a grant over two lines.
func TestOutputPortHotLine(t *testing.T) {
	var o outputPort
	hot := []struct {
		name       string
		off, bytes uintptr
	}{
		{"busyAccum", unsafe.Offsetof(o.busyAccum), unsafe.Sizeof(o.busyAccum)},
		{"grants", unsafe.Offsetof(o.grants), unsafe.Sizeof(o.grants)},
		{"toTerminal", unsafe.Offsetof(o.toTerminal), unsafe.Sizeof(o.toTerminal)},
		{"dead", unsafe.Offsetof(o.dead), unsafe.Sizeof(o.dead)},
		{"credits[0:8]", unsafe.Offsetof(o.credits), 8 * unsafe.Sizeof(o.credits[0])},
	}
	for _, f := range hot {
		if end := f.off + f.bytes; end > 64 {
			t.Errorf("hot field %s ends at byte %d, past the first cache line", f.name, end)
		}
	}
	if n := unsafe.Sizeof(o); n != 64 {
		t.Errorf("sizeof(outputPort) = %d, want one cache line", n)
	}
	var hi [loVCs]int32 // one port's Router.hiCredits entry
	if lo := len(o.credits); lo+len(hi) != maxVCs {
		t.Errorf("inline credits hold %d VCs and hiCredits %d more, want maxVCs = %d in all", lo, len(hi), maxVCs)
	}

	for _, shape := range [][]int{{4, 4}, {8, 8, 8}} {
		h := topology.MustHyperX(shape, 2)
		n := buildNet(t, h, core.NewDimWAR(h), nil)
		for _, r := range n.Routers {
			if a := uintptr(unsafe.Pointer(&r.out[0])); a%64 != 0 {
				t.Fatalf("%v: router %d's ports start at %#x, not 64-byte aligned", shape, r.id, a)
			}
		}
	}
}

// TestPortLinePacking: the packed view holds a port in 32 bytes, two to
// a cache line; each router's region is its port count rounded up to
// whole lines, starts on a line boundary, and sits in one network-wide
// slab at its stride. A wider entry or an unaligned region spreads one
// dimension's candidates over more lines than it needs.
func TestPortLinePacking(t *testing.T) {
	if n := unsafe.Sizeof(portLine{}); n != 32 {
		t.Fatalf("sizeof(portLine) = %d, want 32 (two ports per cache line)", n)
	}
	for _, shape := range []struct {
		widths      []int
		terms, want int
	}{
		{[]int{4, 4}, 2, 8},     // 8 ports: four lines
		{[]int{4, 4, 4}, 4, 14}, // 13 ports: seven lines
		{[]int{8, 8, 8}, 8, 30}, // 29 ports: fifteen lines
	} {
		h := topology.MustHyperX(shape.widths, shape.terms)
		np := h.NumPorts()
		if got := lineStride(np); got != shape.want {
			t.Errorf("%v: lineStride(%d) = %d, want %d", shape.widths, np, got, shape.want)
		}
		n := buildNet(t, h, core.NewDimWAR(h), nil)
		if got, want := len(n.lines), len(n.Routers)*lineStride(np); got != want {
			t.Fatalf("%v: packed view holds %d entries, want %d", shape.widths, got, want)
		}
		for _, r := range n.Routers {
			if len(r.lines) != np {
				t.Fatalf("%v: router %d's region holds %d ports, want %d", shape.widths, r.id, len(r.lines), np)
			}
			if &r.lines[0] != &n.lines[r.id*lineStride(np)] {
				t.Fatalf("%v: router %d's region is not at its stride in the network slab", shape.widths, r.id)
			}
			if a := uintptr(unsafe.Pointer(&r.lines[0])); a%64 != 0 {
				t.Fatalf("%v: router %d's packed view starts at %#x, not 64-byte aligned", shape.widths, r.id, a)
			}
		}
	}
}
